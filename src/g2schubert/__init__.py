"""Exact Schubert calculus for the G2 flag variety and its bundles.

Subpackages and modules:

  exactalg   rationals, sparse polynomials, exact linear solving, LP
  octonion   composition algebras from compatible trilinear/bilinear forms
  weyl       the order-12 Weyl group, its S7 embedding, Bruhat order, root datum
  schubert   divided difference operators and Schubert polynomial families
  cohomring  quotient-ring presentations, Chern class helpers, expansions
  checks     named verification suites (also behind the g2sc CLI)
"""

from . import checks, cohomring, exactalg, octonion, schubert, weyl

__version__ = "0.1.0"

__all__ = ["checks", "cohomring", "exactalg", "octonion", "schubert",
           "weyl", "__version__"]
