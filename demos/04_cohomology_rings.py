#!/usr/bin/env python3
"""Normal forms in the cohomology ring presentations.

Each presentation is a quotient ring with a finite monomial basis and
oriented rewrite rules; reduction is exact and never divides in the integral
presentations.
"""

from fractions import Fraction

from g2schubert import cohomring as c
from g2schubert import schubert as s
from g2schubert import weyl
from g2schubert.exactalg import MPoly, parse_poly

x1, x2, alpha = c.X1, c.X2, c.ALPHA

# The integral ring of the flag variety: Z[x1,x2,alpha] modulo three
# relations, with a 12-element monomial basis.
point = c.fl_integral_point()
print("basis:", [str(b) for b in point.basis_polys()])
print("x1^3      ->", point.normal_form(x1 ** 3).as_poly())
print("x2^2      ->", point.normal_form(x2 ** 2).as_poly())
print("alpha^2   ->", point.normal_form(alpha ** 2).as_poly())
print("1/2 x1^3  ->", point.normal_form(Fraction(1, 2) * x1 ** 3).as_poly())

# With 2 inverted the ring needs only x1, x2.
half = c.fl_half_point()
print("\nx1^6 -> ", half.normal_form(x1 ** 6).as_poly())
print("point class:", half.normal_form(Fraction(1, 2) * x1 ** 5 * x2).as_poly())

# Every presentation certifies itself: closure of the multiplication table,
# associativity, rank, and its defining relations; it lists what fails.
for name in ("FlIntegralPoint", "FlHalfBundle", "QuadricBundle3"):
    pres = c.get_presentation(name)
    failures = c.verify_presentation(pres)
    print(f"\n{name}: rank {len(pres.basis)}, ok = {not failures}")

# The quadric-bundle Chow ring in generators h, f with symbolic Chern
# classes; its fiber specialization is Z[h,f]/(h^3 - 2f, f^2).
quadric = c.quadric_bundle(3)
print("\nh^3 ->", quadric.normal_form(c.H ** 3).as_poly())
print("f^2 ->", quadric.normal_form(c.F ** 2).as_poly())
print("consistency of 2hf with the Chern expansion:",
      c.quadric_eg_residue().is_zero())

# The two degeneracy-locus families are equal as classes, though not as
# polynomials.
halfb = c.fl_half_bundle()
paper = s.generate_family("paper")
graham = s.generate_family("graham")
w = weyl.element("tst")
print("\nP_tst - Ptilde_tst as polynomials:",
      (paper.table[w] - graham.table[w]))
print("reduced in the bundle ring:",
      halfb.reduce_poly(paper.table[w] - graham.table[w]))

# Schubert classes pair under Poincare duality by u -> w0 u.
pairing = c.duality_pairing(s.generate_family("point"))
w0 = weyl.longest()
print("\n<P_s, P_{w0 s}> =", pairing[(weyl.element('s'), w0 * weyl.element('s'))])
print("<P_s, P_{w0 t}> =", pairing[(weyl.element('s'), w0 * weyl.element('t'))])

# And anything in the ring expands exactly in the Schubert basis.
expansion = c.schubert_expand(parse_poly("x1^2 + x1 x2"),
                              s.generate_family("point"), half)
print("\nx1^2 + x1 x2 =",
      " + ".join(f"({coef}) P_{w.name}" for w, coef in expansion.items()
                 if not coef.is_zero()))
