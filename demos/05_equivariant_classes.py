#!/usr/bin/env python3
"""Equivariant classes: the Giambelli substitution y -> t, integrality, and
the 1/27 phenomenon.

The equivariant class of a Schubert variety is the same polynomial with the
flag roots replaced by torus weights.  These classes reduce integrally in
the equivariant presentation and form a basis over Z[t1, t2]; a natural
half-integral combination of them is integral only after scaling by 27.
"""

from fractions import Fraction
from math import prod

from g2schubert import cohomring as c
from g2schubert import schubert as s
from g2schubert import weyl
from g2schubert.exactalg import MPoly

fam = s.generate_family("eq-paper")
print("equivariant classes (x and t mixed):")
for w, p in fam.entries()[:6]:
    print(f"  {w.name:6s} {p}")

eq = c.fl_equivariant()
print("\nx2^2 rewrites to:", [str(r.rhs) for r in eq.rules][0])

# Integral reduction: no denominators survive, even though the generating
# top class has a 1/2.
nf = eq.normal_form(fam["sts"])
print("\nnormal form of the length-3 class:")
for key, coef in sorted(nf.coeffs.items()):
    mono = " ".join(f"{v}^{e}" if e > 1 else v
                    for v, e in zip(eq.main_vars, key) if e) or "1"
    print(f"  {mono:12s} {coef}")

# x1 itself is an integral combination: x1 = P_s + t1 P_id.
expansion = c.schubert_expand(c.X1, fam, eq)
print("\nx1 =", " + ".join(f"({coef}) P_{w.name}"
                           for w, coef in expansion.items()
                           if not coef.is_zero()))

# Localization fingerprint: restricting the class of w at the fixed point
# of v (substitute the torus weights of the tautological lines) vanishes
# unless w <= v in Bruhat order, and the diagonal entry for the longest
# element is (-1)^6 times the product of its inversion roots, which are
# the six positive roots.
w0 = weyl.longest()
restriction = s.equivariant_restriction(fam[w0.word], w0)
print("\nrestriction of the top class at its own fixed point:")
print("  ", restriction)
roots = weyl.inversion_roots(w0)
print("positive roots:", ", ".join(str(root) for root in roots))
print("signed root product equals the restriction:",
      (-1) ** w0.length * prod(roots) == restriction)
print("upper-triangular support:",
      all(s.equivariant_restriction(fam[w.word], v).is_zero()
          for w in weyl.all_elements() for v in weyl.all_elements()
          if not weyl.bruhat_leq(w, v)))

# Graham's combination: half the sum of the xi and eta cube products is
# -1/27 (3 P_tst + 3(t1+t2) P_st + (t1+t2)(2t1-t2) P_t) exactly, so the
# class is integral only after multiplying by 27.
half_cubes, combo27 = s.graham_integrality_identity()
eq_graham = s.generate_family("eq-graham")
combo = sum((coef * eq_graham[name] for name, coef in combo27.items()),
            MPoly.zero())
print("\ncube-sum identity holds:", half_cubes == Fraction(-1, 27) * combo)


def integral(coefs):
    return all(c.denominator == 1 for f in coefs for _, c in f.terms())


print("27 x class has integral coefficients:", integral(combo27.values()))
print("the class itself integral:",
      integral(Fraction(1, 27) * coef for coef in combo27.values()))
for name, coef in combo27.items():
    print(f"  27-scaled coefficient on {name}: {coef}")
