#!/usr/bin/env python3
"""No positive polynomial system exists in x1, x2, but one does in
x1, x2, x3 = x1 - x2.

Nonnegativity of coefficients together with the divided-difference recursion
forces a unique chain up to degree 3 and then runs into an exact
contradiction (0 = 1/2) in degree 4.  In the enlarged variable set, every
point-family class does rewrite with nonnegative coefficients; both facts
are settled by exact rational linear programming.
"""

from g2schubert import schubert as s

cert = s.impossibility_certificate()
print("constraints on P = a x1^4 + b x1^3 x2 + c x1^2 x2^2 + d x1 x2^3 + e x2^4:")
for line in cert.equation_text():
    print("  ", line)
print("Farkas multipliers:", [str(m) for m in cert.farkas.multipliers])
print("certificate verifies:", cert.verify())
print("nonnegativity forces", ", ".join(s.FORCED_ZERO), "= 0,",
      "after which the equations derive 0 =", cert.linear.value)

print("\npositive rewrites of the point family (x3 = x1 - x2):")
fam = s.generate_family("point")
for w, poly in fam.entries():
    res = s.positive_rewrite(poly, w.length)
    assert res.feasible
    terms = " + ".join(
        f"({coef}) x1^{i} x2^{j} x3^{k}"
        for (i, j, k), coef in sorted(res.coefficients.items()))
    print(f"  {w.name:8s} {poly}")
    print(f"           = {terms}")

neg = s.positive_rewrite(s.X1 * s.X2 - s.X1 ** 2, 2)
print("\nx1 x2 - x1^2 positive in (x1, x2, x3)?", neg.feasible)
print("Farkas multipliers:", [str(m) for m in neg.farkas_multipliers])
