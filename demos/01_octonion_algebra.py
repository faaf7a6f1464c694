#!/usr/bin/env python3
"""Walk through the split octonion algebra built from a compatible form pair.

A trilinear form gamma and a bilinear form beta on a 7-space determine a
product on C = k + V; when the pair is compatible the norm is multiplicative
and we get the split octonions.  Everything below is exact rational
arithmetic.
"""

from fractions import Fraction

from g2schubert import octonion as o

f = o.basis_vec

# The standard pair in the isotropic basis f1..f7.
ctx = o.standard_forms("f")
print("gamma support:", ctx.gamma.support())
print("beta(f1,f7) =", ctx.beta(f(1), f(7)), "  beta(f4,f4) =", ctx.beta(f(4), f(4)))

# Products: f2 f3 = f1, and e is a two-sided identity.
print("\nf2 * f3 =", ctx.mul_imag(f(2), f(3)))
e = o.Oct.unit()
print("e * f5  =", ctx.mul(e, o.Oct.imag(f(5))))

# The norm is multiplicative: check one random-looking pair exactly.
u = o.Oct(Fraction(2), f(1) + f(4).scale(Fraction(1, 2)) + f(6))
v = o.Oct(Fraction(-1), f(2) + f(7).scale(Fraction(3)))
print("\nN(u) N(v) =", ctx.norm(u) * ctx.norm(v))
print("N(u v)    =", ctx.norm(ctx.mul(u, v)))

# Every element satisfies its quadratic minimal equation.
trace = ctx.bprime(u, e)
residue = ctx.mul(u, u) - u.scale(trace) + e.scale(ctx.norm(u))
print("minimal equation residue:", residue)

# The bilinear form is recoverable from gamma alone (wedge to the top form
# and divide by -3); this also detects degenerate trilinear forms.
bil = o.bryant_form(ctx.gamma)
print("\nBryant form equals beta:", bil.matrix == ctx.beta.matrix)
print("nondegenerate:", bil.is_nondegenerate())

# Compatibility is a biquadratic identity, so a finite spanning sample of
# pairs certifies it on the whole space; a failure would return the pair.
print("compatible on", len(o.spanning_sample()), "spanning pairs:",
      o.check_compatible(ctx.gamma, ctx.beta) is None)

# Each isotropic vector u has a 3-dimensional annihilator E_u; for the basis
# vectors these are spanned by basis vectors and cut out the 12 torus-fixed
# flags.
print("\nE_u triples:")
for i, triple in sorted(o.fixed_point_triples().items()):
    print(f"  E_f{i} = <f{triple[0]}, f{triple[1]}, f{triple[2]}>")
print("fixed flags:", o.fixed_points())

# The big Schubert cell: two polynomial rows whose octonion product vanishes
# identically in the six free parameters.
row1, row2 = o.big_cell_rows()
print("\nbig cell row1:", [str(x) for x in row1.coords])
print("big cell row2:", [str(x) for x in row2.coords])
print("row1 * row2 == 0:",
      ctx.mul(o.Oct.imag(row1), o.Oct.imag(row2)).is_zero())
