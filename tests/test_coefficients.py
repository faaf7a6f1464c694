"""The coefficient contract of MPoly and of the octonion layer's scalars, on
everything the paper computes: every rational is an int, or a Fraction with
denominator > 1, and never a float."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from g2schubert import cohomring, octonion, schubert, weyl
from g2schubert.exactalg import GaussRat, MPoly

SEED = 6067


def assert_exact(value, where):
    """value is an int, a Fraction with denominator > 1, or a GaussRat whose
    two parts are."""
    if isinstance(value, GaussRat):
        assert_exact(value.re, where)
        assert_exact(value.im, where)
    else:
        assert type(value) is int or (type(value) is Fraction
                                      and value.denominator > 1), (where, value)


def assert_contract(poly, where):
    for exp, coef in poly.items():
        assert_exact(coef, (where, exp))


@pytest.mark.parametrize("w0_word", ["ststst", "tststs"])
@pytest.mark.parametrize("kind", schubert.FAMILY_KINDS)
def test_family(kind, w0_word):
    fam = schubert.generate_family(kind, w0_word)
    for w, poly in fam.entries():
        assert_contract(poly, w.name)


def test_restrictions():
    fam = schubert.generate_family("eq-paper")
    for w in weyl.all_elements():
        for v in weyl.all_elements():
            poly = schubert.equivariant_restriction(fam[w], v)
            assert_contract(poly, (w.name, v.name))


def test_subs_gives_int_for_an_integral_coefficient():
    # subs runs on 6 f and divides by 6 once: y1 and the constant come out
    # integral, y2^2 keeps a denominator
    x1, x2, y1, y2 = (MPoly.var(n) for n in ("x1", "x2", "y1", "y2"))
    f = Fraction(1, 2) * x1 + Fraction(3, 2) * x2 ** 2 + Fraction(1, 3)
    g = f.subs({"x1": 2 * y1 + Fraction(10, 3), "x2": y2})
    assert_contract(g, "subs")
    assert [(type(g.coeff(m)), g.coeff(m)) for m in ({"y1": 1}, {})] == [
        (int, 1), (int, 2)]
    assert g.coeff({"y2": 2}) == Fraction(3, 2)


def _random_input(rng, p):
    """A few monomials in the presentation's variables; the coefficients
    have denominator 2 where the coefficient ring allows it, so integral
    ones arrive as Fractions."""
    denom = 1 if p.ring == "Z" else 2
    total = MPoly.zero()
    for _ in range(4):
        exps = {}
        for _ in range(rng.randint(0, 7)):
            v = rng.choice(p.main_vars + p.base_vars)
            exps[v] = exps.get(v, 0) + 1
        total = total + MPoly.monomial(exps, Fraction(rng.randint(-9, 9), denom))
    return total


@pytest.mark.parametrize("name", sorted(cohomring.PRESENTATION_FACTORIES))
def test_mult_table_and_normal_forms(name):
    p = cohomring.get_presentation(name)
    for pair, nf in p.mult_table().items():
        for key, coef in nf.coeffs.items():
            assert_contract(coef, (pair, key))
    rng = random.Random(f"{SEED}-{name}")
    for _ in range(10):
        f = _random_input(rng, p)
        nf = p.normal_form(f)
        for key, coef in nf.coeffs.items():
            assert_contract(coef, (str(f), key))
        assert_contract(nf.as_poly(), str(f))


def assert_vec(vec, where):
    for i, x in enumerate(vec.coords):
        assert_exact(x, (where, i))


def assert_oct(u, where):
    assert_exact(u.re, where)
    assert_vec(u.im, where)


def assert_forms(gamma, beta, where):
    for triple, c in gamma.coeffs.items():
        assert_exact(c, (where, "gamma", triple))
    for i, row in enumerate(beta.matrix):
        for j, x in enumerate(row):
            assert_exact(x, (where, "beta", i, j))


# The octonion layer stores its rationals by the same rule, and applies a
# non-integral constant such as 1/2 by exact division, so integral inputs
# give exact results: ints, or Fractions such as f1 f7 = 1/2 e + 1/2 f4.
@pytest.mark.parametrize("basis", ["f", "e"])
def test_octonion_forms_and_products(basis):
    ctx = octonion.standard_forms(basis)
    assert_forms(ctx.gamma, ctx.beta, basis)
    assert_forms(ctx.gamma, octonion.bryant_form(ctx.gamma), "bryant")
    vecs = [octonion.basis_vec(i) for i in range(1, 8)]
    units = [octonion.Oct.unit()] + [octonion.Oct.imag(v) for v in vecs]
    units += [u.scale(3) for u in units]
    for a, u in enumerate(units):
        assert_oct(u, a)
        assert_exact(ctx.norm(u), ("norm", a))
        for b, v in enumerate(units):
            assert_oct(ctx.mul(u, v), ("mul", a, b))
    for (i, u), (j, v) in combinations(enumerate(vecs), 2):
        phi = ctx.gamma.functional(u, v)
        assert_vec(ctx.beta.dagger(phi), ("dagger", i, j))
        assert_vec(ctx.beta.dagger([3 * c for c in phi]), ("dagger 3", i, j))


def test_octonion_kernels_and_basis_change():
    ctx = octonion.standard_forms("f")
    for i in (1, 2, 3, 5, 6, 7):
        u = octonion.basis_vec(i)
        kernel = octonion.isotropic_kernel(ctx, u)
        for v in kernel:
            assert_vec(v, ("kernel", i))
        for v, w in combinations(kernel, 2):
            assert_exact(octonion.cross_lambda(ctx, u, v, w), ("lambda", i))
    for j in range(1, 8):
        assert_vec(octonion.to_e_basis(octonion.basis_vec(j)), ("f in e", j))
    assert_forms(*octonion.push_forms_to_f(), "pushed")
    third = GaussRat(1) / GaussRat(3)
    assert third == Fraction(1, 3)
    assert type(third.re) is Fraction and type(third.im) is int
