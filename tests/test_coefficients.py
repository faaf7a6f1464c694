"""The coefficient contract of MPoly, on everything the paper computes:
every coefficient is an int, or a Fraction with denominator > 1, and never
a float."""

import random
from fractions import Fraction

import pytest

from g2schubert import cohomring, schubert, weyl
from g2schubert.exactalg import MPoly

SEED = 6067


def assert_contract(poly, where):
    for exp, coef in poly.items():
        assert type(coef) is int or (type(coef) is Fraction
                                     and coef.denominator > 1), (where, exp, coef)


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
