"""Normal forms against an independent oracle: sympy's Groebner bases.

For every presentation, f - nf(f) must lie in the ideal of its rules, which
sympy decides from its own grevlex Groebner basis, and nf(f) must be
standard: every main exponent below its rule's power.  f is a few random
classes, and each border monomial b x_g (b a basis monomial, b x_g not one),
whose normal forms the associativity certificate reads as the columns of
its generator matrices.
"""

import functools
import random

import pytest

from g2schubert import cohomring as c
from g2schubert.exactalg import MPoly, VARIABLES

sympy = pytest.importorskip("sympy")

SEED = 4099


def _to_sympy(poly, symbols):
    return sum((sympy.Rational(coef.numerator, coef.denominator)
                * sympy.Mul(*(symbols[v] ** e for v, e in zip(VARIABLES, exp) if e))
                for exp, coef in poly.items()), sympy.Integer(0))


def _random_input(rng, p):
    """A few main monomials of degree up to 6, each times a coefficient and,
    where the presentation has base variables, usually a base monomial."""
    total = MPoly.zero()
    for _ in range(3):
        exps = {}
        for _ in range(rng.randint(0, 6)):
            v = rng.choice(p.main_vars)
            exps[v] = exps.get(v, 0) + 1
        if p.base_vars and rng.random() < 0.7:
            for _ in range(rng.randint(1, 2)):
                v = rng.choice(p.base_vars)
                exps[v] = exps.get(v, 0) + 1
        total = total + MPoly.monomial(exps, rng.randint(-5, 5))
    return total


@functools.cache
def _groebner(name):
    """sympy's grevlex Groebner basis of the presentation's rules, and the
    symbols of its variables."""
    p = c.get_presentation(name)
    gens = p.main_vars + p.base_vars
    symbols = {v: sympy.Symbol(v) for v in gens}
    rules = [symbols[r.var] ** r.power - _to_sympy(r.rhs, symbols)
             for r in p.rules]
    return sympy.groebner(rules, *[symbols[v] for v in gens], order="grevlex"), symbols


def _assert_normal_form(p, f, nf):
    """nf is standard and f - nf lies in the ideal of p's rules."""
    basis, symbols = _groebner(p.name)
    power = {VARIABLES.index(r.var): r.power for r in p.rules}
    for exp, _ in nf.items():
        assert all(exp[i] < n for i, n in power.items()), (f, exp)
    _, remainder = basis.reduce(sympy.expand(_to_sympy(f - nf, symbols)))
    assert remainder == 0, (f, nf)


@pytest.mark.parametrize("name", sorted(c.PRESENTATION_FACTORIES))
def test_normal_form_matches_groebner_oracle(name):
    p = c.get_presentation(name)
    rng = random.Random(f"{SEED}-{name}")
    for _ in range(4):
        f = _random_input(rng, p)
        _assert_normal_form(p, f, p.reduce_poly(f))


@pytest.mark.parametrize("name", sorted(c.PRESENTATION_FACTORIES))
def test_border_columns_match_groebner_oracle(name):
    # the associativity certificate takes its border columns from the
    # engine, and its proof forces them to be the true normal forms; this
    # is the engine's check at those keys along a path that shares no code
    # with it
    p = c.get_presentation(name)
    border = {c._shifted(b, g) for b in p.basis
              for g in range(len(p.main_vars))} - set(p.basis)
    for key in sorted(border):
        _assert_normal_form(p, p._monomial(key), p.reduce_monomial(key))
