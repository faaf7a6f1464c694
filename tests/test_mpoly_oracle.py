"""MPoly arithmetic against an independent oracle: sympy's Poly over QQ.

mul, subs and exact_divide are checked on seeded random polynomials with
int and Fraction coefficients, over a spread of the variable universe.  A
single polynomial is a Groebner basis of the ideal it generates, so sympy's
remainder on division by g is zero exactly when g divides f; exact_divide
must then return the quotient, and raise NotDivisible otherwise.
"""

import random
from fractions import Fraction

import pytest

from g2schubert.exactalg import MPoly, NotDivisible, VARIABLES, exact_divide

sympy = pytest.importorskip("sympy", exc_type=ImportError)

SEED = 8191
NAMES = ("x1", "x2", "y1", "t1", "t2", "alpha", "c2F", "a")
SYMBOLS = {name: sympy.Symbol(name) for name in VARIABLES}
GENS = [SYMBOLS[name] for name in VARIABLES]
CASES = 25


def to_sympy(f: MPoly) -> "sympy.Poly":
    expr = sympy.Integer(0)
    for exps, c in f.named_terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in exps.items():
            term *= SYMBOLS[name] ** e
        expr += term
    return sympy.Poly(expr, *GENS, domain="QQ")


def random_poly(rng, max_terms=4, max_deg=3) -> MPoly:
    total = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, max_deg)):
            name = rng.choice(NAMES)
            exps[name] = exps.get(name, 0) + 1
        coef = rng.choice([rng.randint(-7, 7), Fraction(rng.randint(-7, 7),
                                                        rng.randint(2, 5))])
        total = total + MPoly.monomial(exps, coef)
    return total


def nonzero_poly(rng) -> MPoly:
    while True:
        g = random_poly(rng)
        if not g.is_zero():
            return g


def test_mul():
    rng = random.Random(f"{SEED}-mul")
    for _ in range(CASES):
        f, g = random_poly(rng), random_poly(rng)
        assert to_sympy(f * g) == to_sympy(f) * to_sympy(g), (f, g)


def test_subs():
    rng = random.Random(f"{SEED}-subs")
    for _ in range(CASES):
        f = random_poly(rng, max_deg=4)
        names = rng.sample(NAMES, 3)
        # a swap of two variables, as a simple reflection acts, and one
        # variable sent to a polynomial or a rational
        assignment = {names[0]: MPoly.var(names[1]), names[1]: MPoly.var(names[0]),
                      names[2]: rng.choice([random_poly(rng, 2, 2),
                                            Fraction(rng.randint(-3, 3), 2)])}
        image = {SYMBOLS[n]: to_sympy(MPoly.one() * v).as_expr()
                 for n, v in assignment.items()}
        expected = to_sympy(f).as_expr().subs(image, simultaneous=True)
        assert to_sympy(f.subs(assignment)) == sympy.Poly(expected, *GENS,
                                                          domain="QQ"), (f, assignment)


@pytest.mark.parametrize("denom", [2, 3, 54])
def test_subs_on_a_shared_denominator(denom):
    # every coefficient of f has denominator denom, so subs runs on the
    # integral multiple with L > 1; the images are linear, a monomial and 0
    rng = random.Random(f"{SEED}-subs-{denom}")
    for _ in range(CASES):
        f = MPoly.zero()
        while f.integral_multiple()[1] != denom:  # terms may cancel or merge
            f = sum((MPoly.monomial(dict.fromkeys(rng.sample(NAMES, rng.randint(0, 3)), 1),
                                    Fraction(denom * rng.randint(-9, 9) + 1, denom))
                     for _ in range(rng.randint(1, 4))), MPoly.zero())
        names = rng.sample(NAMES, 3)
        assignment = {
            names[0]: MPoly.var(names[1]) - 2 * MPoly.var(names[2]) + 1,
            names[1]: MPoly.monomial({names[2]: 2, "x1": 1}, -3),
            names[2]: 0,
        }
        image = {SYMBOLS[n]: to_sympy(MPoly.one() * v).as_expr()
                 for n, v in assignment.items()}
        expected = to_sympy(f).as_expr().subs(image, simultaneous=True)
        assert to_sympy(f.subs(assignment)) == sympy.Poly(expected, *GENS,
                                                          domain="QQ"), (f, assignment)


def test_exact_divide():
    rng = random.Random(f"{SEED}-divide")
    for _ in range(CASES):
        f, g = random_poly(rng), nonzero_poly(rng)
        q, r = sympy.div(to_sympy(f * g), to_sympy(g))
        assert r.is_zero and q == to_sympy(f), (f, g)
        assert exact_divide(f * g, g) == f, (f, g)


def test_not_divisible_agrees_with_sympy():
    rng = random.Random(f"{SEED}-not-divisible")
    refused = 0
    for _ in range(CASES):
        f, g, h = random_poly(rng), nonzero_poly(rng), nonzero_poly(rng)
        product = f * g + h
        q, r = sympy.div(to_sympy(product), to_sympy(g))
        if r.is_zero:
            assert to_sympy(exact_divide(product, g)) == q
        else:
            refused += 1
            with pytest.raises(NotDivisible):
                exact_divide(product, g)
    assert refused > CASES // 2
