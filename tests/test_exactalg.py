import ast
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import g2schubert
from g2schubert.exactalg import (
    GaussRat,
    MPoly,
    NotDivisible,
    PolySyntaxError,
    UnboundVariable,
    UnknownVariable,
    exact_divide,
    integral_multiple,
    lp_feasible,
    parse_poly,
    solve_linear,
)
from g2schubert.exactalg import parse
from g2schubert.exactalg.mpoly import VARIABLES, _GUARD, addmul, key_terms
from g2schubert.exactalg.scalars import quotient

X1 = MPoly.var("x1")
X2 = MPoly.var("x2")
Y1 = MPoly.var("y1")

RNG_SEED = 90125


def rand_poly(rng, names=("x1", "x2"), max_deg=4, terms=5):
    total = MPoly.zero()
    for _ in range(terms):
        exps = {}
        budget = rng.randint(0, max_deg)
        for name in names:
            e = rng.randint(0, budget)
            if e:
                exps[name] = e
                budget -= e
        total = total + MPoly.monomial(
            exps, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return total


def naive_mul(f, g):
    # independent distributive-expansion oracle
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return MPoly(out)


def naive_power(f, n):
    # square-and-multiply over naive_mul, the generic path of a power
    result = MPoly.one()
    while n:
        if n & 1:
            result = naive_mul(result, f)
        n >>= 1
        if n:
            f = naive_mul(f, f)
    return result


def reference_divide(f, g, steps=None):
    """exact_divide as a scan of max(rem) per step and one addmul of all of
    g per quotient term, the loop before the heap.  steps, if given,
    collects per step 'q' (a quotient term), 'zero' (a zero sum skipped) or
    'between' (a quotient term whose multiple of g put a new key below the
    leading one and above some other key of the remainder)."""
    g_t = key_terms(g)
    g_exp = max(g_t)
    g_coef = g_t[g_exp]
    out = {}
    rem = dict(key_terms(f))
    while rem:
        r_exp = max(rem)
        r_coef = rem[r_exp]
        if not r_coef:
            del rem[r_exp]
            if steps is not None:
                steps.append("zero")
            continue
        q_exp = r_exp - g_exp
        if q_exp & _GUARD:
            raise NotDivisible(f"({f}) is not divisible by ({g})")
        q_coef = quotient(r_coef, g_coef)
        out[q_exp] = q_coef
        if steps is not None:
            new = [q_exp + exp for exp in g_t if q_exp + exp not in rem]
            low = min(rem)
            steps.append("between" if any(k > low for k in new) else "q")
        addmul(rem, g, -q_coef, q_exp)
        del rem[r_exp]
    return MPoly(out)


def outcome(divide, *args):
    """The quotient, or the NotDivisible message."""
    try:
        return divide(*args)
    except NotDivisible as err:
        return str(err)


def is_stored_exactly(f):
    # an integral coefficient is an int, any other a Fraction
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for _, c in f.items())


# one-term polynomials: int, negative and Fraction constants, and monomials
# with int and Fraction coefficients
ONE_TERMS = [
    MPoly.const(3), MPoly.const(-1), MPoly.const(Fraction(-2, 3)),
    X1, -5 * X2, MPoly.monomial({"x1": 2, "y1": 1}, Fraction(3, 4)),
    MPoly.monomial({"x2": 1, "g": 3}, Fraction(-1, 2)),
    MPoly.monomial({"c3Q": 2}, 2),
]


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X1 + X2) * (X1 - X2) == X1 ** 2 - X2 ** 2

    def test_additive_identity(self):
        f = X1 ** 2 + 3 * X2
        assert f + MPoly.zero() == f

    def test_mul_against_naive_oracle(self):
        rng = random.Random(RNG_SEED)
        for _ in range(100):
            f, g = rand_poly(rng), rand_poly(rng)
            assert f * g == naive_mul(f, g)
        # a product of two one-term operands is one integer add
        for f in ONE_TERMS:
            for g in ONE_TERMS:
                assert f * g == naive_mul(f, g) and is_stored_exactly(f * g)

    def test_ring_axioms_random_triples(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(30):
            f, g, h = (rand_poly(rng, ("x1", "x2", "y1")) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f
            assert f * g == g * f

    def test_zero_terms_never_stored(self):
        f = X1 - X1
        assert f.is_zero() and len(f) == 0
        g = X1 ** 2 + Fraction(1, 2) * X2 - 3
        assert (g - g).is_zero() and len(g - g) == 0
        # the x2 terms cancel and the x1 difference is an integral Fraction
        d = (Fraction(3, 2) * X1 + Fraction(1, 2) * X2) - Fraction(1, 2) * (X1 + X2)
        assert d == X1 and [type(c) for _, c in d.items()] == [int]

    def test_power(self):
        assert (X1 + 1) ** 3 == X1 ** 3 + 3 * X1 ** 2 + 3 * X1 + 1
        # a power of one term is one integer multiply
        for f in ONE_TERMS + [X1 + 1]:
            for n in (0, 1, 2, 3, 7, 40):
                assert f ** n == naive_power(f, n) and is_stored_exactly(f ** n)
        for f, n in [(X1, 2 ** 63 - 1), (-X1 * X2, 2 ** 62 - 1),
                     (MPoly.const(-1), 2 ** 70 + 1)]:
            assert f ** n == naive_power(f, n)

    @pytest.mark.parametrize("build", [
        lambda c: MPoly({(0,) * len(VARIABLES): c}),
        MPoly.const,
        lambda c: MPoly.monomial({"x1": 2}, c),
    ], ids=["init", "const", "monomial"])
    def test_float_coefficient_rejected(self, build):
        # Fraction(0.1) would be exact only for the binary float, not 1/10
        for value in (0.1, 2.0, 0.0):
            with pytest.raises(TypeError):
                build(value)
        # an integral coefficient is stored as an int, any other as a Fraction
        for value, kind in ((Fraction(1, 10), Fraction), (3, int),
                            (Fraction(6, 2), int)):
            (_, coef), = build(value).items()
            assert coef == value and type(coef) is kind


class TestSubtract:
    @staticmethod
    def pairs():
        # the file's random polynomials, with Fraction coefficients and as
        # their integral multiples
        rng = random.Random(RNG_SEED + 12)
        for _ in range(40):
            f, g = (rand_poly(rng, ("x1", "x2", "y1")) for _ in range(2))
            yield f, g
            yield f.integral_multiple()[0], g.integral_multiple()[0]

    def test_difference_is_the_sum_with_the_negation(self):
        for f, g in self.pairs():
            assert f - g == f + (-g)
            assert is_stored_exactly(f - g)

    def test_operands_are_not_changed(self):
        for f, g in self.pairs():
            f_items, g_items = sorted(f.items()), sorted(g.items())
            f - g
            g - f
            assert sorted(f.items()) == f_items
            assert sorted(g.items()) == g_items

    def test_scalars_on_either_side(self):
        half = Fraction(1, 2)
        f = X1 - half * Y1 + 2
        assert 3 - f == -X1 + half * Y1 + 1
        assert f - half == X1 - half * Y1 + Fraction(3, 2)
        assert half - f == -X1 + half * Y1 - Fraction(3, 2)
        assert 2 - (X1 + 2) == -X1 and len(2 - (X1 + 2)) == 1
        for d in (3 - f, f - half, half - f):
            assert is_stored_exactly(d)
        for bad in (0.5, "x1", None):
            with pytest.raises(TypeError):
                f - bad
            with pytest.raises(TypeError):
                bad - f


class TestExactDivide:
    def test_difference_of_squares(self):
        assert exact_divide(X1 ** 2 - X2 ** 2, X1 - X2) == X1 + X2

    def test_zero_dividend(self):
        assert exact_divide(MPoly.zero(), X1 - X2).is_zero()

    def test_integral_quotient_stays_int(self):
        # a leading coefficient of -1, as on a divided-difference root
        q = exact_divide((3 * X1 + 5 * X2) * (-X1 + 2 * X2), -X1 + 2 * X2)
        assert q == 3 * X1 + 5 * X2
        assert all(type(c) is int for _, c in q.items())
        half = exact_divide(X1 ** 2 - X2 ** 2, 2 * X1 - 2 * X2)
        assert half == Fraction(1, 2) * (X1 + X2)
        # a Fraction leading coefficient, and a quotient that stays int
        g = Fraction(1, 2) * X1 + Fraction(3, 2) * Y1 - MPoly.var("t1")
        q = 2 * X1 ** 2 - 5 * X2 * Y1 + 7
        assert exact_divide(q * g, g) == q
        assert all(type(c) is int for _, c in exact_divide(q * g, g).items())
        assert outcome(reference_divide, q * g, g) == q

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_divide(X1 ** 2 + X2, X1 - X2)

    def test_operands_are_not_changed(self):
        # the remainder is a copy of f's terms, updated in place
        for f, g in [(X1 ** 2 - X2 ** 2, X1 - X2),
                     (X1 ** 2 + X2, X1 - X2),
                     (Fraction(1, 3) * (X1 + Y1) * (X1 - 2 * X2), 2 * X1 - 4 * X2)]:
            f_items, g_items = sorted(f.items()), sorted(g.items())
            try:
                exact_divide(f, g)
            except NotDivisible:
                pass
            assert sorted(f.items()) == f_items
            assert sorted(g.items()) == g_items

    def test_a_cancelled_key_that_lt_g_does_not_divide_is_skipped(self):
        # x1^2 - x2^2 by x1 - x2 leaves x2^2 at 0 in the remainder, and x1
        # does not divide x2^2; with Fraction coefficients the 0 is a
        # Fraction sum
        half = Fraction(1, 2)
        assert exact_divide(half * (X1 ** 2 - X2 ** 2), X1 - X2) == half * (X1 + X2)
        third = Fraction(2, 3)
        assert (exact_divide(X1 ** 2 - X2 ** 2, third * (X1 - X2))
                == Fraction(3, 2) * (X1 + X2))

    def test_antisymmetric_part_always_divisible(self):
        # oracle: multiply the quotient back
        rng = random.Random(RNG_SEED + 2)
        for _ in range(50):
            f = rand_poly(rng, max_deg=6, terms=7)
            swapped = f.subs({"x1": X2, "x2": X1})
            q = exact_divide(f - swapped, X1 - X2)
            assert q * (X1 - X2) == f - swapped

    def test_random_product_division(self):
        rng = random.Random(RNG_SEED + 3)
        for _ in range(25):
            f, g = rand_poly(rng), rand_poly(rng)
            if g.is_zero():
                continue
            assert exact_divide(f * g, g) == f

    @staticmethod
    def assert_matches_reference(f, g):
        """exact_divide(f, g) gives the reference's quotient, stored exactly,
        or the same NotDivisible; the reference's steps are returned."""
        steps = []
        expected = outcome(reference_divide, f, g, steps)
        got = outcome(exact_divide, f, g)
        assert got == expected
        if isinstance(got, MPoly):
            assert is_stored_exactly(got) and got * g == f
        return steps

    def test_tails_of_three_to_five_terms_match_the_reference(self):
        # g (g's leading term - g's tail) is lead^2 - tail^2: the cross terms
        # cancel, and the division puts them back as new keys below the
        # remainder's leading key and above others of its keys
        rng = random.Random(RNG_SEED + 10)
        names = ("x1", "x2", "y1", "t1", "v")
        interleaved = not_divisible = 0
        for _ in range(40):
            g = MPoly.zero()
            while not 3 <= len(g) <= 5:
                g = rand_poly(rng, names, max_deg=3, terms=rng.randint(3, 5))
            lead = MPoly(dict([g.leading_term()]))
            f = rand_poly(rng, names, max_deg=2, terms=3) * (2 * lead - g) * g
            for dividend in (f, f + rand_poly(rng, names, max_deg=2, terms=2)):
                steps = self.assert_matches_reference(dividend, g)
                interleaved += "between" in steps
                not_divisible += isinstance(outcome(exact_divide, dividend, g), str)
        assert interleaved >= 70 and not_divisible >= 30

    def test_a_monomial_divisor_has_an_empty_tail(self):
        rng = random.Random(RNG_SEED + 11)
        for g in (MPoly.monomial({"x1": 1, "y1": 2}, 3),
                  MPoly.monomial({"t1": 1}, Fraction(-2, 5)), MPoly.const(7)):
            for _ in range(10):
                f = rand_poly(rng, ("x1", "x2", "y1", "t1"), max_deg=4, terms=5)
                self.assert_matches_reference(f * g, g)
                self.assert_matches_reference(f * g + X2, g)
        assert exact_divide(6 * X1 ** 2 * Y1, 3 * X1) == 2 * X1 * Y1

    def test_not_divisible_after_two_quotient_terms(self):
        # x1^2 + x1 x2 - x1 y1 - x2 y1 + y1^2 by x1 - y1: the quotient terms
        # x1 and x2 cancel x1 y1 and x2 y1 to zero sums, and x1 does not
        # divide y1^2
        f = X1 ** 2 + X1 * X2 - X1 * Y1 - X2 * Y1 + Y1 ** 2
        g = X1 - Y1
        steps = self.assert_matches_reference(f, g)
        assert isinstance(outcome(exact_divide, f, g), str)
        assert steps == ["q", "q", "zero", "zero"]

    def test_zero_sums_in_the_middle_of_the_division(self):
        # each quotient term cancels a key that a later one reaches, in int
        # and in Fraction arithmetic; the zero sums are popped between the
        # quotient terms
        for c in (1, Fraction(1, 3)):
            f = c * (X1 ** 3 - X2 ** 3) * (X1 + Y1)
            g = X1 - X2
            steps = self.assert_matches_reference(f, g)
            first, last = steps.index("zero"), len(steps) - 1 - steps[::-1].index("q")
            assert first < last
            assert exact_divide(f, g) == c * (X1 ** 2 + X1 * X2 + X2 ** 2) * (X1 + Y1)


class TestSubstitute:
    def test_shift(self):
        v = MPoly.var("v")
        assert X1.subs({"x1": X1 + v}) ** 2 == X1 ** 2 + 2 * X1 * v + v ** 2

    def test_identity_assignment(self):
        f = X1 ** 2 - 3 * X2 + 1
        assert f.subs({"x1": X1, "x2": X2}) == f

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            (X1 + X2).subs({"zz": X1})

    def test_homomorphic(self):
        rng = random.Random(RNG_SEED + 4)
        sub = {"x1": X1 + X2, "x2": X1 - 2 * X2}
        for _ in range(20):
            f, g = rand_poly(rng), rand_poly(rng)
            assert (f * g).subs(sub) == f.subs(sub) * g.subs(sub)

    def test_linear_change_of_variables_inverts(self):
        # xi = (1/3)(2x1 - x2), (1/3)(-x1 + 2x2); inverse 2x1 + x2, x1 + 2x2
        fwd = {"x1": Fraction(1, 3) * (2 * X1 - X2),
               "x2": Fraction(1, 3) * (-X1 + 2 * X2)}
        back = {"x1": 2 * X1 + X2, "x2": X1 + 2 * X2}
        rng = random.Random(RNG_SEED + 5)
        for _ in range(20):
            f = rand_poly(rng)
            assert f.subs(fwd).subs(back) == f


class TestCanonicalForm:
    def test_graded_lex_print_order(self):
        f = X2 ** 2 + X1 * X2 + X1 + 1
        assert str(f) == "x1 x2 + x2^2 + x1 + 1"

    def test_print_parse_roundtrip(self):
        rng = random.Random(RNG_SEED + 6)
        for _ in range(40):
            f = rand_poly(rng, ("x1", "x2", "y1", "alpha"), 5, 6)
            assert parse_poly(str(f)) == f

    def test_print_parse_roundtrip_past_fixed_budget(self):
        # each printed term has ten powers of one term, about 270 term
        # products in all: 1176 terms spend more than the fixed 300 000
        high = MPoly.monomial(dict.fromkeys(
            ("x1", "x2", "t1", "t2", "v", "alpha", "h", "f", "a", "b"), 8191))
        f = high * (MPoly.var("y1") + MPoly.var("y2") + 1) ** 47
        assert parse_poly(str(f)) == f

    def test_print_parse_roundtrip_past_fixed_coefficient_budget(self):
        # a printed coefficient is a literal and grows nothing, however many
        # bits the literals hold together
        f = sum((3 ** (4000 + i) * MPoly.var("x1") ** i for i in range(40)),
                MPoly.zero())
        assert sum(c.bit_length() for _, c in f.items()) > 100_000
        assert parse_poly(str(f)) == f

    def test_coefficient_growth_is_refused_before_it_is_computed(self):
        # MPoly.__pow__ bounds only the exponent; the parser charges the
        # coefficient growth of a power of one term as of any other
        for text, pos in [("x1^7*3^9999999", 7), ("(2^60000)^2", 10),
                          ("(3^40000 + x1)^3", 15), ("2^50000 * 2^40000", 8),
                          ("(1/2)^1099511627776", 6),
                          ("(2*x1)^1099511627776", 7)]:
            with pytest.raises(PolySyntaxError, match="coefficient bits") as err:
                parse_poly(text)
            assert err.value.pos == pos
        # 2^100001 has height 100000, the fixed budget
        assert parse_poly("2^100001") == MPoly.const(2 ** 100001)

    def test_products_of_large_coefficients_are_charged_by_size(self):
        # 250 000 products of two 33 000-bit integers, and 160 000 for the
        # square: inside the coefficient-bit budget, and counted as only
        # 262 452 and 240 200 term products before size was charged, but
        # tens of seconds of work
        inner = "+".join(f"x1^{i}" for i in range(500))
        product = f"(2^33000*({inner}))*(2^33000*({inner}))"
        square = "(2^33000*(" + "+".join(f"x1^{i}" for i in range(400)) + "))^2"
        assert len(product) == 6803
        for text, pos, culprit in [
                (product, 3401, "product of a 500-term and a 500-term polynomial"),
                (square, len(square) - 1, "power ^2 of a 400-term polynomial")]:
            start = time.perf_counter()
            with pytest.raises(PolySyntaxError) as err:
                parse_poly(text)
            assert time.perf_counter() - start < 2
            assert str(err.value) == (f"{culprit} would take this input past "
                                      f"300000 term products (at offset {pos})")
        # the same products of small coefficients, and one product of large
        # ones, are cheap enough to run
        small = parse_poly(product.replace("2^33000", "2"))
        assert small.coeff({"x1": 499}) == 4 * 500
        assert parse_poly("2^33000 * 3^20000") == MPoly.const(2 ** 33000 * 3 ** 20000)

    def test_a_large_coefficient_times_one_is_charged_by_size(self):
        # 250 000 products of a 99 000-bit integer by 1, in either order:
        # each costs about as much as 15 to 20 products of small integers
        inner = "(" + "+".join(f"x1^{i}" for i in range(500)) + ")"
        for bits in (99000, 33000):
            big = f"(2^{bits}*{inner})"
            for text, pos in [(f"{big}*{inner}", len(big)),
                              (f"{inner}*{big}", len(inner))]:
                start = time.perf_counter()
                with pytest.raises(PolySyntaxError, match="past 300000 term "
                                   "products") as err:
                    parse_poly(text)
                assert time.perf_counter() - start < 2
                assert err.value.pos == pos
        assert len(f"(2^99000*{inner})*{inner}") == 6793
        # a product with 1000-bit coefficients on one side still parses
        few = "(" + "+".join(f"x1^{i}" for i in range(50)) + ")"
        f = parse_poly(f"(2^1000*{few})*{few}")
        assert f.coeff({"x1": 49}) == 50 * 2 ** 1000

    def test_a_literal_past_the_int_string_limit_is_refused(self, monkeypatch):
        limit = 4300
        monkeypatch.setattr(parse, "_max_str_digits", lambda: limit)
        long = "1" * (limit + 1)
        for text, pos in [(long, 0), (f"x1 + 2/{long}", 7), (f"x1^{long}", 3)]:
            with pytest.raises(PolySyntaxError, match=f"literal of {limit + 1} "
                               "digits is longer than the 4300") as err:
                parse_poly(text)
            assert err.value.pos == pos
        # a coefficient of exactly the limit prints, and parses back
        f = MPoly.const(Fraction(10 ** limit - 1, 10 ** (limit - 1) + 1)) * X1
        assert parse_poly(str(f)) == f

    def test_split_join_inverse(self):
        rng = random.Random(RNG_SEED + 7)
        for names in [(), ("x2",), ("x1", "x2"), ("alpha", "x1"), ("y1", "x1", "x2")]:
            for _ in range(10):
                f = rand_poly(rng, ("x1", "x2", "y1", "alpha"), 5, 6)
                parts = f.split(names)
                assert all(len(key) == len(names) for key in parts)
                assert MPoly.join(names, parts) == f
                # the rest of a term holds no exponent of names
                zero = (0,) * len(names)
                assert all(set(MPoly(group).split(names)) == {zero}
                           for group in parts.values())

    def test_named_terms(self):
        f = 3 * X1 ** 2 * Y1 - X2 + 1
        assert list(f.named_terms()) == [({"x1": 2, "y1": 1}, 3), ({"x2": 1}, -1), ({}, 1)]

    def test_parse_examples(self):
        assert parse_poly("1/2 x1^5 x2") == Fraction(1, 2) * X1 ** 5 * X2
        assert parse_poly("(x1+x2)^2 - x1^2 - x2^2") == 2 * X1 * X2
        assert parse_poly("2*x1 + -3") == 2 * X1 - 3

    def test_a_power_of_zero(self):
        # the zero polynomial has no terms, so its powers cost nothing
        for text, value in [("0^2", 0), ("(x1 - x1)^3", 0), ("0^0", 1), ("(0)^0 x1", X1)]:
            assert parse_poly(text) == value

    def test_parse_errors_carry_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("x1 + + x2 ^")
        assert err.value.pos >= 0
        with pytest.raises(UnknownVariable):
            parse_poly("x1 + zz")

    def test_all_variables_parse(self):
        for name in VARIABLES:
            assert parse_poly(name) == MPoly.var(name)


class TestPackedLayout:
    """Each exponent vector is one int inside mpoly; the accessors must
    still behave as if it were the tuple they return."""

    BIG = 2 ** 63

    @staticmethod
    def polys():
        rng = random.Random(RNG_SEED + 8)
        names = ("x1", "x2", "y1", "alpha", "c3Q", "a", "g")
        for _ in range(40):
            f = rand_poly(rng, names, max_deg=rng.choice((3, 9, 60)), terms=9)
            yield f * MPoly.monomial({rng.choice(names): rng.randint(0, 2 ** 40)})

    def test_terms_are_graded_lex_sorted_items(self):
        for f in self.polys():
            expected = sorted(f.items(), key=lambda t: (sum(t[0]), t[0]),
                              reverse=True)
            assert list(f.terms()) == expected
            assert f.leading_term() == expected[0]
            assert all(len(exp) == len(VARIABLES) for exp, _ in expected)

    def test_tuple_keyed_round_trip(self):
        for f in self.polys():
            assert MPoly(dict(f.items())) == f

    @pytest.mark.parametrize("f,g", [
        (X1 * X2 ** 3, X1 ** 2),
        (X2 ** 5, X1 * X2),
    ], ids=["x1-borrows", "x1-borrows-below-x2"])
    def test_borrow_without_degree_borrow_is_not_divisible(self, f, g):
        # the total degree of f exceeds g's, but an exponent does not
        with pytest.raises(NotDivisible):
            exact_divide(f, g)

    @pytest.mark.parametrize("build", [
        lambda: MPoly.var("g") ** (2 ** 62) * MPoly.var("g") ** (2 ** 62),
        lambda: X1 ** (2 ** 63 - 1) * (3 * X2),
        lambda: X2 ** (2 ** 63),
        lambda: (X1 * X2) ** (2 ** 62),
        lambda: (-X1) ** (2 ** 64),
        lambda: MPoly.join(("x1",), {(2 ** 62,): X1 ** (2 ** 62)}),
        lambda: MPoly.join(("x1",), {(2 ** 63,): MPoly.one()}),
        lambda: MPoly({(2 ** 63,) + (0,) * (len(VARIABLES) - 1): 1}),
    ], ids=["mul", "mul-two-variables", "pow", "pow-of-a-product", "pow-huge",
            "join", "join-key", "init"])
    def test_exponent_two_to_the_63_overflows(self, build):
        with pytest.raises(OverflowError, match="exponent too large"):
            build()

    def test_largest_exponent_does_not_wrap(self):
        top = X1 ** (self.BIG - 1)
        assert top.leading_term() == ((self.BIG - 1,) + (0,) * (len(VARIABLES) - 1), 1)
        assert top.degree() == self.BIG - 1
        assert exact_divide(top, X1 ** (2 ** 62)) == X1 ** (2 ** 62 - 1)
        # a product whose degrees sum to 2**63 - 1 passes the guard
        below = X1 ** (2 ** 62 - 1) * (-X2) ** (2 ** 62)
        assert below == naive_mul(X1 ** (2 ** 62 - 1), X2 ** (2 ** 62))
        assert below.degree() == self.BIG - 1


class TestLinear:
    def test_inconsistent_pair(self):
        res = solve_linear([[1], [1]], [1, 2])
        assert not res.consistent
        assert res.verify([[1], [1]], [1, 2])

    def test_simple_solve(self):
        res = solve_linear([[1, 1], [1, -1]], [2, 0])
        assert res.consistent
        assert res.vector == [Fraction(1), Fraction(1)]

    def test_certificates_verify_by_multiplication(self):
        rng = random.Random(RNG_SEED + 7)
        for _ in range(20):
            m = rng.randint(2, 5)
            n = rng.randint(1, 4)
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                    for _ in range(m)]
            rhs = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
            res = solve_linear(rows, rhs)
            if res.consistent:
                for row, b in zip(rows, rhs):
                    assert sum(r * x for r, x in zip(row, res.vector)) == b
            else:
                assert res.verify(rows, rhs)


@pytest.mark.parametrize("solve", [solve_linear, lp_feasible])
def test_matrix_and_rhs_must_have_one_row_each(solve):
    with pytest.raises(ValueError, match="matrix and rhs size mismatch"):
        solve([[1, 0], [0, 1]], [1])


class TestLp:
    def test_simplex_feasible(self):
        res = lp_feasible([[1, 1]], [1])
        assert res.feasible and res.verify([[1, 1]], [1])

    def test_simplex_infeasible(self):
        res = lp_feasible([[1]], [-1])
        assert not res.feasible and res.verify([[1]], [-1])

    def test_degenerate_system(self):
        res = lp_feasible([[1, -1], [2, -2]], [0, 0])
        assert res.feasible and res.verify([[1, -1], [2, -2]], [0, 0])

    def test_random_problems_exact(self):
        rng = random.Random(RNG_SEED + 8)
        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(m)]
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            res = lp_feasible(rows, rhs)
            assert res.verify(rows, rhs)


class TestGaussRat:
    def test_i_squared(self):
        i = GaussRat(0, 1)
        assert i * i == GaussRat(-1)

    def test_conjugation_involution(self):
        z = GaussRat(Fraction(2, 3), Fraction(-1, 2))
        assert z.conjugate().conjugate() == z

    def test_division(self):
        z = GaussRat(1, 1)
        assert z / z == GaussRat(1)
        assert (GaussRat(2) / GaussRat(0, 1)) == GaussRat(0, -2)


class TestIntegralMultiple:
    def test_values_scale_by_the_least_common_denominator(self):
        values = [Fraction(1, 6), 2, Fraction(-3, 4), Fraction(8, 4)]
        ints, scale = integral_multiple(values)
        assert scale == 12 and ints == [2, 24, -9, 24]
        assert all(type(n) is int for n in ints)
        # least: no proper divisor of the scale clears every denominator
        assert all(any(Fraction(x) * d % 1 for x in values)
                   for d in range(1, scale) if scale % d == 0)

    def test_integral_values_keep_scale_one(self):
        assert integral_multiple([3, Fraction(4, 2), 0]) == ([3, 2, 0], 1)
        assert integral_multiple([]) == ([], 1)

    @pytest.mark.parametrize("draw", [[1, 0.5], [Fraction(1, 3), 2.0]])
    def test_a_float_raises(self, draw):
        with pytest.raises(TypeError):
            integral_multiple(draw)

    def test_an_integral_polynomial_is_its_own_multiple(self):
        f = 3 * X1 ** 2 - X2 + 7
        g, scale = f.integral_multiple()
        assert g is f and scale == 1
        assert MPoly.zero().integral_multiple() == (MPoly.zero(), 1)

    def test_polynomial_scale_is_the_least_common_denominator(self):
        rng = random.Random(RNG_SEED)
        for _ in range(20):
            f = rand_poly(rng)
            g, scale = f.integral_multiple()
            assert g == scale * f
            assert all(type(c) is int for _, c in g.items())
            assert all(any(c % d for _, c in g.items())
                       for d in range(2, scale + 1) if scale % d == 0)


@pytest.mark.parametrize("scalar, value", [
    (MPoly.const(2), 2),
    (MPoly.zero(), 0),
    (MPoly.const(Fraction(1, 2)), Fraction(1, 2)),
    (MPoly.const(Fraction(-6, 3)), -2),
    (GaussRat(3), 3),
    (GaussRat(Fraction(-1, 3)), Fraction(-1, 3)),
    (GaussRat(0), 0),
], ids=["MPoly-int", "MPoly-zero", "MPoly-Fraction", "MPoly-integral-Fraction",
        "GaussRat-int", "GaussRat-Fraction", "GaussRat-zero"])
def test_equal_scalars_hash_equal(scalar, value):
    # Python's rule: a == b implies hash(a) == hash(b), so a set or dict key
    # holds a constant and its value once
    assert scalar == value
    assert hash(scalar) == hash(value)
    assert len({scalar, value}) == 1
    assert {value: "v"}[scalar] == "v"


class TestLayoutBoundary:
    LAYOUT = {"NVARS", "VAR_INDEX", "ExpKey", "_BITS", "_FIELDS", "_DEG_SHIFT",
              "_SHIFT", "_MASK", "_GUARD", "_LIMIT", "_pack", "_unpack",
              "_exponent", "_t"}

    @staticmethod
    def references(names, allowed):
        """Each use of one of names, as an imported name, an attribute or a
        bare name, in a package module outside allowed."""
        root = Path(g2schubert.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path.relative_to(root).as_posix() in allowed:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom):
                    used = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    used = {node.attr}
                elif isinstance(node, ast.Name):
                    used = {node.id}
                else:
                    continue
                offenders += [f"{path.relative_to(root)}:{node.lineno} {name}"
                              for name in sorted(used & names)]
        return offenders

    def test_only_mpoly_knows_the_exponent_layout(self):
        assert not self.references(self.LAYOUT, {"exactalg/mpoly.py"})

    def test_only_scalars_clears_denominators(self):
        # every lcm of denominators goes through integral_multiple
        assert not self.references({"lcm", "common_denominator"},
                                   {"exactalg/scalars.py"})

    def test_roots_are_stated_only_by_weyl_and_the_operator_table(self):
        # the torus weights are the source of weyl's root datum, and
        # schubert's explicit operator table is its one deliberate copy
        assert not self.references({"torus_weights"}, {"octonion.py", "weyl.py"})
        assert not self.references({"_ROOTS", "_ACTIONS"}, {"schubert.py"})
