import random
from fractions import Fraction
from math import lcm

import pytest

from g2schubert import schubert as s
from g2schubert import octonion, weyl
from g2schubert.exactalg import MPoly, Substitution, exact_divide
from g2schubert.exactalg.mpoly import _KEPT_DEGREE
from g2schubert.weyl import NonReducedWord

X1, X2, Y1, Y2, V = s.X1, s.X2, s.Y1, s.Y2, s.VV
SEED = 24601
# the kinds generated from a top class; eq-* are substitutions of these
BASE_KINDS = ["paper", "graham", "point", "twisted"]


class TestOperators:
    def test_ds_against_division_oracle(self):
        f = Fraction(1, 2) * X1 ** 5 * X2
        swapped = f.subs({"x1": X2, "x2": X1})
        expected = exact_divide(f - swapped, X1 - X2)
        assert s.div_diff("s", f) == expected
        assert expected == Fraction(1, 2) * X1 * X2 * (
            X1 ** 3 + X1 ** 2 * X2 + X1 * X2 ** 2 + X2 ** 3)

    def test_inert_coefficients(self):
        g = Y1 * X1 + Y2
        assert s.div_diff("s", g) == Y1

    def test_word_operator(self):
        assert s.div_diff_word("", X1) == X1
        assert s.div_diff_word("st", X1 ** 2 + X1 * X2).degree() <= 0
        with pytest.raises(NonReducedWord):
            s.div_diff_word("ss", X1)

    def test_constant_killed(self):
        assert s.div_diff("s", MPoly.const(5)).is_zero()
        assert s.div_diff("t", MPoly.const(5)).is_zero()

    def test_tables_match_the_root_datum(self):
        xs = ("x1", "x2")
        for r in "st":
            assert s._ROOTS[r] == weyl.simple_root(r, xs)
            assert ({"x1": X1, "x2": X2, **s._ACTIONS[r]}
                    == weyl.action(weyl.element(r), xs))


# each operator written out by hand, (substitution, root), for an oracle
# that multiplies instead of dividing
HAND_OPERATORS = {
    "s": ({"x1": X2, "x2": X1}, X1 - X2),
    "t": ({"x2": X1 - X2}, -X1 + 2 * X2),
    "tv": ({"x2": X1 - X2 - V}, -X1 + 2 * X2 + V),
}


def _fraction_polys():
    """Seeded polynomials in x1, x2, y1, v with coefficients of denominator
    1 to 6, then the 12 graham entries (denominators up to 54)."""
    rng = random.Random(SEED + 6)
    polys = []
    for _ in range(25):
        total = MPoly.zero()
        for _ in range(rng.randint(1, 6)):
            exps = {name: rng.randint(0, 3) for name in ("x1", "x2", "y1", "v")}
            total = total + MPoly.monomial(
                exps, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        polys.append(total)
    return polys + [p for _, p in s.generate_family("graham").entries()]


@pytest.mark.parametrize("kind", HAND_OPERATORS)
def test_operator_runs_on_the_integral_multiple(kind):
    action, root = HAND_OPERATORS[kind]
    denominators = set()
    for f in _fraction_polys():
        scale = lcm(*(c.denominator for _, c in f.items()))
        denominators.add(scale)
        q = s.div_diff(kind, f)
        assert q * root == f - f.subs(action), f
        assert q == s.div_diff(kind, scale * f) * Fraction(1, scale), f
    assert 54 in denominators


def _sparse_polys():
    """Lone high exponents, above and below the operators' kept degree."""
    return [X2 ** 40 * Y1, X1 ** 40 * Y1, Fraction(3, 7) * X1 ** 13 * X2 ** 2 * V,
            X2 ** 9 - X1 ** 9 + Y2, MPoly.const(5)]


@pytest.mark.parametrize("kind", HAND_OPERATORS)
def test_kept_and_fresh_substitutions_agree(kind):
    # div_diff applies the operator's own substitution, its table of image
    # powers growing as the inputs go by; div_diff_generic builds a fresh
    # one per call
    action, root = HAND_OPERATORS[kind]
    kept = s._SUBSTITUTIONS[kind]
    for f in _fraction_polys() + _sparse_polys():
        for g in (f, f.integral_multiple()[0]):
            assert kept(g) == g.subs(action), g
            assert s.div_diff(kind, g) == s.div_diff_generic(g, root, action), g


# terms each reflection fixes: no variable it substitutes
FIXED_TERMS = {
    "s": [7 * Y1 ** 2 * Y2],
    "t": [7 * Y1 ** 2 * Y2, X1 ** 3 * Y1, X1 ** 2 * V],
    "tv": [7 * Y1 ** 2 * Y2, X1 ** 3 * Y1, X1 ** 2 * V],
}


@pytest.mark.parametrize("kind", HAND_OPERATORS)
def test_fixed_terms_do_not_change_the_operator(kind):
    # d(f + h) = d(f) for h fixed by the reflection, and d still agrees
    # with the fresh path and with the numerator over the root
    action, root = HAND_OPERATORS[kind]
    for h in FIXED_TERMS[kind]:
        assert h.subs(action) == h
        for f in _fraction_polys() + _sparse_polys():
            for g in (f, f + h, h):
                q = s.div_diff(kind, g)
                assert q == s.div_diff_generic(g, root, action), (g, h)
                assert q == exact_divide(g - g.subs(action), root), (g, h)
            assert s.div_diff(kind, f + h) == s.div_diff(kind, f), (f, h)


@pytest.mark.parametrize("kind", HAND_OPERATORS)
def test_fixed_terms_alone_are_never_substituted(kind, monkeypatch):
    calls = []
    real = Substitution.__call__

    def counting(self, f):
        calls.append(f)
        return real(self, f)

    monkeypatch.setattr(Substitution, "__call__", counting)
    fixed = sum(FIXED_TERMS[kind], MPoly.const(Fraction(5, 3)))
    assert s._SUBSTITUTIONS[kind].moved(fixed).is_zero()
    assert s.div_diff(kind, fixed).is_zero()
    assert calls == []


# x2^200 costs tv one power of its three-term image, (x1 - x2 - v)^192 by
# repeated squaring (about 17 s, as a fresh subs); x2^40 shows the same bound
@pytest.mark.parametrize("kind, exponent", [("s", 200), ("t", 200), ("tv", 40)])
def test_operators_keep_no_power_above_the_kept_degree(kind, exponent):
    f = X2 ** exponent * Y1
    action, root = HAND_OPERATORS[kind]
    assert s.div_diff(kind, f) * root == f - f.subs(action)
    for table in s._SUBSTITUTIONS[kind]._kept.values():
        assert max(table) <= _KEPT_DEGREE


class TestTopClasses:
    def test_point(self):
        assert s.top_class("point") == Fraction(1, 2) * X1 ** 5 * X2

    def test_bundle_at_y_zero(self):
        at0 = s.top_class("paper").subs({"y1": MPoly.zero(), "y2": MPoly.zero()})
        assert at0 == (Fraction(1, 2) * X1 ** 5 * X2
                       - Fraction(1, 2) * X1 ** 6)

    def test_twist_inverse(self):
        assert s.twist_substitution(X1).subs({"v": MPoly.zero()}) == X1

    @pytest.mark.parametrize("kind", ["eq-paper", "eq-graham", "nonsense"])
    def test_unknown_kind(self, kind):
        # the eq-* families are substitutions of the base families and have
        # no top class of their own
        with pytest.raises(ValueError, match="unknown top class kind"):
            s.top_class(kind)


class TestFamilies:
    def test_point_family_low_degrees(self):
        fam = s.generate_family("point")
        assert fam["ststs"] == Fraction(1, 2) * X1 ** 5
        assert fam["tstst"] == Fraction(1, 2) * (
            X1 ** 4 * X2 + X1 ** 3 * X2 ** 2 + X1 ** 2 * X2 ** 3 + X1 * X2 ** 4)
        assert fam["tsts"] == (2 * X1 ** 4 - Fraction(3, 2) * X1 ** 3 * X2
                               + Fraction(3, 2) * X1 ** 2 * X2 ** 2)
        assert fam["s"] == X1
        assert fam["t"] == X1 + X2

    def test_twisted_family(self):
        fam = s.generate_family("twisted")
        plain = s.generate_family("paper")
        for w in weyl.all_elements():
            assert fam.table[w] == s.twist_substitution(plain.table[w])
            for letter in ("s", "t"):
                op = "tv" if letter == "t" else "s"
                neighbor = w * weyl.element(letter)
                image = s.div_diff(op, fam.table[w])
                if neighbor.length < w.length:
                    assert image == fam.table[neighbor]
                else:
                    assert image.is_zero()

    @pytest.mark.parametrize("kind", BASE_KINDS)
    @pytest.mark.parametrize("w0_word", weyl.LONGEST_WORDS)
    def test_entries_match_per_word_replay(self, kind, w0_word):
        # the per-entry path, with no chain: each entry applies its whole
        # operator word to the top class
        fam = s.generate_family(kind, w0_word)
        top = s.top_class(kind)
        w0 = weyl.longest()
        for w in weyl.all_elements():
            u = w0 * w.inverse()
            word = w0_word if u is w0 else u.word
            assert fam.table[w] == s.div_diff_word(
                word, top, twisted=kind == "twisted"), (kind, w0_word, w.name)

    @pytest.mark.parametrize("kind", s.FAMILY_KINDS)
    @pytest.mark.parametrize("w0_word", weyl.LONGEST_WORDS)
    def test_one_operator_step_per_nonempty_word(self, kind, w0_word, monkeypatch):
        # the default word runs the chain, 11 steps (an eq-* kind runs its
        # base kind's chain and substitutes); the other word reuses that
        # table and recomputes only P_id, in one step with no substitution
        calls = []
        subs_calls = []
        real = s.div_diff
        real_subs = MPoly.subs

        def counting(op, f):
            calls.append(op)
            return real(op, f)

        def counting_subs(f, assignment):
            subs_calls.append(assignment)
            return real_subs(f, assignment)

        monkeypatch.setattr(s, "div_diff", counting)
        monkeypatch.setattr(MPoly, "subs", counting_subs)
        s.generate_family.cache_clear()
        s.generate_family(kind)
        assert len(calls) == 11
        assert ("tv" in calls) == (kind == "twisted")
        calls.clear()
        subs_calls.clear()
        s.generate_family(kind, w0_word)
        if w0_word == weyl.LONGEST_WORDS[0]:
            assert calls == []
        else:
            assert calls == ["tv" if kind == "twisted" else "t"]
        assert subs_calls == []

    @pytest.mark.parametrize("kind", ["eq-paper", "eq-graham"])
    @pytest.mark.parametrize("w0_word", weyl.LONGEST_WORDS)
    def test_equivariant_substitution(self, kind, w0_word):
        # the reference substitutes t for y in each entry of the base
        # family of the same word; y -> t commutes with the operators
        eq = s.generate_family(kind, w0_word)
        default = s.generate_family(kind)
        plain = s.generate_family(kind.removeprefix("eq-"), w0_word)
        t1, t2 = MPoly.var("t1"), MPoly.var("t2")
        for w in weyl.all_elements():
            assert eq.table[w] == plain.table[w].subs({"y1": t1, "y2": t2})
            if w is not weyl.identity():
                assert eq.table[w] is default.table[w]

    # the terms passed to the operators' substitutions for both longest
    # words of a base kind, from a cleared cache
    FAMILY_SUBSTITUTED_TERMS = {"paper": 141, "graham": 262, "point": 27,
                                "twisted": 338}

    @pytest.mark.parametrize("kind", BASE_KINDS)
    def test_family_substitution_work_is_pinned(self, kind, monkeypatch):
        # term counts are exact and repeatable where times are not; a change
        # that lowers a count lowers its pin
        terms = []
        real = Substitution.__call__
        operators = list(s._SUBSTITUTIONS.values())

        def counting(self, f):
            if any(self is w for w in operators):
                terms.append(len(f))
            return real(self, f)

        monkeypatch.setattr(Substitution, "__call__", counting)
        s.generate_family.cache_clear()
        for w0_word in weyl.LONGEST_WORDS:
            s.generate_family(kind, w0_word)
        assert len(terms) == 12
        assert sum(terms) == self.FAMILY_SUBSTITUTED_TERMS[kind]


class TestLocalization:
    """Fixed-point restrictions, an oracle independent of the generation."""

    def test_bruhat_triangular_support(self):
        for kind in ("eq-paper", "eq-graham"):
            fam = s.generate_family(kind)
            for w in weyl.all_elements():
                for v in weyl.all_elements():
                    value = s.equivariant_restriction(fam.table[w], v)
                    if not weyl.bruhat_leq(w, v):
                        assert value.is_zero(), (kind, w.name, v.name)

    def test_longest_diagonal_is_full_root_product(self):
        fam = s.generate_family("eq-paper")
        t1, t2 = MPoly.var("t1"), MPoly.var("t2")
        roots = [t1 - t2, -t1 + 2 * t2, t2, t1, 2 * t1 - t2, t1 + t2]
        assert set(roots) == set(weyl.inversion_roots(weyl.longest()))
        # the same six roots are the torus weights of the big-cell
        # parameters: an entry at f_j of a row whose pivot 1 sits at f_p
        # scales by chi_j - chi_p
        chi = weyl.weights()
        free = {MPoly.var(name): name for name in ("a", "b", "c", "d", "e", "g")}
        rows = [(row.coords, max(j for j, x in enumerate(row.coords) if x != 0))
                for row in octonion.big_cell_rows()]
        weight = {free[x]: chi[j] - chi[p] for coords, p in rows
                  for j, x in enumerate(coords[:p]) if x in free}
        assert sorted(weight) == sorted(free.values())
        assert set(roots) == set(weight.values())
        for coords, p in rows:
            for j, x in enumerate(coords[:p + 1]):
                for exps, _ in (MPoly.one() * x).named_terms():
                    assert sum((e * weight[n] for n, e in exps.items()),
                               MPoly.zero()) == chi[j] - chi[p], (j, p, x)
        product = MPoly.one()
        for root in roots:
            product = product * root
        value = s.equivariant_restriction(fam.table[weyl.longest()],
                                          weyl.longest())
        assert value == product

    @pytest.mark.parametrize("kind", ["eq-paper", "eq-graham"])
    def test_restriction_is_the_termwise_evaluation(self, kind):
        # subs runs on the integral multiple of a class with 1/2 in it; the
        # reference sums c * v.t1^e1 * v.t2^e2 * (the rest) term by term
        fam = s.generate_family(kind)
        for v in weyl.all_elements():
            image = weyl.action(v)
            for w in weyl.all_elements():
                expected = MPoly.zero()
                for exps, c in fam.table[w].named_terms():
                    rest = {n: e for n, e in exps.items() if n not in ("x1", "x2")}
                    expected = expected + (image["t1"] ** exps.get("x1", 0)
                                           * image["t2"] ** exps.get("x2", 0)
                                           * MPoly.monomial(rest, c))
                assert s.equivariant_restriction(fam.table[w], v) == expected, \
                    (kind, w.name, v.name)

    def test_identity_restricts_to_one_everywhere(self):
        fam = s.generate_family("eq-paper")
        for v in weyl.all_elements():
            assert s.equivariant_restriction(fam.table[weyl.identity()], v) \
                == MPoly.one()


class TestGrahamIdentities:
    def test_product_form_degree(self):
        assert s.top_class("graham").degree() == 6

    def test_random_point_evaluations(self):
        rng = random.Random(SEED + 5)
        product = s.graham_product_form()
        top = s.top_class("graham")
        for _ in range(10):
            point = {n: MPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                     for n in ("x1", "x2", "y1", "y2")}
            assert product.subs(point) == top.subs(point)


class TestImpossibility:
    def test_certificate(self):
        cert = s.impossibility_certificate()
        assert cert.verify()
        assert len(cert.matrix) == len(cert.rhs) == 4
        rows = {(tuple(r), v) for r, v in zip(cert.matrix, cert.rhs)}
        assert ((0, 1, 1, 1, 1), Fraction(0)) in rows        # b+c+d+e = 0
        assert ((0, 0, 0, -1, -2), Fraction(0)) in rows      # d = -2e
        assert ((1, 0, 0, 0, -1), Fraction(0)) in rows       # a = e
        assert ((1, 1, 0, -1, -1), Fraction(1, 2)) in rows   # with a=e: b-d=1/2

    def test_nonnegativity_needed(self):
        # without x >= 0 the equality system is solvable
        from g2schubert.exactalg import solve_linear
        cert = s.impossibility_certificate()
        res = solve_linear(cert.matrix, cert.rhs)
        assert res.consistent

    def test_rows_equal_up_to_scaling_are_merged(self):
        # 49 a x1 + a x2 = 0 gives the row a = 0 twice; a float ratio
        # 1/49 would not scale one onto the other, since 1/49 * 49 != 1
        a = MPoly.var("a")
        matrix, rhs = s._coefficient_equations(49 * a * X1 + a * X2, MPoly.zero())
        assert (matrix, rhs) == ([[49, 0, 0, 0, 0]], [0])


class TestPositiveRewrite:
    def test_infeasible_example(self):
        res = s.positive_rewrite(X1 * X2 - X1 ** 2, 2)
        assert not res.feasible
        assert res.farkas_multipliers is not None

    def test_point_family_positive(self):
        fam = s.generate_family("point")
        for w, poly in fam.table.items():
            res = s.positive_rewrite(poly, w.length)
            assert res.feasible
            assert res.expansion() == poly
            assert all(c >= 0 for c in res.coefficients.values())

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            s.positive_rewrite(X1 ** 2 + X1, 2)

    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            s.positive_rewrite(X1 * Y1, 2)
