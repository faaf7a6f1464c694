import functools
import gc
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from operator import add

import pytest

from g2schubert import checks
from g2schubert import cohomring as c
from g2schubert import schubert as s
from g2schubert import weyl
from g2schubert.exactalg import MPoly, VARIABLES, determinant, mpoly, parse_poly
from g2schubert.exactalg.mpoly import addmul

X1, X2, ALPHA, H, F = c.X1, c.X2, c.ALPHA, c.H, c.F
Y1, Y2 = c.Y1, c.Y2
SEED = 1729
# the presentations that `g2sc verify` certifies, with the term products of
# their associativity certificates (terms passed to addmul in mpoly and
# cohomring), exact and repeatable
CERTIFICATE_TERMS = {
    "FlIntegralPoint": 100, "FlHalfPoint": 66, "FlIntegralBundle": 2578,
    "FlHalfBundle": 1188, "Equivariant": 1727, "QuadricBundle3": 303,
    "QuadricBundle3Y": 270, "QuadricBundle3Fiber": 24,
}
VERIFIED = sorted(CERTIFICATE_TERMS)


class TestNormalForm:
    def test_integral_point_rules(self):
        p = c.fl_integral_point()
        assert p.normal_form(X1 ** 3).as_poly() == 2 * ALPHA
        assert p.normal_form(X2 ** 2).as_poly() == X1 * X2 - X1 ** 2
        assert p.normal_form(ALPHA ** 2).is_zero()

    def test_idempotent_and_linear(self):
        rng = random.Random(SEED)
        for p in (c.fl_integral_point(), c.fl_half_point(),
                  c.fl_half_bundle(), c.quadric_bundle()):
            names = p.main_vars + p.base_vars
            for _ in range(5):
                f = _rand(rng, names)
                g = _rand(rng, names)
                nf_f = p.reduce_poly(f)
                assert p.reduce_poly(nf_f) == nf_f
                assert p.reduce_poly(f + g) == p.reduce_poly(f) + p.reduce_poly(g)

    def test_non_integral_reduction_raises(self):
        p = c.fl_integral_point()
        with pytest.raises(c.NonIntegralReduction):
            p.normal_form(Fraction(1, 3) * X1)
        # 1/2 x1^3 is alpha, which IS integral
        assert p.normal_form(Fraction(1, 2) * X1 ** 3).as_poly() == ALPHA

    def test_foreign_variables_rejected(self):
        with pytest.raises(ValueError):
            c.fl_half_point().normal_form(MPoly.var("h"))


def _rand(rng, names, max_deg=5, terms=5):
    total = MPoly.zero()
    for _ in range(terms):
        exps = {}
        budget = rng.randint(0, max_deg)
        for name in names:
            e = rng.randint(0, budget)
            if e:
                exps[name] = e
                budget -= e
        total = total + MPoly.monomial(exps, rng.randint(-6, 6))
    return total


class TestVerifyPresentations:
    def test_memo_is_keyed_by_main_part(self):
        # the base variables t1, t2 stay out of the keys; the ring golden
        # test already verifies FlIntegralBundle, which has the same main
        # variables and memo size
        p = c.fl_equivariant()
        assert c.verify_presentation(p) == []
        # a key holds the exponents of the main variables and nothing else
        assert all(len(key) == len(p.main_vars) for key in p._memo)
        assert len(p._memo) == 45
        # the certificate reads the engine only at the pair and border
        # keys, and the engine memoizes only the keys it is asked for, so no
        # key that only triple products reach is rewritten
        assert (_products(p, 3) - _products(p, 2)).isdisjoint(p._memo)

    def test_rank_mismatch_is_a_named_failure(self):
        half = c.fl_half_point()
        p = c.Presentation(half.name, half.main_vars, half.base_vars,
                           half.rules, half.ring, 11)
        assert c.verify_presentation(p) == [
            "rank: basis has 12 monomials, expected 11"]

    def test_specialization_mismatch_is_a_named_failure(self):
        # c1(F) = y1 + 1 leaves h^3 -> 2f + h^2 at base variables 0
        bundle = c.quadric_bundle(3)
        p = bundle.specialize("QuadricBundle3", {"c1F": Y1 + 1})
        assert c.verify_presentation(p) == ["specialized rule for h differs"]

    def test_verified_presentation_is_freed_at_once(self):
        # nothing that verify_presentation leaves behind refers back to the
        # presentation, so its memo goes with its last reference rather than
        # waiting for the cycle collector
        gc.disable()
        try:
            p = c.fl_integral_point()
            assert c.verify_presentation(p) == []
            ref = weakref.ref(p)
            del p
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", sorted(c.PRESENTATION_FACTORIES))
    def test_reduction_is_linear_over_the_base(self, name):
        # every variable that is not a main variable is inert under rewriting
        p = c.get_presentation(name)
        others = [v for v in VARIABLES if v not in p.main_vars]
        rng = random.Random(f"{SEED}-{name}")
        for _ in range(6):
            m = MPoly.monomial({v: rng.randint(0, 3) for v in p.main_vars})
            b = MPoly.monomial({v: rng.randint(1, 3)
                                for v in rng.sample(others, 2)})
            assert p.reduce_poly(b * m) == b * p.reduce_poly(m)

    def test_basis_matches_published_list(self):
        p = c.fl_integral_point()
        polys = [str(b) for b in p.basis_polys()]
        assert polys == ["1", "x1", "x1^2", "alpha", "x1 alpha", "x1^2 alpha",
                         "x2", "x1 x2", "x1^2 x2", "x2 alpha", "x1 x2 alpha",
                         "x1^2 x2 alpha"]

    @pytest.mark.parametrize("name,expected", [
        ("FlHalfPoint", ["1", "x1", "x1^2", "x1^3", "x1^4", "x1^5",
                         "x2", "x1 x2", "x1^2 x2", "x1^3 x2", "x1^4 x2",
                         "x1^5 x2"]),
        ("QuadricBundle3", ["1", "h", "h^2", "f", "h f", "h^2 f"]),
    ])
    def test_basis_lists(self, name, expected):
        p = c.get_presentation(name)
        assert [str(b) for b in p.basis_polys()] == expected

    @pytest.mark.parametrize("name", sorted(c.PRESENTATION_FACTORIES))
    def test_rules_decrease_and_degrees_match(self, name):
        p = c.get_presentation(name)
        n = p.expected_rank // 2
        weight = {"alpha": 3, "f": n}

        def degree(exp):
            return sum(e * weight.get(v, 1)
                       for v, e in zip(VARIABLES, exp) if v in p.main_vars)

        def order(exp):
            return (degree(exp),) + tuple(exp[VARIABLES.index(r.var)]
                                          for r in p.rules)

        for rule in p.rules:
            (lhs, _), = (MPoly.var(rule.var) ** rule.power).items()
            for exp, _ in rule.rhs.items():
                assert order(exp) < order(lhs), (rule.var, exp)
        for key, poly in zip(p.basis, p.basis_polys()):
            (exp, _), = poly.items()
            assert p.key_degree(key) == degree(exp)

    def test_non_terminating_rules_rejected(self):
        with pytest.raises(ValueError):  # x1 x2 ties x1^2 and lies above it
            c.Presentation("up", ("x1", "x2"), (),
                           [c.Rule("x2", 2, MPoly.zero()), c.Rule("x1", 2, X1 * X2)],
                           "Z", 4)
        with pytest.raises(ValueError):  # no rule for x2
            c.Presentation("short", ("x1", "x2"), (),
                           [c.Rule("x1", 2, MPoly.zero())], "Z", 4)

    def test_equivariant_matches_half_bundle_quadratic(self):
        # the degree-2 relations of the integral and half presentations agree
        eq = c.fl_equivariant()
        t1, t2 = c.T1, c.T2
        rel = X1 ** 2 + X2 ** 2 - X1 * X2 - (t1 ** 2 + t2 ** 2 - t1 * t2)
        assert eq.reduce_poly(rel).is_zero()

    def test_symmetric_function_relations_hold_equivariantly(self):
        # e_i(x1^2, x2^2, (x1-x2)^2) = e_i(t1^2, t2^2, (t1-t2)^2) for all i
        xs = c.chern_classes([X1 ** 2, X2 ** 2, (X1 - X2) ** 2])
        ts = c.chern_classes([c.T1 ** 2, c.T2 ** 2, (c.T1 - c.T2) ** 2])
        for p in (c.fl_equivariant(), c.get_presentation("FlHalfBundleT")):
            for i in (1, 2, 3):
                rel = xs[i] - ts[i]
                assert p.reduce_poly(rel).is_zero(), (p.name, i)

    def test_degree4_relation_is_redundant(self):
        # e_2 of the squares is the square of the quadratic invariant, so the
        # middle relation lies in the ideal of the other two
        quad = X1 ** 2 + X2 ** 2 - X1 * X2
        assert c.chern_classes([X1 ** 2, X2 ** 2, (X1 - X2) ** 2])[2] == quad ** 2

    def test_half_equivariant_ring(self):
        pres = c.get_presentation("FlHalfBundleT")
        assert c.verify_presentation(pres) == [] and len(pres.basis) == 12
        # Giambelli: the 12 equivariant classes have distinct normal forms
        # and expand the ring over Z[1/2][t1, t2]
        import g2schubert.schubert as sch
        fam = sch.generate_family("eq-paper")
        nfs = [pres.normal_form(fam.table[w]) for w in weyl.all_elements()]
        signatures = {tuple(sorted((k, str(v)) for k, v in nf.coeffs.items()))
                      for nf in nfs}
        assert len(signatures) == 12


class TestDerivedRules:
    """Rules that the constructor inter-reduces and solves."""

    @pytest.mark.parametrize("name,rhs", [
        ("FlHalfBundle",
         "2 x1^4 y1^2 - 2 x1^4 y1 y2 + 2 x1^4 y2^2 - x1^2 y1^4 + 2 x1^2 y1^3 y2"
         " - 3 x1^2 y1^2 y2^2 + 2 x1^2 y1 y2^3 - x1^2 y2^4 + y1^4 y2^2"
         " - 2 y1^3 y2^3 + y1^2 y2^4"),
        ("FlHalfBundleT",
         "2 x1^4 t1^2 - 2 x1^4 t1 t2 + 2 x1^4 t2^2 - x1^2 t1^4 + 2 x1^2 t1^3 t2"
         " - 3 x1^2 t1^2 t2^2 + 2 x1^2 t1 t2^3 - x1^2 t2^4 + t1^4 t2^2"
         " - 2 t1^3 t2^3 + t1^2 t2^4"),
    ])
    def test_half_bundle_degree6_rule(self, name, rhs):
        # the degree-6 relation solved for x1^6 with the x2 rule alone
        assert c.get_presentation(name).rules[1] == c.Rule("x1", 6, parse_poly(rhs))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("factory", [c.quadric_bundle, c.quadric_bundle_fiber])
    def test_quadric_bundles_of_every_rank(self, factory, n):
        p = factory(n)
        assert c.verify_presentation(p) == [] and len(p.basis) == 2 * n

    def test_even_rank_fiber(self):
        fiber = c.quadric_bundle_fiber(2)
        assert fiber.name == "QuadricBundle2Fiber"
        assert fiber.rules == (c.Rule("h", 2, 2 * F), c.Rule("f", 2, MPoly.zero()))

    def test_even_rank_f_square_relation(self):
        # the f^2 relation as stated, before h^2 f was rewritten and solved
        p = c.quadric_bundle(2)
        assert p.reduce_poly(F ** 2 - (MPoly.var("c2Q") + H ** 2) * F).is_zero()

    def test_solving_needs_a_unit(self):
        # x1^2 -> x2^2 comes back as 3 x1^2, so x1^2 = 0 / (1 - 3), which
        # needs 1/2
        rules = [c.Rule("x2", 2, 3 * X1 ** 2), c.Rule("x1", 2, X2 ** 2)]
        with pytest.raises(ValueError, match=r"x1\^2 .* 1 - 3 is not a unit of Z$"):
            c.Presentation("triple", ("x1", "x2"), (), rules, "Z", 4)
        p = c.Presentation("triple", ("x1", "x2"), (), rules, "Z_half", 4)
        assert p.rules == (rules[0], c.Rule("x1", 2, MPoly.zero()))


_EXTRA_QUADRICS = {f"QuadricBundle{n}{kind}": functools.partial(factory, n)
                   for n in (1, 2) for kind, factory in
                   (("", c.quadric_bundle), ("Fiber", c.quadric_bundle_fiber))}


@pytest.mark.parametrize("name", sorted(c.PRESENTATION_FACTORIES)
                         + sorted(_EXTRA_QUADRICS))
def test_basis_degrees_match_poincare_polynomial(name):
    # standard monomials per degree against the Poincare polynomial, which
    # needs no rewriting: sum_w q^l(w) over the Weyl group for the flag
    # rings, and [n]_q (1 + q^n) for QuadricBundle(n) and its specializations
    p = {**c.PRESENTATION_FACTORIES, **_EXTRA_QUADRICS}[name]()
    if name.startswith("QuadricBundle"):
        n = int(name[len("QuadricBundle")])
        expected = Counter(i + j * n for i in range(n) for j in (0, 1))
    else:
        expected = Counter(w.length for w in weyl.all_elements())
    assert Counter(p.key_degree(key) for key in p.basis) == expected


def _products(p, count):
    """Main keys of every product of `count` basis monomials."""
    return {key for factors in itertools.product(p.basis_polys(), repeat=count)
            for key in math.prod(factors, start=MPoly.one()).split(p.main_vars)}


def _corrupt_memo_after_table(p, key, delta=1):
    """Make p's memo entry at key wrong by + delta once mult_table has built
    the table, so the table stays right; returns the right entry."""
    build = p.mult_table
    good = p.reduce_monomial(key)
    p._memo.clear()

    def mult_table():
        table = build()
        p._memo[key] = good + delta
        return table

    p.mult_table = mult_table
    return good


def _border(p):
    """The border keys b + e_g that are not standard."""
    return {c._shifted(b, g) for g in range(len(p.main_vars))
            for b in p.basis} - set(p.basis)


def _associativity_failures(p):
    return [f for f in c.verify_presentation(p) if f.startswith("associativity")]


def _named(line):
    """The monomials an associativity line names: the key it fails at and
    the keys whose normal forms its two sides read."""
    head, _, read = line.partition("; it read the normal forms at ")
    return {head[len("associativity: at "):].split(", ", 1)[0], *read.split(", ")}


class TestAssociativityCertificate:
    """Mutations of verified presentations that the certificate must see."""

    def test_every_engine_column_is_read(self):
        # in QuadricBundle1 the rule is h^1, so the h column at f is the
        # border key h f, which no pair reaches and so no step check reads:
        # the commutation at 1 reads it, and its line names it
        p = c.quadric_bundle(1)
        right = c.quadric_bundle(1).reduce_poly(H * F)
        _corrupt_memo_after_table(p, (1, 1))
        (line,) = c.verify_presentation(p)
        assert line.startswith(f"associativity: at 1, h times f times it is "
                               f"{right + 1} but f times h times it is {right}; "), line
        assert str(H * F) in _named(line), line

    @pytest.mark.parametrize("name,index", [
        (name, index) for name in ("FlIntegralPoint", "FlHalfPoint",
                                   "FlHalfBundle", "Equivariant")
        for index in range(len(c.get_presentation(name).rules))])
    def test_every_rule_is_read_at_the_matrices(self, name, index):
        # a wrong right-hand side as the certificate reads it; the engine
        # keeps the true rules, so the step checks pass and the rule check
        # at the matrices is the associativity failure, which names the
        # border column of the left-hand side among those it read
        p = c.get_presentation(name)
        rule = p.rules[index]
        p.rules = (p.rules[:index] + (c.Rule(rule.var, rule.power, rule.rhs + 1),)
                   + p.rules[index + 1:])
        lhs = MPoly.monomial({rule.var: rule.power})
        relation, line = c.verify_presentation(p)
        assert relation == f"relation for {rule.var}^{rule.power} broken"
        assert line.startswith(
            f"associativity: at {lhs}, the matrix power is {rule.rhs} but the "
            f"right-hand side at the matrices is {rule.rhs + 1}; "), line
        assert str(lhs) in _named(line), line


# the memo mutants of the certificate: every pair key off the border, and
# every border key, of every verified ring
_OFF_BORDER = [(name, key) for name in VERIFIED for key in sorted(
    _products(c.get_presentation(name), 2) - _border(c.get_presentation(name)))]
_BORDER = [(name, key) for name in VERIFIED
           for key in sorted(_border(c.get_presentation(name)))]


class TestCertificateSteps:
    """The engine memo against the matrices: the failing check is the
    witness.  A wrong memo entry off the border fails at its own key; a
    wrong border entry, which the matrices hold as a column, fails on one
    line that names it."""

    def test_the_mutants_are_every_pair_and_border_key(self):
        # 29 pair keys off the border in each three-variable flag ring, 25
        # in each half ring and 10 in each quadric bundle; 16, 8 and 5
        # border keys, each corrupted two ways
        assert len(_OFF_BORDER) == 167 and 2 * len(_BORDER) == 158

    @pytest.mark.parametrize("name,key", _OFF_BORDER)
    def test_a_corrupted_memo_entry_is_named(self, name, key):
        # the memo wrong by +1 at a pair key off the border before the table
        # is built, as a wrong rewrite makes it: the table's class at key,
        # and every rewrite that reads the entry, are wrong alike, and the
        # step check, lowest key first, names the key with both sides
        p = c.get_presentation(name)
        good = p.reduce_monomial(key)
        p._memo.clear()
        p._memo[key] = good + 1
        pair = min((x, y) for x, y in itertools.product(range(len(p.basis)), repeat=2)
                   if tuple(map(add, p.basis[x], p.basis[y])) == key)
        assert p.mult_table()[pair].as_poly() == good + 1
        (line,) = _associativity_failures(p)
        head = line.partition("; it read the normal forms at ")[0]
        assert head.startswith(f"associativity: at {p._monomial(key)}, the "
                               f"engine's normal form is {good + 1} but "), line
        assert head.endswith(f" is {good}"), line

    def test_a_failed_step_without_a_failing_triple_is_reported(self):
        # the certificate never passes silently: the failing step is the
        # failure
        p = c.fl_integral_point()
        _corrupt_memo_after_table(p, p.top)
        assert c.verify_presentation(p) == [
            "associativity: at x1^2 x2 alpha, the engine's normal form is "
            "x1^2 x2 alpha + 1 but the basis element is x1^2 x2 alpha"]

    @pytest.mark.parametrize("name", VERIFIED)
    def test_the_failing_check_is_the_witness_on_every_verified_ring(self, name):
        # the memo wrong at the top key is one associativity line, from the
        # step check at that standard key, and the failing run, like a
        # passing one, never reduces a triple key: the memo holds only the
        # keys of the pairs, the relations and the border.  Where the
        # relation checks read the top key too, they fail on lines of their
        # own
        p = c.get_presentation(name)
        good = _corrupt_memo_after_table(p, p.top)
        failures = _associativity_failures(p)
        assert failures == [
            f"associativity: at {p._monomial(p.top)}, the engine's normal form is "
            f"{good + 1} but the basis element is {good}"]
        sides = [MPoly.monomial({r.var: r.power}) - r.rhs for r in p.rules]
        relations = {key for side in sides for key in side.split(p.main_vars)}
        border = {c._shifted(b, g) for g in range(len(p.main_vars)) for b in p.basis}
        assert set(p._memo) <= _products(p, 2) | relations | border

    @pytest.mark.parametrize("key", sorted(_border(c.fl_integral_point())))
    def test_a_wrong_border_rewrite_fails(self, key):
        # the memo wrong by +1 at a border key before the table is built, as
        # a wrong rewrite there makes it: the matrices hold the wrong entry
        # as a column, and the certificate fails on exactly one line, which
        # need not name the key (test_a_corrupted_border_entry_is_named pins
        # the naming for an entry wrong only where the certificate reads it)
        p = c.fl_integral_point()
        good = p.reduce_monomial(key)
        p._memo.clear()
        p._memo[key] = good + 1
        assert len(_associativity_failures(p)) == 1

    @pytest.mark.parametrize("name,key", _BORDER)
    @pytest.mark.parametrize("first", [False, True], ids=["plus_1", "plus_first"])
    def test_a_corrupted_border_entry_is_named(self, name, key, first):
        # the memo wrong at a border key once the table is built, by +1 or
        # by + the first main variable: exactly one associativity line, from
        # a step check that read the entry or a rule or commutation check of
        # the matrices that hold it as a column, and the line names the key
        p = c.get_presentation(name)
        _corrupt_memo_after_table(p, key, MPoly.var(p.main_vars[0]) if first else 1)
        lines = _associativity_failures(p)
        assert len(lines) == 1, lines
        assert str(p._monomial(key)) in _named(lines[0]), lines


@pytest.mark.parametrize("name", VERIFIED)
def test_mult_table_shares_one_form_per_product(name):
    # one NormalForm per distinct product key, shared by every pair that
    # reaches it
    p = c.get_presentation(name)
    table = p.mult_table()
    assert len(table) == len(p.basis) ** 2
    forms = {}
    for (x, y), nf in table.items():
        forms.setdefault(tuple(map(add, p.basis[x], p.basis[y])), set()).add(id(nf))
    assert all(len(ids) == 1 for ids in forms.values())
    assert len({id(nf) for nf in table.values()}) == len(forms) == len(_products(p, 2))
    if name == "FlIntegralPoint":
        assert len(forms) == 45


QUADRICS = {f"QuadricBundle{n}{fiber}": functools.partial(factory, n)
            for n in (1, 2) for fiber, factory in (("", c.quadric_bundle),
                                                   ("Fiber", c.quadric_bundle_fiber))}


@pytest.mark.parametrize("name", sorted(c.PRESENTATION_FACTORIES) + sorted(QUADRICS))
def test_generator_matrices_commute_and_rebuild_the_table(name):
    # the matrices on their own: they commute, and stepping e_x by the
    # exponents of e_y rebuilds every table entry.  In QuadricBundle1 the
    # rule is h^1, so h is no basis monomial and every h column is a border
    # column
    p = QUADRICS[name]() if name in QUADRICS else c.get_presentation(name)
    matrices = c._generator_matrices(p)
    polys = p.basis_polys()

    def times(g, v):
        return c._apply(matrices[g].__getitem__, v.split(p.main_vars))

    for g, h in itertools.combinations(range(len(p.main_vars)), 2):
        for b in p.basis:
            assert times(g, matrices[h][b]) == times(h, matrices[g][b])
    for (x, y), nf in p.mult_table().items():
        v = polys[x]
        for g, e in enumerate(p.basis[y]):
            for _ in range(e):
                v = times(g, v)
        assert v == nf.as_poly()
    if name == "QuadricBundle1":
        assert set(p.basis).isdisjoint(c._shifted(b, 0) for b in p.basis)


def test_an_arithmetic_error_in_the_certificate_is_one_failure(monkeypatch):
    # the engine gives up, as a rewrite past MAX_REWRITE_TERMS does, at the
    # border key top + e_1 once mult_table has built the table, where only
    # the certificate reads it: each presentation gets one associativity
    # line and the suite goes on
    build, engine = c.Presentation.mult_table, c.Presentation.reduce_monomial

    def mult_table(p):
        table = build(p)
        p.gives_up_at = c._shifted(p.top, 0)
        return table

    def reduce_monomial(p, key):
        if key == getattr(p, "gives_up_at", None):
            raise c.RewriteBudgetExceeded(f"{p.name}: the engine gives up")
        return engine(p, key)

    monkeypatch.setattr(c.Presentation, "mult_table", mult_table)
    monkeypatch.setattr(c.Presentation, "reduce_monomial", reduce_monomial)
    assert c.verify_presentation(c.fl_integral_point()) == [
        "associativity: FlIntegralPoint: the engine gives up"]
    results = checks.run_suite("ring").results
    failed = [r for r in results if not r.passed]
    assert [r.detail for r in failed] == [
        f"associativity: {name}: the engine gives up" for name in
        ("FlIntegralPoint", "FlHalfPoint", "FlIntegralBundle", "FlHalfBundle")]
    assert len(results) > len(failed) and not any("raised" in r.name for r in results)


@pytest.mark.parametrize("name", VERIFIED)
def test_certificate_work_is_bounded(name, monkeypatch):
    # term products are exact and repeatable where times are not; a change
    # that lowers a count lowers its bound
    p = c.get_presentation(name)
    p.mult_table()  # the memo holds the pair keys, as in verify_presentation
    terms = []

    def counting(acc, summand, coef=None, shift=mpoly.ONE_KEY):
        terms.append(len(mpoly.key_terms(summand)))
        addmul(acc, summand, coef, shift)

    monkeypatch.setattr(mpoly, "addmul", counting)
    monkeypatch.setattr(c, "addmul", counting)
    failures = []
    c._check_associativity(p, failures)
    assert failures == []
    assert 0 < sum(terms) <= CERTIFICATE_TERMS[name]


class TestChern:
    def test_tensor_line_rank1(self):
        cv = (MPoly.one(), Y1)
        assert c.chern_tensor_line(cv, Y2) == Y1 + Y2

    def test_tensor_line_rank2_symbolic(self):
        cv = c.chern_classes([Y1, Y2])
        line = MPoly.var("v")
        expected = cv[2] + cv[1] * line + line ** 2
        assert c.chern_tensor_line(cv, line) == expected

    def test_tensor_line_is_the_product_of_twisted_roots(self):
        # c_n(E tensor L) = prod (c1(L) + r) over the roots r of E
        rng = random.Random(SEED + 2)
        for rank in range(5):
            roots = [_rand(rng, ("y1", "y2"), 1, 2) for _ in range(rank)]
            line = _rand(rng, ("y1", "y2", "v"), 1, 3)
            assert c.chern_tensor_line(c.chern_classes(roots), line) == math.prod(
                (line + r for r in roots), start=MPoly.one())

    def test_quotient_line_exact(self):
        cv = (MPoly.one(), Y1)
        quot = c.chern_quotient(cv, Y1)
        assert quot == (MPoly.one(),)

    def test_quotient_roundtrip(self):
        rng = random.Random(SEED + 1)
        for _ in range(10):
            roots = [_rand(rng, ("y1", "y2"), 1, 2) for _ in range(3)]
            line = _rand(rng, ("y1", "y2"), 1, 2)
            total = c.chern_classes(roots + [line])
            assert c.chern_quotient(total, line) == c.chern_classes(roots)

    def test_flag_chern_of_the_torus_roots(self):
        # the values the Equivariant ring is specialized at: F3 splits as
        # t1, t2, t1 - t2 and V/F3 as their negatives
        t1, t2 = c.T1, c.T2
        c2 = t1 ** 2 + t1 * t2 - t2 ** 2
        c3 = t1 * t2 * (t1 - t2)
        assert c._flag_chern([t1, t2, t1 - t2]) == {
            "c1F": 2 * t1, "c2F": c2, "c3F": c3,
            "c1Q": -2 * t1, "c2Q": c2, "c3Q": -c3}

    def test_eg_relation(self):
        assert c.quadric_eg_residue().is_zero()
        # over a point every Chern class is 0, leaving 2 h f = h^4
        fiber = c.quadric_bundle_fiber(3)
        assert fiber.reduce_poly(2 * H * F - H ** 4).is_zero()

    def test_normal_bundle_top_class_rebuilds_f_square_rule(self):
        # c_3 of ((V/F)/O(1)) tensor O(1) equals the f^2 coefficient
        # c3(V/F) + c1(V/F) h^2, independent of c4(V/F)
        c1q, c2q, c3q = (MPoly.var(f"c{i}Q") for i in (1, 2, 3))
        total = (MPoly.one(), c1q, c2q, c3q, Y1 * Y2)
        rebuilt = c.chern_tensor_line(c.chern_quotient(total, H), H)
        assert rebuilt == c3q + c1q * H ** 2


class TestFamiliesInRings:
    def test_alpha_is_the_length3_class(self):
        # in the point ring, alpha and the degree-3 entry x(sts) coincide
        point = c.fl_integral_point()
        fam = s.generate_family("point")
        target = fam["sts"]
        assert point.reduce_poly(2 * (target - ALPHA)).is_zero()


class TestExpansion:
    def test_family_is_a_basis(self):
        half = c.fl_half_point()
        fam = s.generate_family("point")
        for w in weyl.all_elements():
            coeffs = c.schubert_expand(fam.table[w], fam, half)
            for u, val in coeffs.items():
                assert val == (MPoly.one() if u is w else MPoly.zero())

    def test_random_combination_recovered(self):
        rng = random.Random(SEED + 2)
        half = c.fl_half_point()
        fam = s.generate_family("point")
        for _ in range(5):
            combo = MPoly.zero()
            chosen = {}
            for w in weyl.all_elements():
                k = Fraction(rng.randint(-4, 4))
                chosen[w] = MPoly.const(k)
                combo = combo + k * fam.table[w]
            got = c.schubert_expand(combo, fam, half)
            assert all(got[w] == chosen[w] for w in weyl.all_elements())

    def test_x1_is_an_integral_equivariant_combination(self):
        eq = c.fl_equivariant()
        fam = s.generate_family("eq-paper")
        exp = c.schubert_expand(X1, fam, eq)
        assert exp[weyl.element("s")] == MPoly.one()
        assert exp[weyl.identity()] == c.T1

    def test_not_in_span(self):
        half = c.fl_half_point()
        fam = s.generate_family("point")
        broken = dict(fam.table)
        broken[weyl.longest()] = MPoly.zero()
        degenerate = s.SchubertFamily("broken", broken)
        with pytest.raises(c.NotInSpan):
            c.schubert_expand(Fraction(1, 2) * X1 ** 5 * X2, degenerate, half)


class TestGrahamIntegrality:
    """Graham's question: the half cube-sum is -1/27 times an integral
    combination of equivariant classes, and 1/27 cannot be cleared."""

    def test_eq_graham_blocks_are_unimodular(self):
        # so the expansion on eq-graham is unique, and an integral class
        # has an integral expansion
        eq = c.fl_equivariant()
        fam = s.generate_family("eq-graham")
        nfs = {w: eq.normal_form(fam.table[w]) for w in weyl.all_elements()}
        dets = []
        for d in range(7):
            layer = [w for w in weyl.all_elements() if w.length == d]
            keys = [k for k in eq.basis if eq.key_degree(k) == d]
            dets.append(determinant(
                [[nfs[w].coeffs.get(k, MPoly.zero()).constant_value()
                  for w in layer] for k in keys]))
        assert dets == [1, 1, -1, 1, -1, 1, 1]

    def test_only_27_times_the_class_is_integral(self):
        eq = c.fl_equivariant()
        fam = s.generate_family("eq-graham")
        half_cubes, _ = s.graham_integrality_identity()
        t1, t2 = c.T1, c.T2
        expansion = c.schubert_expand(27 * half_cubes, fam, eq)
        assert {w.name: p for w, p in expansion.items() if not p.is_zero()} == {
            "tst": MPoly.const(-3), "st": -3 * t1 - 3 * t2,
            "t": -2 * t1 ** 2 - t1 * t2 + t2 ** 2}
        with pytest.raises(c.NonIntegralReduction, match="1/9"):
            c.schubert_expand(half_cubes, fam, eq)


class TestDuality:
    def test_identity_pairs_with_longest(self):
        fam = s.generate_family("point")
        pairing = c.duality_pairing(fam)
        assert pairing[(weyl.identity(), weyl.longest())] == 1
        s_elt = weyl.element("s")
        assert pairing[(s_elt, weyl.longest() * s_elt)] == 1
        # mismatched complementary pair
        t_elt = weyl.element("t")
        assert pairing[(s_elt, weyl.longest() * t_elt)] == 0
