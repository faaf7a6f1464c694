"""Every `g2sc verify` suite at the default seed, against the golden output.

The suites in `checks` are the one copy of the paper's checks; this module
runs each of them and compares every check's name, verdict and detail with
`perfbench/golden/verify_all.json`.  Check names carry counts ("rank 12",
"784 spanning pairs"), and details carry witnesses such as the constraint
rows of the impossibility certificate, so a drift in either fails here.
"""

import dataclasses
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from g2schubert import checks, cohomring, octonion, schubert, weyl
from g2schubert.exactalg import MPoly, mpoly, parse
from g2schubert.exactalg.mpoly import addmul

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify_all.json"


def _golden():
    return {rep["suite"]: rep for rep in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("name", checks.SUITE_NAMES)
def test_suite_matches_golden(name):
    golden = _golden()[name]
    expected = [(r["name"], r["passed"], r["detail"]) for r in golden["results"]]
    report = checks.run_suite(name)
    got = [(r.name, r.passed, r.detail) for r in report.results]
    mismatched = [g for g in got if g not in expected] + [
        f"missing: {e}" for e in expected if e not in got]
    assert got == expected, "\n".join(map(str, mismatched))


def test_graham_check_fails_when_the_class_is_integral(monkeypatch):
    # a mutant whose half cube-sum is 27 times the real one: its class is
    # integral, which the check must see by expanding it
    real = schubert.graham_integrality_identity

    def mutant():
        half_cubes, combo27 = real()
        return 27 * half_cubes, combo27

    monkeypatch.setattr(schubert, "graham_integrality_identity", mutant)
    verdicts = {r.name: r.passed for r in checks.run_suite("equivariant").results}
    assert verdicts["27 times the class has an integral expansion, the class "
                    "itself does not"] is False


def _impossibility_verdicts(monkeypatch, mutate):
    real = schubert.impossibility_certificate
    monkeypatch.setattr(schubert, "impossibility_certificate",
                        lambda: mutate(real()))
    return {r.name: r.passed for r in checks.run_suite("impossibility").results}


def test_derivable_refuses_a_wrong_constant(monkeypatch):
    # a mutant whose row a + b - d - e = 1/2 reads = 5/2: with a = e the
    # equations then force b - d = 5/2, not 1/2
    def mutate(cert):
        rhs = [Fraction(5, 2) if row == [1, 1, 0, -1, -1] else value
               for row, value in zip(cert.matrix, cert.rhs)]
        assert rhs != cert.rhs
        return dataclasses.replace(cert, rhs=rhs)

    verdicts = _impossibility_verdicts(monkeypatch, mutate)
    assert verdicts["ds P = P_tst forces a = e and b - d = 1/2"] is False
    assert verdicts["dt P = 0 forces d + 2e = 0 and b + c + d + e = 0"] is True


def test_derived_contradiction_must_be_one_half(monkeypatch):
    def mutate(cert):
        linear = dataclasses.replace(cert.linear, value=Fraction(1))
        return dataclasses.replace(cert, linear=linear)

    verdicts = _impossibility_verdicts(monkeypatch, mutate)
    assert verdicts["after substitution the equations derive 0 = 1/2"] is False


def test_length_rule_check_names_the_broken_entry(monkeypatch):
    real = schubert.generate_family

    def mutant(kind, w0_word=None):
        fam = real(kind, w0_word)
        if kind != "point":
            return fam
        table = dict(fam.table)
        table[weyl.element("st")] = table[weyl.element("ts")]
        return schubert.SchubertFamily(kind, table)

    monkeypatch.setattr(schubert, "generate_family", mutant)
    results = {r.name: r for r in checks.run_suite("families").results}
    check = results["point: divided differences act by the length rule "
                    "(all 12 x 2 cases)"]
    assert not check.passed
    assert check.detail.startswith("fails at ")
    assert results["paper: divided differences act by the length rule "
                   "(all 12 x 2 cases)"].passed


def _failed(name):
    return [r.name for r in checks.run_suite(name).results if not r.passed]


def _wrong_gamma_sign(monkeypatch):
    """gamma of the f-basis with (1,5,6) = 1 instead of -1: still
    alternating, so the minimal equation and adjointness hold, but it is no
    longer compatible with beta.  Returns the mutant f-basis algebra."""
    real = octonion.standard_forms

    def mutant(basis_kind="f"):
        ctx = real(basis_kind)
        if basis_kind != "f":
            return ctx
        gamma = octonion.TriForm({**ctx.gamma.coeffs, (1, 5, 6): 1})
        return octonion.AlgebraCtx(gamma, ctx.beta, "f")

    monkeypatch.setattr(octonion, "standard_forms", mutant)
    return mutant()


def test_octonion_suite_sees_a_wrong_gamma_sign(monkeypatch):
    _wrong_gamma_sign(monkeypatch)
    assert _failed("octonion") == [
        "norm composition on 200 random pairs",
        "Bryant form recovers the standard bilinear form",
        "compatibility identity on 784 spanning pairs",
        "big cell rows multiply to zero, symbolically",
        "orthonormal-basis forms push to the isotropic-basis forms",
    ]


def _wrong_root_sign(monkeypatch):
    # ds divides by x2 - x1: -ds still squares to zero, and both braid words
    # hold three s letters, so only the root dictionary and the worked
    # examples can tell
    monkeypatch.setitem(schubert._ROOTS, "s", schubert.X2 - schubert.X1)


def test_divdiff_suite_sees_a_wrong_root_sign(monkeypatch):
    _wrong_root_sign(monkeypatch)
    assert _failed("divdiff") == [
        "root-dictionary operator matches the explicit ones",
        "examples: ds x1 = 1, ds x2 = -1, ds x1x2 = 0",
    ]


def _details(name):
    return {r.name: r.detail for r in checks.run_suite(name).results if not r.passed}


def test_a_failed_check_names_its_first_failing_case(monkeypatch):
    # the norm check draws first in its suite, so its pairs are the first
    # draws at the seed; the first of them that breaks the mutant's norm
    # composition is the witness
    ctx = _wrong_gamma_sign(monkeypatch)
    rng = random.Random(checks.DEFAULT_SEED)
    pairs = ((checks.random_oct(rng), checks.random_oct(rng)) for _ in range(200))
    first = next((u, v) for u, v in pairs
                 if ctx.norm(ctx.mul(u, v)) != ctx.norm(u) * ctx.norm(v))
    assert _details("octonion")["norm composition on 200 random pairs"] == (
        f"fails at {first}")


def test_the_root_dictionary_check_names_its_case(monkeypatch):
    # its first case is ds of the suite's first random polynomial
    _wrong_root_sign(monkeypatch)
    f = checks._random_x_polys(random.Random(checks.DEFAULT_SEED), 1)[0]
    detail = _details("divdiff")["root-dictionary operator matches the explicit ones"]
    assert detail == f"fails at {('s', f, schubert.div_diff('s', f))}"


def test_positivity_names_the_first_class_without_a_positive_rewrite(monkeypatch):
    # -P_s = -x1 has no positive rewrite: one failed check, which names s
    real = schubert.generate_family

    def mutant(kind, w0_word=None):
        fam = real(kind, w0_word)
        if kind != "point":
            return fam
        s = weyl.element("s")
        return schubert.SchubertFamily(kind, {**fam.table, s: -fam.table[s]})

    monkeypatch.setattr(schubert, "generate_family", mutant)
    assert _details("positivity") == {
        "all 12 point-family classes rewrite positively": "fails at WeylElt(s, 2 1)"}


BRUHAT = "Bruhat order matches the full dihedral Hasse diagram"


def test_a_case_that_raises_fails_its_check_alone(monkeypatch):
    # the seventh comparison is (id, tst), the seventh element in order
    real, calls = weyl.bruhat_leq, []

    def raising(u, w):
        calls.append((u, w))
        if len(calls) == 7:
            raise ZeroDivisionError("seventh comparison")
        return real(u, w)

    monkeypatch.setattr(weyl, "bruhat_leq", raising)
    results = checks.run_suite("weyl").results
    assert len(results) == len(_golden()["weyl"]["results"])
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        (BRUHAT, "raised ZeroDivisionError: seventh comparison "
                 f"at {(weyl.identity(), weyl.element('tst'))}")]


def test_a_check_draws_no_case_past_its_first_failure(monkeypatch):
    # with the twist broken, the first of the 20 random samples fails, and
    # the other 19 are never drawn
    real_draw, draws = checks.random_mpoly, []

    def counting(*args, **kwargs):
        draws.append(real_draw(*args, **kwargs))
        return draws[-1]

    monkeypatch.setattr(checks, "random_mpoly", counting)
    monkeypatch.setattr(schubert, "twist_substitution",
                        lambda f, direction="forward": f + 1)
    details = _details("families")
    assert len(draws) == 1
    sample = draws[0].integral_multiple()[0]
    assert details["twist then untwist is the identity"] == f"fails at {sample}"


class TestCheck:
    """SuiteReport.check on its own: a verdict over cases, in order."""

    def _run(self, cases, holds):
        report = checks.SuiteReport("test", 0)
        report.check("c", cases, holds)
        (result,) = report.results
        return result.passed, result.detail

    def test_passes_when_every_case_holds(self):
        assert self._run(range(5), lambda n: n < 5) == (True, "")

    def test_names_the_first_case_that_does_not_hold(self):
        assert self._run(range(5), lambda n: n < 2) == (False, "fails at 2")

    def test_draws_nothing_past_the_first_failure(self):
        drawn = []

        def cases():
            for n in range(5):
                drawn.append(n)
                yield n

        self._run(cases(), lambda n: n != 1)
        assert drawn == [0, 1]

    def test_a_case_that_raises_fails_the_check(self):
        assert self._run([1, 0, 2], lambda n: 1 // n) == (
            False, "raised ZeroDivisionError: integer division or modulo by zero at 0")

    def test_a_draw_that_raises_fails_the_check(self):
        def cases():
            yield 1
            raise KeyError("x")

        assert self._run(cases(), lambda n: True) == (
            False, "raised KeyError: 'x' while drawing a case")


EMBEDDING = ("integral bundle ring embeds consistently in the half ring "
             "(50 random classes)")


def _negated_line(monkeypatch):
    # alpha -> half prod(-x1 - r): still of degree 3, but 2 alpha is no
    # longer x1^3 - c1F x1^2 + c2F x1 - c3F in the half ring
    real = cohomring.chern_tensor_line
    monkeypatch.setattr(cohomring, "chern_tensor_line",
                        lambda c, line: real(c, -line))


def _perturbed_x1_rule(monkeypatch):
    # x1^3 -> ... + y1^3 in FlIntegralBundleY alone: a ring of its own, whose
    # cube no longer matches the half ring's
    real = cohomring.PRESENTATION_FACTORIES["FlIntegralBundleY"]

    def mutant():
        p = real()
        rules = [cohomring.Rule(r.var, r.power,
                                r.rhs + cohomring.Y1 ** 3 if r.var == "x1" else r.rhs)
                 for r in p.rules]
        return cohomring.Presentation(p.name, p.main_vars, p.base_vars, rules,
                                      p.ring, p.expected_rank, p.degrees)

    monkeypatch.setitem(cohomring.PRESENTATION_FACTORIES, "FlIntegralBundleY", mutant)


@pytest.mark.parametrize("mutate, witness", [
    (_negated_line, "x1 * x1^2: x1^3 directly, -x1^3 - 2 x1 y1^2 - 2 x1 y1 y2 "
                    "+ 2 x1 y2^2 via its normal form"),
    (_perturbed_x1_rule, "x1 * x1^2: x1^3 directly, x1^3 + y1^3 via its normal form"),
], ids=["negated line", "perturbed x1 rule"])
def test_ring_suite_sees_a_wrong_embedding(monkeypatch, mutate, witness):
    # the classes are x1 times a basis combination, so x1 * x1^2 is rewritten
    # by the x1 rule before alpha is substituted
    mutate(monkeypatch)
    failed = [r for r in checks.run_suite("ring").results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [(EMBEDDING, witness)]


def _embedding_rings():
    return (cohomring.get_presentation("FlIntegralBundleY"),
            cohomring.fl_half_bundle())


def test_embedding_is_a_ring_map_on_every_generator_step():
    # direct == via_nf on x_g b for every generator g and basis monomial b
    # proves the substitution kills the whole ideal; only the border
    # products, those x_g b that are not basis monomials, can tell
    source, target = _embedding_rings()
    border = {}
    for gen in source.main_vars:
        sides = checks.embedding_sides(source, target, gen)
        assert [str(b) for b, direct, via_nf in sides if direct != via_nf] == []
        products = [(MPoly.var(gen) * b).split(source.main_vars) for b, _, _ in sides]
        border[gen] = sum(key not in source.basis for (key,) in products)
    assert border == {"x1": 4, "x2": 6, "alpha": 6}


def test_embedding_sides_add_up_to_each_class():
    # the suite's shortcut against the direct computation of each side, one
    # substitution and one reduction per class x1 sum c_k b_k
    source, target = _embedding_rings()
    phi = checks.half_ring_embedding()
    sides = checks.embedding_sides(source, target, "x1")
    rng = random.Random(5)
    for _ in range(3):
        coeffs = [rng.randint(-3, 3) for _ in sides]
        cls = MPoly.var("x1") * sum(
            (c * b for c, (b, _, _) in zip(coeffs, sides)), MPoly.zero())
        direct = target.reduce_poly(cls.subs(phi))
        via_nf = target.reduce_poly(source.normal_form(cls).as_poly().subs(phi))
        assert direct == sum((c * d for c, (_, d, _) in zip(coeffs, sides)),
                             MPoly.zero())
        assert via_nf == sum((c * v for c, (_, _, v) in zip(coeffs, sides)),
                             MPoly.zero())


def _old_oct_draw(rng):
    return octonion.Oct(checks.random_fraction(rng), octonion.VecV(
        [checks.random_fraction(rng) for _ in range(7)]))


def _old_isotropic_draw(rng):
    while True:
        tail = [checks.random_fraction(rng) for _ in range(6)]
        if tail[5] != 0:
            u2, u3, u4, u5, u6, u7 = tail
            return octonion.VecV([-(u2 * u6 + u3 * u5 + u4 * u4) / u7] + tail)


def _twist_sample(rng):
    return checks.random_mpoly(rng, ("x1", "x2", "y1", "y2"), 5, 8)


# each integral draw of the suites, and the rational draw it is a multiple of
_DRAWS = {
    "octonion": (checks.random_oct, _old_oct_draw),
    "isotropic vector": (checks.random_isotropic_vec, _old_isotropic_draw),
    "divdiff polynomials": (
        lambda rng: checks._random_x_polys(rng, 50),
        lambda rng: [checks.random_mpoly(rng, ("x1", "x2"), 6, 6) for _ in range(50)]),
    "twist sample": (lambda rng: [_twist_sample(rng).integral_multiple()[0]],
                     lambda rng: [_twist_sample(rng)]),
}


def _groups(draw):
    """The draw's (position, value) pairs, one list per multiple taken."""
    if isinstance(draw, octonion.Oct):
        return [list(enumerate([draw.re, *draw.im.coords]))]
    if isinstance(draw, octonion.VecV):
        return [list(enumerate(draw.coords))]
    return [list(f.terms()) for f in draw]


@pytest.mark.parametrize("draw", _DRAWS)
def test_integral_draw_is_the_multiple_of_the_rational_draw(draw):
    integral_draw, rational_draw = _DRAWS[draw]
    for seed in range(20):
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        new, old = _groups(integral_draw(new_rng)), _groups(rational_draw(old_rng))
        # the same calls to the generator, so the suite's later draws agree
        assert new_rng.getstate() == old_rng.getstate()
        assert len(new) == len(old)
        for got, rational in zip(new, old):
            assert all(type(x) is int for _, x in got)
            d = lcm(*(Fraction(x).denominator for _, x in rational))
            assert got == [(k, x * d) for k, x in rational]


# Fraction-valued terms passed to addmul (in every module that calls it) by
# each suite at the default seed, run in order from a cleared family cache:
# a term counts when its coefficient, or the coefficient addmul scales it by,
# is a Fraction.  Counts are exact and repeatable where times are not.  Most
# of what is left in ring and equivariant is the Fraction(1) seed of
# Presentation._rewrite; seeding it with the int 1 lowers these pins, and a
# change that lowers a count lowers its pin and says so in CHANGES.md.
FRACTION_TERMS = {"octonion": 0, "weyl": 0, "divdiff": 148, "families": 2088,
                  "ring": 5284, "equivariant": 2876, "impossibility": 5,
                  "positivity": 63, "quadric": 804}


def test_fraction_work_is_pinned(monkeypatch):
    counts = dict.fromkeys(checks.SUITE_NAMES, 0)
    suite = None

    def counting(acc, terms, coef=None, shift=mpoly.ONE_KEY):
        values = mpoly.key_terms(terms).values()
        counts[suite] += (len(values) if type(coef) is Fraction else
                          sum(type(x) is Fraction for x in values))
        addmul(acc, terms, coef, shift)

    for module in (mpoly, cohomring, parse, checks, schubert):
        monkeypatch.setattr(module, "addmul", counting)
    schubert.generate_family.cache_clear()
    for suite in checks.SUITE_NAMES:
        assert checks.run_suite(suite).passed, suite
    assert counts == FRACTION_TERMS
