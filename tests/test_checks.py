"""Every `g2sc verify` suite at the default seed, against the golden output.

The suites in `checks` are the one copy of the paper's checks; this module
runs each of them and compares every check's name, verdict and detail with
`perfbench/golden/verify_all.json`.  Check names carry counts ("rank 12",
"784 spanning pairs"), and details carry witnesses such as the constraint
rows of the impossibility certificate, so a drift in either fails here.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from g2schubert import checks, schubert, weyl

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
