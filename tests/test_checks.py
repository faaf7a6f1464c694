"""Every `g2sc verify` suite at the default seed, against the golden output.

The suites in `checks` are the one copy of the paper's checks; this module
runs each of them and compares every check's name, verdict and detail with
`perfbench/golden/verify_all.json`.  Check names carry counts ("rank 12",
"784 spanning pairs"), and details carry witnesses such as the constraint
rows of the impossibility certificate, so a drift in either fails here.
"""

import json
from pathlib import Path

import pytest

from g2schubert import checks, schubert

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
