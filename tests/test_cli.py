import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import g2schubert
from g2schubert import checks
from g2schubert.cli import main
from g2schubert.cohomring import MAX_REWRITE_TERMS
from g2schubert.exactalg import parse_poly

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def int_str_limit():
    """Python's default int-string conversion limit, 4300 digits, whatever
    the environment set it to."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "weyl")
        assert code == 0
        assert "PASS weyl:" in out
        assert "FAIL" not in out

    def test_seed_flag_recorded(self, capsys):
        code, out, _ = run(capsys, "verify", "weyl", "--seed", "7")
        assert code == 0
        assert "seed: 7" in out

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("G2SC_SEED", "99")
        code, out, _ = run(capsys, "verify", "weyl")
        assert code == 0
        assert "seed: 99" in out

    def test_seed_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("G2SC_SEED", "abc")
        code, out, err = run(capsys, "verify", "weyl")
        assert code == 2
        assert out == ""
        assert err == "error: G2SC_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("where", ["env", "flag"])
    def test_a_seed_past_the_int_string_limit_is_refused(self, capsys, monkeypatch,
                                                         int_str_limit, where):
        # one line that neither repeats the value nor sends a CLI user to
        # sys.set_int_max_str_digits()
        huge = "5" * 5000
        if where == "env":
            monkeypatch.setenv("G2SC_SEED", huge)
            code, out, err = run(capsys, "verify", "weyl")
        else:
            code, out, err = run(capsys, "verify", "weyl", "--seed", huge)
        assert (code, out) == (2, "")
        assert err == ("error: a seed of 5000 characters has more than the 4300 "
                       "digits Python converts\n")

    def test_seed_flag_not_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "weyl", "--seed", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: 'abc' is not an integer\n")

    @pytest.mark.parametrize("seed", ["٣", "１２", "1_0", "３", "+-1", ""])
    def test_a_seed_is_ascii_digits(self, capsys, monkeypatch, seed):
        # int() would take the first four, as 3, 12, 10 and 3
        with pytest.raises(SystemExit) as exc:
            main(["verify", "weyl", "--seed", seed])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --seed: {seed!r} is not an integer\n")
        monkeypatch.setenv("G2SC_SEED", seed)
        code, out, err = run(capsys, "verify", "weyl")
        assert (code, out) == (2, "")
        assert err == f"error: G2SC_SEED must be an integer, got {seed!r}\n"

    @pytest.mark.parametrize("seed,recorded", [("-3", "-3"), ("+3", "3"), (" 7 ", "7"),
                                               ("007", "7")])
    def test_a_seed_may_carry_a_sign(self, capsys, monkeypatch, seed, recorded):
        monkeypatch.setenv("G2SC_SEED", seed)
        code, out, _ = run(capsys, "verify", "weyl")
        assert code == 0
        assert f"seed: {recorded}\n" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "impossibility", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["suite"] == "impossibility"
        assert payload[0]["passed"] is True

    def test_raising_suite_is_one_failed_check(self, capsys, monkeypatch):
        def broken(report, rng):
            report.add("recorded before the error", True)
            raise ZeroDivisionError("boom")

        def stub(report, rng):
            report.add("stub", True)

        # the real suites run in test_checks; here only the isolation counts
        for name in checks.SUITE_NAMES:
            monkeypatch.setitem(checks._SUITES, name, stub)
        monkeypatch.setitem(checks._SUITES, "ring", broken)
        code, out, _ = run(capsys, "verify", "all", "--format", "json")
        assert code == 1
        reports = {rep["suite"]: rep for rep in json.loads(out)}
        assert list(reports) == list(checks.SUITE_NAMES)
        ring = reports.pop("ring")
        assert [(r["name"], r["passed"]) for r in ring["results"]] == [
            ("recorded before the error", True),
            ("ring raised ZeroDivisionError: boom", False)]
        assert ring["results"][1]["detail"].endswith("in broken")
        assert all([(r["name"], r["passed"]) for r in rep["results"]]
                   == [("stub", True)] for rep in reports.values())

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "divdiff", "--seed", "5")
        _, out2, _ = run(capsys, "verify", "divdiff", "--seed", "5")
        assert out1 == out2


class TestTable:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "point")
        assert code == 0
        assert "1/2 x1^5 x2" in out

    def test_json_roundtrips_through_parser(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "paper",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "paper"
        assert len(payload["entries"]) == 12
        for entry in payload["entries"]:
            text_terms = []
            for term in entry["terms"]:
                mono = " ".join(f"{v}^{e}" if e > 1 else v
                                for v, e in term["exps"].items())
                text_terms.append(f"({term['coeff']}) {mono}".strip())
            rebuilt = " + ".join(text_terms) if text_terms else "0"
            parse_poly(rebuilt)  # must be grammatical

    def test_entries_ordered_by_length_then_word(self, capsys):
        _, out, _ = run(capsys, "table", "--family", "point",
                        "--format", "json")
        entries = json.loads(out)["entries"]
        keys = [(e["length"], e["word"]) for e in entries]
        assert keys == sorted(keys)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, out, _ = run(capsys, "table", "--family", "point",
                           "--format", "json", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["family"] == "point"

    def test_paper_table_contains_top_class_verbatim(self, capsys):
        from g2schubert import schubert
        _, out, _ = run(capsys, "table", "--family", "paper")
        last = out.strip().splitlines()[-1]
        assert last.startswith("ststst")
        poly_text = last.split("7 6", 1)[1].strip()
        assert parse_poly(poly_text) == schubert.top_class("paper")


@pytest.mark.parametrize("argv", [("verify", "weyl"),
                                  ("verify", "weyl", "--format", "json"),
                                  ("table", "--family", "point"),
                                  ("table", "--family", "point", "--format", "json")])
def test_unwritable_out_is_one_line_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_unwritable_out_is_refused_before_the_verb_runs(capsys, tmp_path,
                                                        monkeypatch):
    def no_suite(*args):
        pytest.fail("a suite ran although --out cannot be written")

    monkeypatch.setattr(checks, "run_suite", no_suite)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "verify", "all", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_failing_verb_leaves_existing_out_untouched(capsys, tmp_path):
    path = tmp_path / "kept.txt"
    path.write_text("earlier output\n")
    code, out, err = run(capsys, "reduce", "--presentation", "Junk", "x1",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert "unknown presentation" in err
    assert path.read_text() == "earlier output\n"


class TestGrammarTranscription:
    def test_twisted_display_parses_to_the_twist(self):
        from g2schubert import schubert
        text = ("1/2 (x1^3 - 2 x1^2 y1 + x1 y1^2 - x1 y2^2 + x1 y1 y2"
                " - y1^2 y2 + y1 y2^2"
                " + 5 x1^2 v - 7 x1 y1 v + x1 y2 v + 2 y1^2 v + y1 y2 v"
                " - 2 y2^2 v + 8 x1 v^2 - 6 y1 v^2 + 2 y2 v^2 + 4 v^3)"
                " (x1^2 + x1 y1 + y1 y2 - y2^2 + x1 v + y2 v)"
                " (x2 - x1 - y2 + v)")
        assert parse_poly(text) == schubert.twist_substitution(
            schubert.top_class("paper"))


class TestReduce:
    def test_point_ring(self, capsys):
        code, out, _ = run(capsys, "reduce", "--presentation",
                           "FlIntegralPoint", "x1^3")
        assert code == 0
        assert out.strip() == "2 alpha"

    # a quadric bundle's rank may be parenthesized, and nothing else
    @pytest.mark.parametrize("name, same_as", [
        ("QuadricBundle(3)", "QuadricBundle3"), ("QuadricBundle(3)Y", "QuadricBundle3Y"),
        ("QuadricBundle(3)Fiber", "QuadricBundle3Fiber"),
        ("(FlHalfPoint)", None), ("Fl(Integral)Point", None), ("QuadricBundle(3", None)])
    def test_parenthesized_name(self, capsys, name, same_as):
        code, out, err = run(capsys, "reduce", "--presentation", name, "f^2")
        if same_as is None:
            assert code == 2
            assert err.startswith(f"error: unknown presentation {name!r}; known: ")
        else:
            assert code == 0
            assert out == run(capsys, "reduce", "--presentation", same_as, "f^2")[1]

    def test_unknown_presentation(self, capsys):
        code, _, err = run(capsys, "reduce", "--presentation", "Junk", "x1")
        assert code == 2
        assert "unknown presentation" in err

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "reduce", "--presentation",
                           "FlHalfPoint", "x1 +* x2")
        assert code == 2
        assert "offset" in err

    def test_non_integral_input(self, capsys):
        code, _, err = run(capsys, "reduce", "--presentation",
                           "FlIntegralPoint", "1/3 x1")
        assert code == 2

    def test_foreign_variables_are_named(self, capsys):
        code, _, err = run(capsys, "reduce", "--presentation", "FlHalfPoint", "y1 + v")
        assert (code, err) == (2, "error: presentation FlHalfPoint has no variable "
                                  "y1, v\n")

    def test_power_above_top_degree_is_zero(self, capsys):
        code, out, _ = run(capsys, "reduce", "--presentation",
                           "FlIntegralPoint", "x1^1600000")
        assert code == 0
        assert out.strip() == "0"

    def test_power_far_above_top_degree_is_zero(self, capsys):
        code, out, _ = run(capsys, "reduce", "--presentation",
                           "FlIntegralPoint", "x1^100000000000")
        assert code == 0
        assert out.strip() == "0"

    def test_exponent_past_two_to_the_63_is_refused(self, capsys):
        code, out, err = run(capsys, "reduce", "--presentation",
                             "FlIntegralPoint", f"x1^{2 ** 63}")
        assert (code, out) == (2, "")
        assert err == "error: exponent too large\n"

    def test_bundle_power_within_term_budget(self, capsys):
        code, out, _ = run(capsys, "reduce", "--presentation",
                           "FlIntegralBundle", "x1^30")
        assert code == 0
        # the 6377-term normal form, pinned by its sha256
        assert hashlib.sha256(out.strip().encode()).hexdigest() == (
            "e598941c4519bd1498e367eb708d105a409ad2f07674520607354e41c8fcde24")

    def test_power_of_sum_beyond_budget(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "reduce", "--presentation",
                             "FlIntegralPoint", "(x1+x2)^3000")
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert "power ^3000 of a 2-term polynomial" in err

    @pytest.mark.parametrize("text,culprit", [
        # each power is within budget alone, the input as a whole is not: a
        # binomial's ^400 charges 160 398 term products, and its ^350
        # 122 848, which the 351 x 351 product takes to 368 897
        ("(x1+x2)^400 (x1+x2)^400", "power ^400 of a 2-term polynomial"),
        ("(x1+x2)^350 * (y1+y2)^350",
         "product of a 351-term and a 351-term polynomial"),
    ], ids=["powers", "product"])
    def test_products_share_one_term_budget(self, capsys, text, culprit):
        start = time.perf_counter()
        code, out, err = run(capsys, "reduce", "--presentation",
                             "FlIntegralPoint", text)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert f"{culprit} would take this input past 300000 term products" in err

    def test_power_of_a_large_coefficient_is_refused(self, capsys):
        # one term, so almost no term products, but 3^9999999 alone has
        # about 16 million bits
        start = time.perf_counter()
        code, out, err = run(capsys, "reduce", "--presentation",
                             "FlIntegralPoint", "x1^7*3^9999999")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == ("error: power ^9999999 of a 1-term polynomial would take "
                       "this input past 100000 coefficient bits (at offset 7)\n")

    def test_a_literal_past_the_int_string_limit_is_refused(self, capsys,
                                                            int_str_limit):
        # Python's own error would end in a hint to call
        # sys.set_int_max_str_digits(), which a user of the CLI cannot do
        code, out, err = run(capsys, "reduce", "--presentation", "FlHalfPoint",
                             "x1 + " + "7" * 5000)
        assert (code, out) == (2, "")
        assert err == ("error: integer literal of 5000 digits is longer than "
                       "the 4300 digits Python converts (at offset 5)\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_result_too_long_to_print_is_refused(self, capsys, int_str_limit, fmt):
        # 2^20000 is inside the coefficient budget and has 6021 digits
        code, out, err = run(capsys, "reduce", "--presentation", "FlHalfPoint",
                             "2^20000", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("error: a number of more than 4300 digits is too long "
                       "to read or print\n")

    @pytest.mark.parametrize("text", ["x1^\u00b2", "x1^\u0661"],
                             ids=["superscript-two", "arabic-indic-one"])
    def test_a_non_ascii_digit_is_refused(self, capsys, text):
        # str.isdigit holds for both; neither is an INT of the grammar
        code, out, err = run(capsys, "reduce", "--presentation",
                             "FlIntegralPoint", text)
        assert (code, out) == (2, "")
        assert err == f"error: unexpected character {text[-1]!r} (at offset 3)\n"

    def test_bundle_power_beyond_term_budget(self, capsys):
        code, out, err = run(capsys, "reduce", "--presentation",
                             "FlIntegralBundle", "x1^200")
        assert code == 2
        assert out == ""
        assert f"MAX_REWRITE_TERMS = {MAX_REWRITE_TERMS}" in err


class TestExpand:
    def test_degree_one(self, capsys):
        code, out, _ = run(capsys, "expand", "--family", "point", "x1 + x2")
        assert code == 0
        assert out.strip().split() == ["t", "1"]

    @pytest.mark.parametrize("family,presentation,coefficients", [
        ("paper", "FlHalfBundle", {"s": [{"coeff": "1", "exps": {}}],
                                   "id": [{"coeff": "1", "exps": {"y1": 1}}]}),
        ("graham", "FlHalfBundle", {"s": [{"coeff": "1", "exps": {}}],
                                    "id": [{"coeff": "1", "exps": {"y1": 1}}]}),
        ("point", "FlHalfPoint", {"s": [{"coeff": "1", "exps": {}}]}),
        ("eq-paper", "Equivariant", {"s": [{"coeff": "1", "exps": {}}],
                                     "id": [{"coeff": "1", "exps": {"t1": 1}}]}),
        ("eq-graham", "Equivariant", {"s": [{"coeff": "1", "exps": {}}],
                                      "id": [{"coeff": "1", "exps": {"t1": 1}}]}),
    ])
    def test_each_family_defaults_to_a_presentation_it_fits(
            self, capsys, family, presentation, coefficients):
        code, out, err = run(capsys, "expand", "--family", family,
                             "--format", "json", "x1")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["presentation"] == presentation
        assert payload["coefficients"] == coefficients

    def test_twisted_fits_no_catalogue_presentation(self, capsys):
        # no presentation has v, so there is no default to fall back on
        code, out, err = run(capsys, "expand", "--family", "twisted", "x1")
        assert (code, out) == (2, "")
        assert err == ("error: family twisted fits no catalogue presentation: "
                       "none has the twisting class v\n")

    @pytest.mark.parametrize("argv,message", [
        (["--family", "paper", "--presentation", "FlHalfPoint"],
         "family paper does not fit: presentation FlHalfPoint has no variable y1, y2"),
        (["--family", "twisted", "--presentation", "FlHalfBundle"],
         "family twisted does not fit: presentation FlHalfBundle has no variable v"),
        (["--family", "point", "--presentation", "FlIntegralBundle"],
         "family point does not fit: FlIntegralBundle: coefficient 1/2 is outside "
         "the Z span"),
    ])
    def test_a_family_that_does_not_fit_is_named(self, capsys, argv, message):
        # the family's classes, not the input x1, are what the presentation
        # cannot hold
        code, out, err = run(capsys, "expand", *argv, "x1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_foreign_input_variable_is_named(self, capsys):
        code, _, err = run(capsys, "expand", "--family", "point", "x1 + y1 v")
        assert (code, err) == (2, "error: presentation FlHalfPoint has no variable "
                                  "y1, v\n")


class TestOctVerbs:
    def test_oct_mul(self, capsys):
        code, out, _ = run(capsys, "oct-mul",
                           "0,0,1,0,0,0,0,0", "0,0,0,1,0,0,0,0")
        assert code == 0
        assert out.strip() == "0,1,0,0,0,0,0,0"

    def test_kernel(self, capsys):
        code, out, _ = run(capsys, "kernel", "1,0,0,0,0,0,0")
        assert code == 0
        assert out.strip().splitlines() == [
            "1,0,0,0,0,0,0", "0,1,0,0,0,0,0", "0,0,1,0,0,0,0"]

    def test_kernel_rejects_anisotropic(self, capsys):
        assert run(capsys, "kernel", "1,0,0,0,0,0,1") == (
            2, "", "error: N(u) = -1 is nonzero\n")
        # the e-basis norm is a sum of squares: no rational vector is isotropic
        assert run(capsys, "kernel", "--basis", "e", "1,0,0,0,0,0,0") == (
            2, "", "error: N(u) = 1 is nonzero\n")

    def test_bryant(self, capsys):
        code, out, _ = run(capsys, "bryant")
        assert code == 0
        assert out == (GOLDEN / "bryant.txt").read_text()

    def test_cell_symbolic(self, capsys):
        assert run(capsys, "cell") == (0, (
            "row1: -a e - b d - c^2, a, b, c, d, e, 1\n"
            "row2: -c e g - b g + c d - a, d e g - c g - d^2, -e^2 g + d e + c,"
            " e g - d, g, 1, 0\n"
            "product is zero: True\nrows isotropic: True\n"), "")

    def test_cell_numeric(self, capsys):
        assert run(capsys, "cell", "--params", "a=0,b=0,c=0,d=0,e=0,g=0") == (0, (
            "row1: 0, 0, 0, 0, 0, 0, 1\nrow2: 0, 0, 0, 0, 0, 1, 0\n"
            "product is zero: True\nrows isotropic: True\n"), "")

    @pytest.mark.parametrize("argv, expected", [
        (["oct-mul", "1,2,-1/2,0,3,0,1,-1", "0,1,1,2/3,0,-1,0,5"],
         "5,11/3,-4,-1/3,6,-5/2,2/3,-9\n"),
        (["oct-mul", "--basis", "e", "1,2,-1/2,0,3,0,1,-1", "0,1,1,2/3,0,-1,0,5"],
         "7/2,-4/3,-4/3,-77/6,-7/3,17/6,14,17/2\n"),
        (["kernel", "1,0,1,0,-1,0,1"],
         "-1,0,0,0,1,0,0\n0,-1,0,1,0,1,0\n0,0,1,0,0,0,1\n"),
        (["kernel", "1,2,1/2,1,-2,1/2,-1"],
         "0,0,-1/4,-1/2,1,0,0\n0,-4,-2,-2,0,1,0\n-1,-4,-1,-1,0,0,1\n"),
        (["cell", "--params", "a=1,b=0,g=-1/2"],
         "row1: -c^2 - e, 1, 0, c, d, e, 1\n"
         "row2: c d + 1/2 c e - 1, -d^2 - 1/2 d e + 1/2 c, d e + 1/2 e^2 + c, -d - 1/2 e,"
         " -1/2, 1, 0\nproduct is zero: True\nrows isotropic: True\n"),
    ], ids=["oct-mul-f", "oct-mul-e", "kernel-f", "kernel-f-fractions", "cell-params"])
    def test_output_pinned(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("argv", [
        ["oct-mul", "1/0,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0"],
        ["kernel", "1,0,0,0,0,0,1/0"],
        ["cell", "--params", "a=1/0"],
    ], ids=["oct-mul", "kernel", "cell"])
    def test_zero_denominator(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: zero denominator in '1/0'\n"

    def test_a_rational_past_the_int_string_limit_is_refused(self, capsys,
                                                             int_str_limit):
        numeral = "1/" + "3" * 5000
        assert run(capsys, "oct-mul", f"{numeral},0,0,0,0,0,0,0",
                   "1,0,0,0,0,0,0,0") == (
            2, "", "error: a rational of 5002 characters has more digits than "
                   "Python converts\n")

    @pytest.mark.parametrize("numeral", ["1e9999999", "1.5", "1e3", "1_0", "0x10",
                                         "\u0661", "1/", ""])
    @pytest.mark.parametrize("verb", ["oct-mul", "kernel", "cell"])
    def test_only_p_or_p_over_q_is_a_rational(self, capsys, verb, numeral):
        # Fraction's own grammar would take the first five, and 10**9999999
        # costs seconds to build before any limit on digits applies
        argv = {"oct-mul": ["oct-mul", f"{numeral},0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0"],
                "kernel": ["kernel", f"0,0,0,0,0,0,{numeral}"],
                "cell": ["cell", "--params", f"a={numeral}"]}[verb]
        message = f"{numeral!r} is not a rational p or p/q"
        if verb == "cell" and not numeral:  # a= names the parameter instead
            message = "cell parameter 'a' has no value; give it as a=p or a=p/q"
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (["oct-mul", "1,0,0,0,0,0,0", "1,0,0,0,0,0,0,0"],
         "an octonion needs 8 coefficients: e, f1..f7"),
        (["kernel", "1,0,0,0,0,0,0,0"], "a vector needs 7 coefficients: f1..f7"),
    ], ids=["oct-mul", "kernel"])
    def test_wrong_coefficient_count(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("params", ["f=1,zz=3", "zz=1"])
    def test_cell_unknown_parameters(self, capsys, params):
        code, out, err = run(capsys, "cell", "--params", params)
        assert code == 2
        assert out == ""
        for name in (item.split("=")[0] for item in params.split(",")):
            assert repr(name) in err

    @pytest.mark.parametrize("params, message", [
        ("a=1,b=0,a=2", "repeated cell parameters: 'a'"),
        ("zz=1,zz=2", "unknown cell parameter 'zz'; the parameters are a, b, c, d, e, g"),
        ("a", "cell parameter 'a' has no value; give it as a=p or a=p/q"),
        ("a=", "cell parameter 'a' has no value; give it as a=p or a=p/q"),
        ("a= ", "cell parameter 'a' has no value; give it as a=p or a=p/q"),
        ("b=1,g", "cell parameter 'g' has no value; give it as g=p or g=p/q"),
        ("c,d=", "cell parameter 'c' has no value; give it as c=p or c=p/q")])
    def test_cell_repeated_parameter(self, capsys, params, message):
        code, out, err = run(capsys, "cell", "--params", params)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestLeadingMinus:
    """A polynomial or vector that begins with "-" is an operand, as it
    stands, before the options or after them, and still after "--"."""

    CASES = [
        (["reduce", "--presentation", "FlHalfPoint", "-x1"], "-x1\n"),
        (["expand", "-x1"], "s        -1\n"),
        (["oct-mul", "-1,0,0,0,0,0,0,0", "0,1,0,0,0,0,0,0"], "0,-1,0,0,0,0,0,0\n"),
        (["kernel", "-1,0,0,0,0,0,0"],
         "1,0,0,0,0,0,0\n0,1,0,0,0,0,0\n0,0,1,0,0,0,0\n"),
    ]

    @pytest.mark.parametrize("argv,out", CASES, ids=[a[0] for a, _ in CASES])
    def test_an_operand_may_begin_with_minus(self, capsys, argv, out):
        assert run(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ["reduce", "-x1", "--presentation", "FlHalfPoint"],
        ["reduce", "--presentation", "FlHalfPoint", "--", "-x1"],
    ])
    def test_options_after_it_and_the_double_dash_still_work(self, capsys, argv):
        assert run(capsys, *argv) == (0, "-x1\n", "")

    def test_operands_keep_their_order(self, capsys):
        # f2 f3 = f1 = -f3 f2, so a swap of u and v would flip the sign
        assert run(capsys, "oct-mul", "0,0,-1,0,0,0,0,0", "0,0,0,1,0,0,0,0") == (
            0, "0,-1,0,0,0,0,0,0\n", "")
        assert run(capsys, "oct-mul", "0,0,0,1,0,0,0,0", "0,0,-1,0,0,0,0,0") == (
            0, "0,1,0,0,0,0,0,0\n", "")

    def test_an_unknown_double_dash_option_is_still_refused(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--presentation", "FlHalfPoint", "--x1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("poly", ["-h^2", "-h^2 + f", "-h"])
    def test_an_operand_may_begin_with_h(self, capsys, poly):
        # these verbs have no -h option, so h is a variable here
        assert run(capsys, "reduce", "--presentation", "QuadricBundle3", poly) == (
            0, f"{poly}\n", "")

    @pytest.mark.parametrize("verb", ["reduce", "expand", "oct-mul", "kernel"])
    def test_help_is_the_long_option(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: g2sc {verb} [--help]")

    def test_the_program_keeps_its_short_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: g2sc [-h]")


def test_graham_top_class_reduces_and_expands_as_the_golden(capsys):
    # coefficients over 54, the normal form's integral multiple scaled once
    _, table, _ = run(capsys, "table", "--family", "graham")
    top = table.splitlines()[-1].split("7 6", 1)[1].strip()
    outs = [run(capsys, *argv, top) for argv in (
        ["reduce", "--presentation", "FlHalfBundle"],
        ["expand", "--family", "graham", "--presentation", "FlHalfBundle"])]
    assert all(code == 0 for code, _, _ in outs)
    assert "".join(out for _, out, _ in outs) == (
        GOLDEN / "graham_top_FlHalfBundle.txt").read_text()


@pytest.mark.parametrize("argv", [["oct-mul", "1,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0"],
                                  ["kernel", "1,0,0,0,0,0,0"], ["bryant"],
                                  ["cell"], ["weyl"]])
def test_text_only_verbs_reject_format(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json"])
    assert exc.value.code == 2


class TestWeylVerb:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "weyl")
        assert code == 0
        assert len(out.strip().splitlines()) == 12

    def test_element_by_pair(self, capsys):
        code, out, _ = run(capsys, "weyl", "6 3")
        assert code == 0
        assert "perm:    6 3 7 4 1 5 2" in out

    def test_element_by_word(self, capsys):
        code, out, _ = run(capsys, "weyl", "sts")
        assert code == 0
        assert "pair:    5 2" in out

    @pytest.mark.parametrize("text", ["\u00b2 1", "\u0665 \u0662"],
                             ids=["superscript", "arabic-indic"])
    def test_pair_of_non_ascii_digits_exits_2(self, capsys, text):
        code, out, err = run(capsys, "weyl", text)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse Weyl element {text!r}\n"


def test_stdout_closed_early_is_exit_1_without_traceback():
    # the JSON is about 0.5 MB, more than a pipe holds, so the writer is
    # still writing when the reader closes its end after the first line
    env = dict(os.environ, PYTHONPATH=str(Path(g2schubert.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "g2schubert.cli", "reduce", "--presentation",
         "FlIntegralBundle", "--format", "json",
         "(y1+c1F+c2F+c3F+c1Q+c2Q+c3Q)^8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert b"Traceback" not in err and err == b""
    assert code == 1
