"""Tests of the benchmark itself: inputs, accounting, tracing and checks.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
import sympy

import bench_golden
import bench_speed
import bench_trace
import bench_workloads as bw
import run

ROOT = Path(run.__file__).resolve().parents[1]


@pytest.fixture
def prog():
    return bw.Program()


# ---- inputs ----

def test_inputs_depend_only_on_the_seed():
    assert bw.reduce_inputs(3) == bw.reduce_inputs(3)
    assert bw.reduce_inputs(3) != bw.reduce_inputs(4)
    assert bw.divdiff_inputs(3) == bw.divdiff_inputs(3)
    assert bw.divdiff_inputs(3) != bw.divdiff_inputs(4)


def test_request_mix_is_fixed_up_front():
    shape = [(r.verb, r.presentation, r.family) for r in bw.reduce_inputs(1)]
    assert shape == [(r.verb, r.presentation, r.family)
                     for r in bw.reduce_inputs(2)]
    twisted = [t for _, t in bw.divdiff_inputs(1)]
    assert twisted == [t for _, t in bw.divdiff_inputs(2)]


def test_requests_parse_into_their_presentation(prog):
    for req in bw.reduce_inputs(5)[:len(bw.REDUCE_BLOCK)]:
        poly = prog.exactalg.parse_poly(req.text)
        prog.cohomring.get_presentation(req.presentation).check_variables(poly)


# ---- the arithmetic the workloads lean on, against sympy ----

def _to_sympy(poly, mpoly_module):
    symbols = sympy.symbols(mpoly_module.VARIABLES)
    expr = sympy.Integer(0)
    for exp, coef in poly.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for sym, e in zip(symbols, exp):
            term *= sym ** e
        expr += term
    return sympy.expand(expr), symbols


def test_mul_subs_exact_divide_agree_with_sympy(prog):
    texts = [t for t, _ in bw.divdiff_inputs(7)[:6]]
    polys = [prog.exactalg.parse_poly(t) for t in texts]
    mp = prog.mpoly
    data = bw._operator_data(prog)
    for f, g in zip(polys, polys[1:]):
        fs, syms = _to_sympy(f, mp)
        gs, _ = _to_sympy(g, mp)
        assert sympy.expand(_to_sympy(f * g, mp)[0] - fs * gs) == 0
        names = dict(zip(mp.VARIABLES, syms))
        for kind, (root, action) in data.items():
            image = {names[v]: _to_sympy(p, mp)[0] for v, p in action.items()}
            expected = sympy.expand(fs.subs(image, simultaneous=True))
            assert sympy.expand(_to_sympy(f.subs(action), mp)[0] - expected) == 0
            root_s = _to_sympy(root, mp)[0]
            quotient = mp.exact_divide(f * root, root)
            q, r = sympy.div(sympy.expand(fs * root_s), root_s, *syms)
            assert r == 0
            assert sympy.expand(_to_sympy(quotient, mp)[0] - q) == 0


# ---- timing and failure accounting ----

def test_tail_level_leaves_ten_samples_beyond():
    assert run.tail_level(100) == 90
    assert run.tail_level(200) == 95
    assert run.tail_level(9) == 100
    for n in (11, 37, 60, 101, 300):
        level = run.tail_level(n)
        assert n * (100 - level) >= 1000 > n * (100 - level - 1)


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 100) == 100.0


def test_a_raising_op_is_one_failure_and_the_pass_goes_on(prog):
    cohomring = prog.cohomring

    def raises(exc):
        def op():
            raise exc
        return op

    ops = [
        bw.Op("a", raises(cohomring.NonIntegralReduction("x")), lambda r: None, str),
        bw.Op("b", raises(cohomring.NotInSpan("y")), lambda r: None, str),
        bw.Op("c", raises(ArithmeticError("rewriting diverged")),
              lambda r: None, str),
        bw.Op("d", lambda: 1, lambda r: None, str),
    ]
    res = run.run_pass(ops, check=True)
    assert len(res.failures) == 3
    assert res.renders[-1] == "1"
    assert len(res.times) == 4


def test_a_changed_output_on_a_later_pass_fails(prog):
    ops = [bw.Op("a", lambda: 1, lambda r: None, str)]
    res = run.run_pass(ops, check=False, reference=["2"])
    assert res.failures == ["a: output differs from the first pass"]


# ---- set-up and the host-speed probe ----

def test_cold_setup_times_a_fresh_interpreter():
    assert run.cold_setup("divdiff", 1) > 0


def test_run_length_defaults_to_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.default_seconds() == spec["run_seconds"]


def test_speed_factor_averages_the_samples_near_an_interval():
    probe = bench_speed.SpeedProbe()
    probe.at = [0.0, 1.0, 2.0, 10.0]
    probe.speed = [1.0, 0.5, 0.25, 2.0]
    assert probe.factor(1.0, 2.0) == pytest.approx(0.375)
    assert probe.factor(0.9, 1.1) == 0.5
    with pytest.raises(RuntimeError):
        probe.factor(5.0, 6.0)


def test_a_live_probe_samples_the_host():
    probe = bench_speed.SpeedProbe()
    probe.start()
    try:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.speed) >= 3
    assert probe.factor(start, perf_counter()) > 0


def test_probe_time_is_left_out_of_op_times():
    probe = bench_speed.SpeedProbe()

    def op():
        for _ in range(20):
            probe._sample(None, None)

    res = run.run_pass([bw.Op("a", op, lambda r: None, str)], check=True,
                       probe=probe)
    assert 0 <= res.times[0] < 0.1 * probe.spent


# ---- the exact checks catch wrong answers ----

def test_divdiff_check_catches_a_wrong_quotient(prog):
    ops = bw.divdiff_ops(prog, bw.divdiff_inputs(2)[:3])
    original = prog.schubert.div_diff
    prog.schubert.div_diff = lambda kind, f: original(kind, f) + 1
    try:
        chain = ops[2]
        assert chain.check(chain.run()) is not None
    finally:
        prog.schubert.div_diff = original
    assert chain.check(chain.run()) is None


def test_reduce_check_catches_a_wrong_expansion(prog):
    req = next(r for r in bw.reduce_inputs(2) if r.family == "point")
    op = bw.reduce_ops(prog, [req])[0]
    pres, fam, nf, expansion = op.run()
    assert op.check((pres, fam, nf, expansion)) is None
    w = next(iter(expansion))
    expansion[w] = expansion[w] + 1
    assert op.check((pres, fam, nf, expansion)) is not None


# ---- tracing ----

def test_tracer_counts_reflected_dunders_and_restores(prog):
    mpoly_cls = prog.mpoly.MPoly
    original_mul = mpoly_cls.__dict__["__mul__"]
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer, prog)
    x1, x2 = mpoly_cls.var("x1"), mpoly_cls.var("x2")
    tracer.active = True
    start = perf_counter()
    product = 2 * x1 * x1 + x2
    prog.schubert.div_diff("s", product)
    wall = perf_counter() - start
    tracer.active = False
    tracer.restore()
    assert tracer.calls("mpoly.mul") >= 2
    assert tracer.calls("mpoly.exact_divide") == 1
    assert tracer.calls("schubert.div_diff") == 1
    assert tracer.counters["mpoly.mul.term_pairs"] >= 2
    assert tracer.self_sum() <= wall
    assert mpoly_cls.__dict__["__mul__"] is original_mul
    assert prog.schubert.exact_divide is prog.mpoly.exact_divide


def test_span_cost_is_taken_out_of_self_times():
    tracer = bench_trace.Tracer()
    tracer.stats = {"outer": [1, 1.0, 0.5, 3], "inner": [3, 0.5, 0.5, 0]}
    tracer.cost_in, tracer.cost_out = 0.01, 0.1
    assert tracer.self_s("outer") == pytest.approx(0.5 - 0.01 - 3 * 0.1)
    assert tracer.self_s("inner") == pytest.approx(0.5 - 3 * 0.01)
    assert tracer.self_sum() == pytest.approx(0.66)
    tracer.measure_span_cost(calls=2000, repeats=3)
    assert tracer.cost_in + tracer.cost_out > 0


def test_traced_divdiff_pass_does_no_rewriting(prog, tmp_path):
    ops = bw.divdiff_ops(prog, bw.divdiff_inputs(1)[:5])
    tracer = bench_trace.Tracer(max_mpoly_spans=1000)
    tracer.measure_span_cost(calls=2000, repeats=3)
    bench_trace.install(tracer, prog)
    res = run.run_pass(ops, check=False, tracer=tracer)
    info = prog.family_cache.cache_info()
    tracer.restore()
    metrics = bench_trace.layer_metrics(tracer, info, res.wall, res.wall)
    assert not res.failures
    assert metrics["cohomring.reduce_monomial.calls"]["value"] == 0
    assert metrics["schubert.div_diff.calls"]["value"] > 0
    assert tracer.self_sum() <= res.wall
    assert tracer.dropped > 0
    tracer.write_spans(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    name, start, end, parent, run_id = json.loads(lines[-1])
    assert end >= start and parent < len(lines)


def test_layer_metrics_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    tracer = bench_trace.Tracer()

    class Info:
        hits = misses = 0

    names = set(bench_trace.layer_metrics(tracer, Info, 0.0, 0.0))
    assert declared == names | {"ops.failed_ratio"}


# ---- golden outputs ----

def test_tables_match_the_golden_files(prog):
    golden = bench_golden.load()
    for kind in prog.schubert.FAMILY_KINDS:
        assert bench_golden.table_json(prog, kind) == golden["tables"][kind]


def test_divdiff_outputs_match_the_golden_digest(prog):
    golden = bench_golden.load()
    ops = bw.make_ops("divdiff", prog, bw.make_inputs("divdiff", 0))
    renders = [op.render(op.run()) for op in ops]
    assert bench_golden.digest(renders) == golden["digests"]["divdiff"]["0"]


# ---- the benchmark refuses to run without the program ----

def test_bare_copy_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "divdiff",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
