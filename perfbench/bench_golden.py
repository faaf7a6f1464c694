"""Golden outputs of the program, captured once and compared byte for byte.

The golden directory holds:

  verify_all.json     `g2sc verify all --format json` at the default seed
  table_<kind>.json   `g2sc table --family <kind> --format json`, six kinds
  digests.json        SHA-256 of the rendered outputs of the reduce and
                      divdiff workloads, for each captured workload seed

Run this file to capture them again from the program under src/:

    python3 perfbench/bench_golden.py

Capture only from a commit whose outputs are known to be right: every later
run is compared against these files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, List

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DIGEST_SEEDS = range(20)


def cli_output(prog, argv: List[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prog.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"g2sc {' '.join(argv)} exited {code}")
    return out.getvalue()


def verify_all_json(suite_outputs: List[str]) -> str:
    """The `verify all --format json` text, rebuilt from the outputs of
    `verify <suite> --format json` for each suite in order."""
    payload = []
    for text in suite_outputs:
        payload.extend(json.loads(text))
    return json.dumps(payload, indent=2) + "\n"


def table_json(prog, kind: str) -> str:
    return cli_output(prog, ["table", "--family", kind, "--format", "json"])


def digest(renders: List[str]) -> str:
    h = hashlib.sha256()
    for text in renders:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def load() -> Dict:
    tables = {}
    for path in sorted(GOLDEN_DIR.glob("table_*.json")):
        tables[path.stem.removeprefix("table_")] = path.read_text()
    return {
        "verify_all": (GOLDEN_DIR / "verify_all.json").read_text(),
        "tables": tables,
        "digests": json.loads((GOLDEN_DIR / "digests.json").read_text()),
    }


def compare(prog, workload: str, seed: int, renders: List[str],
            golden: Dict) -> Dict[str, bool]:
    """Each golden comparison that applies to this run, by name."""
    results = {}
    if workload == "verify":
        results["verify_all"] = verify_all_json(renders) == golden["verify_all"]
    else:
        expected = golden["digests"][workload].get(str(seed))
        if expected is not None:
            results[f"{workload}_digest"] = digest(renders) == expected
    for kind in prog.schubert.FAMILY_KINDS:
        results[f"table_{kind}"] = table_json(prog, kind) == golden["tables"].get(kind)
    return results


def capture():
    import bench_workloads as bw

    GOLDEN_DIR.mkdir(exist_ok=True)
    prog = bw.Program()
    text = cli_output(prog, ["verify", "all", "--format", "json", "--seed",
                             str(prog.checks.DEFAULT_SEED)])
    (GOLDEN_DIR / "verify_all.json").write_text(text)
    for kind in prog.schubert.FAMILY_KINDS:
        (GOLDEN_DIR / f"table_{kind}.json").write_text(table_json(prog, kind))
    digests: Dict[str, Dict[str, str]] = {}
    for workload in ("reduce", "divdiff"):
        digests[workload] = {}
        for seed in DIGEST_SEEDS:
            prog.reset_caches()
            ops = bw.make_ops(workload, prog, bw.make_inputs(workload, seed))
            digests[workload][str(seed)] = digest(
                [op.render(op.run()) for op in ops])
            print(f"captured {workload} seed {seed}", flush=True)
    (GOLDEN_DIR / "digests.json").write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import run  # puts the checkout's src/ on sys.path

    run.use_checkout_source()
    capture()
