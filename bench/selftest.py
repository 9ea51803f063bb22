"""Steadiness self-test of the benchmark.

Usage (from the repository root):

    python3 bench/selftest.py                      # check
    python3 bench/selftest.py --update-reference   # rewrite bench/reference.json

Runs every workload twice at the default seed, each run a fresh
``bench/run.py`` process with tracing on, and checks that the two runs agree:
every ``calls``/``draws`` count of every traced pass repeats exactly, and
every checked output matches bit for bit.  Each run also compares its
outputs with ``bench/reference.json`` within 1e-12 and must report
``correct``.  With ``--update-reference`` the reference is cleared first
and then rewritten from the first run of each workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
RUN_TIMEOUT_S = 600

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run_once(name: str) -> tuple[dict, dict]:
    """One traced run at the default seed: (final JSON line, run record)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(workloads.DEFAULT_SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(ROOT / ".bench_out" / f"{name}-seed{workloads.DEFAULT_SEED}-trace1.json", encoding="utf-8") as fh:
        return result, json.load(fh)


def counts(record: dict) -> list[dict]:
    return [{span: (v["calls"], v["draws"]) for span, v in layer.items()} for layer in record["layers"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    if args.update_reference:
        REFERENCE.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "workloads": {}}) + "\n")
    reference = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    problems = []
    for name in workloads.WORKLOADS:
        (res1, rec1), (res2, rec2) = run_once(name), run_once(name)
        layer_counts = counts(rec1) + counts(rec2)
        checks = {
            "counts repeat": all(c == layer_counts[0] for c in layer_counts),
            "outputs bit-identical": rec1["numbers"] == rec2["numbers"],
            "failures repeat": (res1["attempted"], res1["failed"]) == (res2["attempted"], res2["failed"]),
            "outputs correct": args.update_reference or (res1["correct"] and res2["correct"]),
        }
        for check, ok in checks.items():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {check}")
            if not ok:
                problems.append(f"{name}: {check}")
        reference["workloads"][name] = {
            op: None if nums is None else [float.fromhex(x) for x in nums] for op, nums in rec1["numbers"].items()
        }
    if args.update_reference and not problems:
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
