"""Run one levylab benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's operations run one at a time in this process (a closed loop
with one client), in passes: each pass builds the inputs fresh from the
seed, then times every operation, then checks its output.  Passes repeat
for about ``--seconds``: a round of passes that would end past that time is
not started, but the first round always runs.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it, starting with ``#``, repeat every metric
with its unit for people.  A record of the run, with the spans of the last
traced pass, is written to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
MIN_SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCE_TOL = 1e-12

# where the per-layer metrics are listed; run.py reports exactly those
BENCHMARK = ROOT / "BENCHMARK.json"
OVERHEAD_METRIC = "trace.overhead_s"
LAYER_KINDS = ("s", "calls", "draws")


def per_layer_metrics(draw_args: dict) -> list[tuple[str, str, str]]:
    """``(boundary, kind, unit)`` of every per-layer metric BENCHMARK.json lists.

    A metric ``<module>.<attribute>.<kind>`` is the self time (``s``) or the
    call or draw count of the boundary ``<module>.<attribute>``;
    ``trace.overhead_s`` is computed apart and is not among them.
    """
    with open(BENCHMARK, encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer"]
    metrics = []
    for entry in listed:
        if entry["name"] == OVERHEAD_METRIC:
            continue
        boundary, _, kind = entry["name"].rpartition(".")
        if boundary.count(".") != 1 or kind not in LAYER_KINDS:
            raise ValueError(f"per-layer metric {entry['name']!r} is not <module>.<attribute>.<s|calls|draws>")
        if kind == "draws" and boundary not in draw_args:
            raise ValueError(f"per-layer metric {entry['name']!r}: no draw count is recorded for {boundary}")
        metrics.append((boundary, kind, entry["unit"]))
    return metrics


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; returns the setting."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def machine(threads: dict) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "threads": threads,
    }


def probe_setup(workload: str, seed: int, tmpdir: Path) -> float:
    """Seconds from the start of a fresh set-up process to its 'ready' line."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(tmpdir)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} exited with {proc.returncode}")
    return elapsed


def _reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["workloads"].get(workload) if ref["seed"] == seed else None


class Run:
    """Counters and records of one benchmark run."""

    def __init__(self, reference: dict | None, known_failures: dict[str, type]):
        self.reference = reference
        self.known_failures = known_failures
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.numbers: dict[str, list[float] | None] = {}
        self.errors: dict[str, str] = {}
        self.op_times: dict[str, list[float]] = {}

    def _problems(self, name: str, numbers: list[float]) -> list[str]:
        problems = []
        first = self.numbers.setdefault(name, numbers)
        if first is not None and [x.hex() for x in first] != [x.hex() for x in numbers]:
            problems.append("output differs from the first pass of this run")
        ref = (self.reference or {}).get(name)
        if ref is not None:
            if len(ref) != len(numbers):
                problems.append(f"{len(numbers)} numbers, reference has {len(ref)}")
            else:
                worst = max((abs(a - b) for a, b in zip(numbers, ref)), default=0.0)
                if not worst <= REFERENCE_TOL:
                    problems.append(f"differs from the reference by {worst:.3e}")
        return problems

    def one_pass(self, workload, seed: int, tmpdir: str, tracer=None) -> float:
        """Build inputs, time each operation, check each output; returns the summed op time."""
        with tracer.span("bench.build") if tracer else nullcontext():
            ops = workload(seed, tmpdir)
        wall = 0.0
        for op in ops:
            self.attempted += 1
            error = None
            start = perf_counter()
            try:
                with tracer.span(f"op.{op.name}") if tracer else nullcontext():
                    result = op.run()
            except Exception as exc:  # an operation that raises counts as failed; the run goes on
                error = "raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()
                self.numbers.setdefault(op.name, None)
                if not isinstance(exc, self.known_failures.get(op.name, ())):
                    self.correct = False
            elapsed = perf_counter() - start
            wall += elapsed
            if tracer is None:
                self.op_times.setdefault(op.name, []).append(elapsed)
            if error is None:
                try:
                    numbers, problems = op.check(result)
                    problems += self._problems(op.name, [float(x) for x in numbers])
                except Exception as exc:  # a check that cannot read the output fails the operation
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if problems:
                    self.correct = False
                    error = "failed its check: " + "; ".join(problems)
            if error is not None:
                self.failed += 1
                if op.name not in self.errors:
                    self.errors[op.name] = error
                    print(f"# operation {op.name} {error}", file=sys.stderr)
        return wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "levylab" / "__init__.py").is_file():
        print(f"error: no levylab sources under {SRC}", file=sys.stderr)
        return 2
    # the pools must be capped before numpy is first imported
    threads = cap_threads()
    sys.path.insert(0, str(SRC))
    import levylab
    import tracing
    import workloads

    if Path(levylab.__file__).resolve().parent != SRC / "levylab":
        print(f"error: levylab was imported from {levylab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    try:
        layer_metrics = per_layer_metrics(tracing.DRAW_ARGS)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot read the per-layer metrics from {BENCHMARK.name}: {exc}", file=sys.stderr)
        return 2
    boundaries = list(dict.fromkeys(boundary for boundary, _, _ in layer_metrics))
    info = machine(threads)

    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        setup_times: list[float] = []
        run = Run(_reference(args.workload, args.seed), workloads.KNOWN_FAILURES)
        walls: list[float] = []
        traced_walls: list[float] = []
        summaries: list[dict] = []
        last_spans: list[list] = []
        missing: list[str] = []
        peak_rss_mb = None
        deadline = perf_counter() + args.seconds
        while True:
            round_start = perf_counter()
            # in traced runs the two kinds of pass take turns going first, so
            # that warm-up does not land on one side of trace.overhead_s
            traced_first = args.trace and len(walls) % 2 == 1
            if not traced_first:
                walls.append(run.one_pass(build, args.seed, str(tmpdir)))
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.traced(tracer, boundaries) as missing:
                    traced_walls.append(run.one_pass(build, args.seed, str(tmpdir), tracer))
                summaries.append(tracing.summarize(tracer.spans))
                last_spans = tracer.spans
            if traced_first:
                walls.append(run.one_pass(build, args.seed, str(tmpdir)))
            if not args.trace:
                # one set-up probe per pass spreads them over the whole run,
                # so they see the same machine as the passes do
                setup_times.append(probe_setup(args.workload, args.seed, tmpdir))
            if peak_rss_mb is None:
                # the high-water mark of set-up plus one pass, what a single
                # CLI-style run of the workload costs; later passes only add
                # allocator fragmentation, which varies with the pass count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # stop before a round that would end past the deadline, so that a
            # run lasts about --seconds whatever its pass length; the first
            # round always runs
            now = perf_counter()
            if now + (now - round_start) > deadline:
                break
        while not args.trace and len(setup_times) < MIN_SETUP_PROBES:
            setup_times.append(probe_setup(args.workload, args.seed, tmpdir))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if args.trace:
        metrics = {}
        for boundary, kind, unit in layer_metrics:
            values = [s.get(boundary, {}).get(kind, 0.0 if kind == "s" else 0) for s in summaries]
            metrics[f"{boundary}.{kind}"] = {"value": statistics.median(values), "unit": unit}
        overhead = statistics.fmean(traced_walls) - statistics.fmean(walls)
        metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            # the mean, not the median: this kind of host flips between a fast
            # and a slow speed every few seconds, so pass times fall in two
            # clusters and a run's median lands in either; the mean weighs
            # each speed by the share of the run spent at it
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "passes": len(walls),
        "walls": walls,
        "traced_walls": traced_walls,
        "setup_times": setup_times,
        "op_times": run.op_times,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "numbers": {k: None if v is None else [x.hex() for x in v] for k, v in run.numbers.items()},
        "missing_boundaries": missing,
        "layers": summaries,
        "spans": {"fields": ["name", "start", "end", "parent", "draws"], "last_traced_pass": last_spans},
        "metrics": metrics,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# machine: {json.dumps(info)}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(walls)} untraced and {len(traced_walls)} "
          f"traced passes; {run.attempted} operations attempted, {run.failed} failed, "
          f"fail_ratio {run.failed / run.attempted:.6g}")
    print(f"# pass time over {len(walls)} passes: mean {statistics.fmean(walls):.6g} s, "
          f"median {statistics.median(walls):.6g} s, "
          f"min {min(walls):.6g} s, max {max(walls):.6g} s")
    for name, times in run.op_times.items():
        print(f"#   {name}: median {statistics.median(times):.6g} s over {len(times)} calls")
    if setup_times:
        print(f"# setup_s over {len(setup_times)} fresh processes: " + ", ".join(f"{t:.4g}" for t in setup_times))
    if missing:
        print(f"# missing boundaries (reported as 0): {', '.join(missing)}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
