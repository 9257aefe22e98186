"""mingap benchmark.

One workload (run from the repository root; the last stdout line is the
JSON result object):

    python3 bench/run.py --workload report-d462 --seed 3 --seconds 20 --trace 0

Every workload, untraced and then traced, each in its own process, with a
summary table at the end:

    python3 bench/run.py

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones.  Workloads, metrics and their expected movements
are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Set-up as a user pays it: a fresh interpreter imports mingap and builds
# the workload's inputs (instance generation, instance file).
_SETUP_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
cls = getattr(workloads, sys.argv[2])
cls(**json.loads(sys.argv[3])).setup(int(sys.argv[4]), Path(sys.argv[5]))
"""


@dataclasses.dataclass
class Samples:
    """Timed ops of one measuring loop, with the gate's counts."""

    walls: list[float] = dataclasses.field(default_factory=list)
    cpus: list[float] = dataclasses.field(default_factory=list)
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0
    asserted_failed: int = 0


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _gate(workload, spec, workdir, reference, seen, samples, timed=True):
    """Run one op, time it when ``timed``, and count the gate's verdict."""
    import workloads

    start, cpu_start = time.perf_counter(), _cpu_seconds()
    try:
        try:
            raw = workload.run(spec, workdir)
        finally:
            wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu_start
        outcome = workload.outcome(spec, raw, workdir)
        verdict = workload.check(spec, outcome, reference, seen)
        if timed:
            samples.bytes_written += outcome.bytes_written
    except Exception as err:  # a failing op is counted, not fatal
        traceback.print_exc()
        verdict = workloads.failed_verdict(workload, spec, reference, err)
    for problem in verdict.problems:
        print(f"GATE {workload.label(spec)}: {problem}", file=sys.stderr)
    if timed:
        samples.walls.append(wall)
        samples.cpus.append(cpu)
    samples.attempted += verdict.attempted
    samples.failed += verdict.failed
    samples.asserted_failed += verdict.asserted_failed


def measure(workload, specs, workdir, reference, seen, seconds) -> Samples:
    """Closed loop, one op at a time: whole units (all specs) until at
    least ``seconds`` have passed."""
    samples = Samples()
    start = time.perf_counter()
    while True:
        for spec in specs:
            _gate(workload, spec, workdir, reference, seen, samples)
        if time.perf_counter() - start >= seconds:
            return samples


def setup_seconds(workload, seed: int, workdir: Path, repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh-process set-ups."""
    params = json.dumps(dataclasses.asdict(workload))
    argv = [sys.executable, "-c", _SETUP_CHILD, str(BENCH), type(workload).__name__, params,
            str(seed), str(workdir)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def run_workload(workload, seed: int, seconds: float, trace: bool, reference: dict,
                 workdir: Path, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the result object (metrics as plain
    numbers) plus a ``notes`` dict of extras."""
    import tracing

    setups = setup_seconds(workload, seed, workdir, setup_repeats)
    specs = workload.setup(seed, workdir)
    seen: dict = {}
    warm = Samples()
    for spec in workload.warmup(specs):
        _gate(workload, spec, workdir, reference, seen, warm, timed=False)
    if not trace:
        run = measure(workload, specs, workdir, reference, seen, seconds)
        gated = [warm, run]
    else:
        base = measure(workload, specs, workdir, reference, seen, 0)
        with tracing.Tracer() as tracer:
            specs = workload.setup(seed, workdir)
            run = measure(workload, specs, workdir, reference, seen, seconds)
        gated = [warm, base, run]
    attempted = sum(g.attempted for g in gated)
    failed = sum(g.failed for g in gated)
    ops = len(run.walls)
    failed_frac = sum(g.asserted_failed for g in gated) / attempted
    if not trace:
        metrics = {
            "op_p50_s": statistics.median(run.walls),
            "ops_per_s": ops / sum(run.walls),
            "cpu_s_per_op": sum(run.cpus) / ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        notes = {"ops": ops, "setup_samples": len(setups)}
    else:
        metrics = tracer.metrics(ops, sum(run.walls))
        metrics.update({
            "cli.bytes_written": run.bytes_written / ops,
            "failed_frac": failed_frac,
            "trace_overhead_frac": statistics.fmean(run.walls) / statistics.fmean(base.walls) - 1.0,
        })
        notes = {"ops": ops, "untraced_ops": len(base.walls),
                 "eigensolver_calls": tracer.solver_table()}
    notes["failed_frac"] = failed_frac
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def _read_text(path: str, default: str = "unknown") -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return default


def machine() -> dict:
    """Where the numbers were measured.  The CPU model and cache sizes are
    read from /proc and /sys (Linux); the rest from os, platform and numpy."""
    import numpy
    import scipy

    model = "unknown"
    for line in _read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_text(str(index / "level"))
        kind = _read_text(str(index / "type"))
        caches[f"L{level}-{kind}"] = _read_text(str(index / "size"))
    config = numpy.show_config(mode="dicts")
    deps = config["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "simd": config["SIMD Extensions"],
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def with_units(metrics: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in spec}


def run_one(args) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(workload)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        result = run_workload(workload, args.seed, args.seconds, args.trace == 1, reference, Path(tmp))
    notes = result.pop("notes")
    metrics = with_units(result["metrics"], args.trace == 1)
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"ops={notes['ops']} attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={notes['failed_frac']:.4g}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for row in notes.get("eigensolver_calls", []):
        entry, driver, dim, subset, calls, seconds = row
        print(f"# eigensolver {entry} driver={driver} dim={dim} subset={subset}: "
              f"{calls} calls, {seconds:.4f} s")
    print("# machine " + json.dumps(machine(), sort_keys=True))
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    spec = json.loads(SPEC.read_text())
    table = []
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"[{w['name']} trace={trace}] {line}")
            if proc.returncode != 0 or not lines:
                print(f"[{w['name']} trace={trace}] exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                table.append((w["name"], trace, name, m["value"], m["unit"], result["failed"],
                              result["attempted"]))
    print(f"{'workload':14s} {'trace':5s} {'metric':44s} {'value':>14s} unit  failed/attempted")
    for name, trace, metric, value, unit, failed, attempted in table:
        print(f"{name:14s} {trace:<5d} {metric:44s} {value:>14.6g} {unit}  {failed}/{attempted}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, each in a process)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    return run_all(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
