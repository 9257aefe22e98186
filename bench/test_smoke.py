"""Smoke test of the benchmark harness on tiny (d=20, 101-point) versions
of its workloads: every metric BENCHMARK.json names is emitted with its
unit, the correctness gate trips on a corrupted reference, tracing leaves
the library as it found it, and the benchmark refuses to run without the
mingap source."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = (
    workloads.ToyLadder(fixtures=("toy1",), alphas=("0.5", "0.66666"), grid=101),
    workloads.Report(name="report-tiny", n=6, k=3, grid=101),
    workloads.Verify(name="verify-tiny", n=6, k=3, grid=101),
)
SPEC = json.loads(run.SPEC.read_text())


def _measure(workload, reference, tmp_path, trace):
    return run.run_workload(workload, seed=1, seconds=0, trace=trace, reference=reference,
                            workdir=tmp_path, setup_repeats=1)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    reference = make_reference.reference_for(workload, tmp_path)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = _measure(workload, reference, tmp_path, trace)
        assert result["correct"], result
        assert result["attempted"] >= 1 and result["failed"] == 0
        metrics = run.with_units(result["metrics"], trace)
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }
        assert set(result["metrics"]) == set(metrics)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_gate_trips_on_corrupted_reference(workload, tmp_path):
    reference = make_reference.reference_for(workload, tmp_path)
    for ref in reference.values():
        if "statuses" in ref:
            ref["statuses"]["no_such_check"] = "pass"
        else:
            ref.update(resolved=True, s_star=ref["s_star"] + 1e-3)
    result = _measure(workload, reference, tmp_path, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_tracer_restores_the_library(tmp_path):
    import tracing
    from mingap import anticrossing, cli, spectral
    import scipy.linalg

    before = (spectral.min_gap, anticrossing.min_gap, scipy.linalg.eigh,
              cli.main.commands["scan"].callback)
    with tracing.Tracer() as tracer:
        assert spectral.min_gap is not before[0]
        assert anticrossing.min_gap is spectral.min_gap
        workloads.Report(name="report-tiny", n=6, k=3, grid=101).run(
            ("identity", workloads.clique.toy_example_1(0.5).graph), tmp_path)
    after = (spectral.min_gap, anticrossing.min_gap, scipy.linalg.eigh,
             cli.main.commands["scan"].callback)
    assert after == before
    assert tracer.span_totals()[2]["min_gap"] == 1
    assert len(tracer.calls) > 0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toy-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
