"""Write bench/reference.json: the outputs the correctness gate compares
each op against.  Run from the repository root on the commit whose outputs
are the reference:

    python3 bench/make_reference.py

Takes about a minute: every distinct op of every workload runs once.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from mingap import clique, hamiltonian  # noqa: E402

_TOY = {"toy1": clique.toy_example_1, "toy2": clique.toy_example_2}


def _report_reference(summary: dict, pair) -> dict:
    floor = workloads.resolution_floor(pair, summary["s_star"])
    return {**summary, "floor": floor, "resolved": summary["delta_min"] > floor}


def reference_for(workload, workdir: Path) -> dict:
    """Reference outputs of every op ``workload`` can run (both labellings
    for the random-instance workloads)."""
    out = {}
    for seed in (0, 1):
        for spec in workload.setup(seed, workdir):
            label = workload.label(spec)
            if label in out:
                continue
            summary = workload.outcome(spec, workload.run(spec, workdir), workdir).summary
            if isinstance(workload, workloads.ToyLadder):
                fixture, alpha = spec
                pair = hamiltonian.clique_pair(_TOY[fixture](float(alpha)).graph)
                out[label] = _report_reference(summary, pair)
            elif isinstance(workload, workloads.Report):
                out[label] = _report_reference(summary, hamiltonian.clique_pair(spec[1]))
            else:
                out[label] = summary
    return out


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=workloads.ROOT) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            reference[name] = reference_for(workload, Path(tmp))
            print(name, json.dumps(reference[name], sort_keys=True), flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
