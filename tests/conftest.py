from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from mingap import (
    clique_pair,
    compute_overlaps,
    min_gap,
    partition_final_levels,
    sweep,
    toy_example_1,
    toy_example_2,
)

# A failing draw prints its ``@reproduce_failure`` blob, so that an
# unseeded failure can be replayed; nothing drawn or asserted changes.
settings.register_profile("mingap", print_blob=True)
settings.load_profile("mingap")

_BUILDERS = {"toy1": toy_example_1, "toy2": toy_example_2}
_ACCEPTANCE_LINES: list[tuple[int, str]] = []


def min_gap_of(pair, points: int = 501):
    """``min_gap`` on a two-level sweep of ``points`` evenly spaced s."""
    return min_gap(sweep(pair, np.linspace(0.0, 1.0, points), levels=2))


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _ACCEPTANCE_LINES.append(
        (number, f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    )


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bundles():
    """Cached (pair, sweep, partition, series, min-gap) per fixture/alpha."""
    cache = {}

    def get(name: str, alpha, grid_points: int = 1001):
        key = (name, repr(alpha), grid_points)
        if key not in cache:
            instance = _BUILDERS[name](alpha)
            pair = clique_pair(instance.graph)
            partition = partition_final_levels(pair)
            swp = sweep(pair, np.linspace(0.0, 1.0, grid_points))
            series = compute_overlaps(swp)
            cache[key] = SimpleNamespace(
                instance=instance,
                pair=pair,
                partition=partition,
                sweep=swp,
                series=series,
                mg=min_gap_of(pair),
            )
        return cache[key]

    return get
