import json
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from mingap import anticrossing, cli, spectral
from mingap.cli import instance_document, load_instance, main
from mingap.clique import CliqueInstance, random_instance, toy_example_1, toy_example_2
from mingap.hamiltonian import clique_pair


@pytest.fixture()
def runner():
    return CliRunner()


# config keys both scan and verify record
SOURCE_CONFIG = ("source", "mixer", "alphas", "grid_points")
SOURCE_OPTIONS = {"--instance", "--fixture", "--alpha", "--grid", "--help"}


COMMAND_OPTIONS = {
    "scan": SOURCE_OPTIONS | {"--levels", "--out"},
    "verify": SOURCE_OPTIONS | {"--checks"},
    "fixtures": {"--help"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_help_lists_the_options_each_command_reads(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    listed = set(re.findall(r"^  (--[a-z]+)", result.output, re.MULTILINE))
    assert listed == COMMAND_OPTIONS[command]


@pytest.mark.parametrize("command, option", [
    ("scan", ["--checks", "nonsense"]),
    ("verify", ["--levels", "0"]),
    ("verify", ["--out", "elsewhere"]),
], ids=["scan-checks", "verify-levels", "verify-out"])
def test_commands_reject_options_they_do_not_read(runner, command, option):
    result = runner.invoke(main, [command, "--fixture", "toy1", *option])
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_fixtures_round_trip(runner, tmp_path):
    result = runner.invoke(main, ["fixtures", "toy1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["n"] == 6 and doc["k"] == 3
    assert len(doc["edges"]) == 7
    path = tmp_path / "toy1.json"
    path.write_text(json.dumps(doc))
    graph, mixer = load_instance(path)
    assert mixer == "swap_chain"
    assert graph == toy_example_1(doc["alpha"]).graph


def test_fixtures_prints_both_by_default(runner):
    result = runner.invoke(main, ["fixtures"])
    assert result.exit_code == 0
    docs = json.loads(result.output)
    assert set(docs) == {"toy1", "toy2"}
    assert docs["toy2"]["edges"] == [sorted(e) for e in sorted(toy_example_2(0.2).graph.edges)]


def test_fixtures_unknown_name(runner):
    result = runner.invoke(main, ["fixtures", "toy9"])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert "toy9" in err["error"]


def test_scan_outputs_and_round_trip(runner, tmp_path):
    out = tmp_path / "scan"
    result = runner.invoke(
        main,
        ["scan", "--fixture", "toy1", "--alpha", "0.5", "--grid", "201",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    adir = out / "alpha_0.5"
    names = {p.name for p in adir.iterdir()}
    assert names == {"energies.csv", "gap.csv", "overlaps_a.csv", "overlaps_b.csv",
                     "overlaps_g.csv", "report.json"}

    energies = np.loadtxt(adir / "energies.csv", delimiter=",", skiprows=1)
    assert energies.shape == (201, 7)  # s column plus six levels

    # 17-significant-digit formatting must round-trip float64 exactly
    from mingap.hamiltonian import clique_pair
    from mingap.spectral import sweep

    pair = clique_pair(toy_example_1(0.5).graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 201), levels=6)  # what scan runs for --levels 6
    assert np.array_equal(energies[:, 0], swp.grid)
    assert np.array_equal(energies[:, 1:], swp.energies[:, :6])

    gap = np.loadtxt(adir / "gap.csv", delimiter=",", skiprows=1)
    assert np.array_equal(gap[:, 1], swp.gaps())

    report = json.loads((adir / "report.json").read_text())
    assert report["config"]["alpha"] == "0.5"
    assert set(report["config"]) == set(SOURCE_CONFIG) | {"levels", "out_dir", "alpha"}
    assert report["report"]["solution_swap"]["satisfied"] is True
    assert report["version"]


def test_scan_multiple_alphas(runner, tmp_path):
    out = tmp_path / "multi"
    result = runner.invoke(
        main,
        ["scan", "--fixture", "toy1", "--alpha", "0,0.5", "--grid", "101",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    assert (out / "alpha_0").is_dir() and (out / "alpha_0.5").is_dir()


def test_scan_degenerate_alpha_writes_overlaps_but_no_solution_series(runner, tmp_path):
    # the final ground level is doubly degenerate: the gap minimum sits at
    # s=1, where no anti-crossing is measured, but the grid's overlap
    # series is there all the same
    out = tmp_path / "degen"
    result = runner.invoke(
        main,
        ["scan", "--fixture", "toy1", "--alpha", "0.6666666666666666",
         "--grid", "101", "--out", str(out)],
    )
    assert result.exit_code == 0
    adir = out / "alpha_0.6666666666666666"
    names = {p.name for p in adir.iterdir()}
    assert names == {"energies.csv", "gap.csv", "overlaps_a.csv", "overlaps_b.csv", "report.json"}
    report = json.loads((adir / "report.json").read_text())
    assert report["report"]["ground_degenerate"] is True
    assert report["report"]["degenerate_at_end"] is True
    pair = clique_pair(toy_example_1(0.6666666666666666).graph)
    _, series, point = anticrossing.build_report(pair, grid_points=101, levels=6)
    assert point is None
    for name, family in (("overlaps_a.csv", series.in_ground), ("overlaps_b.csv", series.in_excited)):
        table = np.loadtxt(adir / name, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], series.grid)
        assert np.array_equal(table[:, 1:], family)


def test_verify_passes_on_fixture(runner):
    result = runner.invoke(
        main, ["verify", "--fixture", "toy1", "--alpha", "0.5", "--grid", "201"]
    )
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["passed"] is True
    assert set(summary["config"]) == set(SOURCE_CONFIG) | {"checks"}
    checks = {c["name"]: c for c in summary["runs"][0]["checks"]}
    assert checks["encoding"]["status"] == "pass"
    assert checks["energy_identity"]["status"] == "pass"
    assert checks["energy_identity"]["value"] <= 1e-8
    assert checks["gap_decomposition"]["status"] == "pass"
    assert checks["epsilon_bound"]["status"] == "skip"
    assert checks["rotation"]["status"] == "report"
    assert checks["squared_gap_bounds"]["status"] == "report"


def test_verify_locates_the_gap_minimum_once(runner, monkeypatch):
    calls = []
    original = spectral.min_gap

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (spectral, anticrossing, cli):
        if getattr(module, "min_gap", None) is original:
            monkeypatch.setattr(module, "min_gap", counting)
    result = runner.invoke(main, ["verify", "--fixture", "toy1", "--grid", "201"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def count_calls(monkeypatch, names):
    """Wrap each named spectral function, in both modules that may hold
    it, with one counter; returns the list of recorded argument tuples."""
    calls = []
    for name in names:
        original = getattr(spectral, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        for module in (cli, spectral):
            monkeypatch.setattr(module, name, counting, raising=False)
    return calls


def test_verify_identities_evaluate_one_matrix_per_point(runner, monkeypatch):
    calls = count_calls(monkeypatch, ["energy_identity_residual", "gap_identity_residual"])
    result = runner.invoke(
        main, ["verify", "--fixture", "toy1", "--grid", "201", "--checks", "identities"]
    )
    assert result.exit_code == 0, result.output
    assert len(calls) == 0


def test_verify_derivatives_decompose_each_point_once(runner, monkeypatch):
    calls = count_calls(monkeypatch, ["decompose_interpolated"])
    one_level = []
    original = cli._eigensolve

    def recording(pair, s, levels=None, lanczos=False):
        if levels == 1:
            one_level.extend(np.atleast_1d(s).tolist())
        return original(pair, s, levels=levels, lanczos=lanczos)

    monkeypatch.setattr(cli, "_eigensolve", recording)
    result = runner.invoke(
        main, ["verify", "--fixture", "toy1", "--grid", "201", "--checks", "derivatives"]
    )
    assert result.exit_code == 0, result.output
    # 10 samples, each decomposed in full at s, which also gives E0(s), and
    # the ground level alone solved at s +- 1e-5, s +- 1e-3 and s +- 5e-4
    assert len(calls) == 10
    assert len({args[1] for args in calls}) == 10
    assert len(one_level) == 6 * 10
    assert len(set(one_level)) == len(one_level)


def test_verify_decomposes_s_star_once(runner, monkeypatch):
    # 21 full-pass points, 10 derivative samples and s*, where the report's
    # point serves every check (the squared-gap bounds among them)
    report = anticrossing.build_report(clique_pair(toy_example_1(0.5).graph), grid_points=201)[0]
    calls = []
    original = spectral.decompose_interpolated

    def counting(pair, s):
        calls.append(s)
        return original(pair, s)

    for module in (cli, spectral, anticrossing):
        monkeypatch.setattr(module, "decompose_interpolated", counting)
    result = runner.invoke(main, ["verify", "--fixture", "toy1", "--grid", "201"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 21 + 10 + 1
    assert calls.count(report.s_star) == 1


@pytest.mark.parametrize("checks", ["normalization", "normalization,identities"])
def test_verify_normalization_sums_full_rows_once_per_point(runner, monkeypatch, checks):
    # the solution row over all levels comes from 21 dense decompositions,
    # shared with the identities when both groups run
    calls = count_calls(monkeypatch, ["decompose_interpolated"])
    result = runner.invoke(
        main, ["verify", "--fixture", "toy1", "--grid", "201", "--checks", checks]
    )
    assert result.exit_code == 0, result.output
    results = {c["name"]: c for c in json.loads(result.output)["runs"][0]["checks"]}
    assert results["normalization"]["status"] == "pass"
    assert results["normalization"]["value"] <= 1e-10
    assert len(calls) == 21
    assert len({args[1] for args in calls}) == 21


@pytest.mark.parametrize("builder, alpha", [(toy_example_1, 0.5), (toy_example_2, 0.2)])
def test_identity_checks_read_a_generator_as_a_list(builder, alpha):
    pair = clique_pair(builder(alpha).graph)
    grid = np.linspace(0.0, 1.0, 21)
    listed = [(s, spectral.decompose_interpolated(pair, s)) for s in grid]
    streamed = ((s, spectral.decompose_interpolated(pair, s)) for s in grid)
    assert cli.identity_checks(pair, streamed) == cli.identity_checks(pair, listed)


def test_verify_holds_one_full_decomposition_at_a_time(runner, tmp_path):
    # d=252: 21 decompositions held at once are 10.7 MB, one is 0.5 MB
    graph = random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph
    path = tmp_path / "d252.json"
    path.write_text(json.dumps(instance_document(CliqueInstance(graph=graph, description="d252"))))
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["verify", "--instance", str(path), "--grid", "201"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code in (0, 1), result.output
    assert peak < 8e6


def test_verify_reports_a_failing_gap_identity_instead_of_raising(runner, tmp_path):
    # d=126: at s=0.9 the ratio difference at the solution state reads
    # 6.014123e-02 against Delta/(1-s) = 6.014125e-02, a gap-identity
    # residual past 1e-8; the run ends in its JSON report, with that check
    # failed, not in a traceback
    graph = random_instance(9, 4, 0.5, 0.5, 1.5, seed=0, alpha=0.3).graph
    path = tmp_path / "d126.json"
    path.write_text(json.dumps(instance_document(CliqueInstance(graph=graph, description="d126"))))
    result = runner.invoke(main, ["verify", "--instance", str(path), "--checks", "identities"])
    assert result.exit_code == 1, result.output
    checks = {c["name"]: c for c in json.loads(result.output)["runs"][0]["checks"]}
    assert checks["gap_identity"]["status"] == "fail"
    assert checks["failure_condition"]["status"] == "report"
    assert checks["failure_condition"]["value"] == pytest.approx(6.014122696751e-02, rel=1e-9)


def test_verify_degenerate_skips_solution_checks(runner):
    result = runner.invoke(
        main,
        ["verify", "--fixture", "toy1", "--alpha", "0.6666666666666666",
         "--grid", "101", "--checks", "normalization,rotation"],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    checks = {c["name"]: c for c in summary["runs"][0]["checks"]}
    # the series of the grid is normalized whatever the minimum; only the
    # solution state's weights are missing
    assert checks["normalization"]["status"] == "pass"
    assert checks["normalization"]["value"] <= 1e-10
    assert checks["consistency"]["status"] == "skip"
    assert "degenerate final ground state" in checks["consistency"]["detail"]
    assert checks["solution_derivative"]["status"] == "skip"
    assert "degenerate" in checks["solution_derivative"]["detail"]


@pytest.mark.parametrize("fixture, alpha", [("toy1", "0.66666"), ("toy2", "0.6666"),
                                            ("toy2", "0.66666")])
def test_verify_skips_the_gap_decomposition_at_an_unresolved_gap(runner, fixture, alpha):
    # stationarity is rejected because the gap is below the resolution
    # floor: the check skips with the report's cause, and verify passes
    result = runner.invoke(
        main, ["verify", "--fixture", fixture, "--alpha", alpha, "--grid", "201",
               "--checks", "decomposition"]
    )
    assert result.exit_code == 0, result.output
    check, = (c for c in json.loads(result.output)["runs"][0]["checks"]
              if c["name"] == "gap_decomposition")
    assert check["status"] == "skip"
    assert "is not resolved in float64" in check["detail"]


def test_verify_fails_the_gap_decomposition_at_a_resolved_gap(runner):
    # toy1@0.6666: Delta 1.0e-12 is above the resolution floor (1.8e-13),
    # and |dDelta/ds| at s* (3.7e-4) exceeds the stationarity bound
    # (4.0e-5): the gap's round-off leaves s* about 6e-12 from the minimum
    result = runner.invoke(
        main, ["verify", "--fixture", "toy1", "--alpha", "0.6666", "--grid", "201",
               "--checks", "decomposition"]
    )
    assert result.exit_code == 1, result.output
    check, = (c for c in json.loads(result.output)["runs"][0]["checks"]
              if c["name"] == "gap_decomposition")
    assert check["status"] == "fail"
    assert check["detail"] == "|dDelta/ds| at s* exceeds the stationarity bound at a resolved gap"


# the checks each group of ``mingap verify`` emits, in its order
GROUP_CHECKS = {
    "encoding": ["encoding"],
    "normalization": ["normalization", "consistency"],
    "identities": ["energy_identity", "gap_identity", "failure_condition"],
    "derivatives": ["eigenvalue_derivative", "eigenvalue_second_derivative",
                    "eigenvector_derivative"],
    "decomposition": ["gap_decomposition"],
    "bound": ["epsilon_bound"],
    "ratios": ["squared_gap_bounds"],
    "rotation": ["rotation", "solution_derivative"],
}
MEASUREMENTS = ["choi_measurement", "solution_swap_measurement"]


def _verify_names(runner, *extra):
    result = runner.invoke(
        main, ["verify", "--fixture", "toy1", "--alpha", "0.5", "--grid", "101", *extra]
    )
    assert result.exit_code == 0, result.output
    return [c["name"] for c in json.loads(result.output)["runs"][0]["checks"]]


def test_verify_runs_every_group_in_table_order(runner):
    assert list(GROUP_CHECKS) == list(cli.CHECK_NAMES)
    assert _verify_names(runner) == sum(GROUP_CHECKS.values(), []) + MEASUREMENTS


@pytest.mark.parametrize("group", cli.CHECK_NAMES)
def test_verify_checks_subset(runner, group):
    assert _verify_names(runner, "--checks", group) == GROUP_CHECKS[group] + MEASUREMENTS


@pytest.mark.parametrize("checks, message", [
    ("nonsense", "nonsense"),
    ("", "empty check list"),
    (",", "empty check list"),
], ids=["nonsense", "empty", "comma"])
def test_verify_unknown_check(runner, checks, message):
    result = runner.invoke(
        main, ["verify", "--fixture", "toy1", "--checks", checks]
    )
    assert result.exit_code == 2
    assert message in json.loads(result.stderr)["error"]


def test_scan_into_an_existing_file_is_an_io_error(runner, tmp_path, monkeypatch):
    # refused before any report is computed
    reports = []
    monkeypatch.setattr(cli, "build_report", lambda *args, **kwargs: reports.append(args))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    result = runner.invoke(main, ["scan", "--fixture", "toy1", "--grid", "51", "--out", str(taken)])
    assert result.exit_code == 2
    error = json.loads(result.stderr)
    assert error["kind"] == "io" and str(taken) in error["error"]
    assert taken.read_text() == "not a directory\n"
    assert reports == []


@pytest.mark.parametrize("command", ["scan", "verify"])
def test_instance_past_the_basis_caps_is_an_io_error(runner, tmp_path, command):
    # C(21, 10) states under a swap mixer: the weight mode caps n at 20
    doc = {"n": 21, "k": 10, "alpha": 0.5, "weights": [1.0] * 21, "edges": [[1, 2]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "out")] if command == "scan" else []
    result = runner.invoke(main, [command, "--instance", str(path), *out])
    assert result.exit_code == 2
    error = json.loads(result.stderr)
    assert error["kind"] == "io" and "capped at n=20" in error["error"]
    assert not list(tmp_path.glob("out/alpha_*"))


def test_scan_past_the_basis_caps_makes_no_output_directory(runner, tmp_path):
    doc = {"n": 21, "k": 10, "alpha": 0.5, "weights": [1.0] * 21, "edges": [[1, 2]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out" / "nested"
    result = runner.invoke(main, ["scan", "--instance", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["kind"] == "io"
    assert not (tmp_path / "out").exists()


def test_instance_file_errors(runner, tmp_path):
    missing = tmp_path / "missing.json"
    result = runner.invoke(main, ["scan", "--instance", str(missing)])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["kind"] == "io"

    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 4}")
    result = runner.invoke(main, ["scan", "--instance", str(bad)])
    assert result.exit_code == 2
    assert "lacks keys" in json.loads(result.stderr)["error"]

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "n": 4, "k": 2, "alpha": 0.5, "weights": [1, 1, 1, 1],
        "edges": [[1, 5]],
    }))
    result = runner.invoke(main, ["scan", "--instance", str(invalid)])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["kind"] == "io"


@pytest.mark.parametrize("field, value", [
    ("weights", "[1, NaN, 1, 1, 1, 1]"),
    ("weights", "[1, Infinity, 1, 1, 1, 1]"),
    ("weights", "[1, true, 1, 1, 1, 1]"),
    ("alpha", "NaN"),
    ("alpha", "true"),
    ("edges", "[[1.5, 2], [1, 3]]"),
])
def test_instance_file_with_a_value_the_graph_refuses(runner, tmp_path, field, value):
    # a NaN weight once reached LAPACK and ended in a traceback
    doc = instance_document(toy_example_2(0.2))
    text = json.dumps({**doc, field: None}).replace(f'"{field}": null', f'"{field}": {value}')
    path = tmp_path / "refused.json"
    path.write_text(text)
    result = runner.invoke(main, ["verify", "--instance", str(path), "--grid", "101"])
    assert result.exit_code == 2
    error = json.loads(result.stderr)
    assert error["kind"] == "io" and field.rstrip("s") in error["error"]


@pytest.mark.parametrize("command", ["scan", "verify"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
def test_alpha_option_the_graph_refuses(runner, tmp_path, command, alpha):
    out = ["--out", str(tmp_path / "out")] if command == "scan" else []
    result = runner.invoke(main, [command, "--fixture", "toy1", "--alpha", f"0.5,{alpha}", *out])
    assert result.exit_code == 2
    assert "alpha" in json.loads(result.stderr)["error"]
    assert not (tmp_path / "out").exists()


def test_instance_file_with_a_fractional_clique_size(runner, tmp_path):
    doc = {**instance_document(toy_example_2(0.2)), "k": 2.5}
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", "--instance", str(path), "--checks", "encoding"])
    assert result.exit_code == 2
    error = json.loads(result.stderr)
    assert error["kind"] == "io" and "must be an integer" in error["error"]


@pytest.mark.parametrize("doc", [["n", "k", "alpha", "weights", "edges"], 4, "text", None])
def test_instance_file_that_is_no_object(runner, tmp_path, doc):
    path = tmp_path / "list.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", "--instance", str(path)])
    assert result.exit_code == 2
    error = json.loads(result.stderr)
    assert error["kind"] == "io" and "no JSON object" in error["error"]


def test_instance_file_accepted(runner, tmp_path):
    doc = instance_document(toy_example_2(0.2))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(
        main,
        ["verify", "--instance", str(path), "--grid", "101", "--checks", "encoding"],
    )
    assert result.exit_code == 0, result.output


def test_config_validation(runner):
    result = runner.invoke(main, ["scan", "--fixture", "toy1", "--grid", "11"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["scan", "--fixture", "toy1", "--alpha", "abc"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["scan"])
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["scan", "--fixture", "toy1", "--instance", "also.json"]
    )
    assert result.exit_code == 2
