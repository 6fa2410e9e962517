"""Command-line surface: exit codes, formats, reproducibility."""

import json

import pytest

from centinv.cli import main
from centinv.partitions import Partition
from centinv.runner import (
    RunConfig,
    UsageError,
    build_report,
    commands_for,
    run_partition,
    sweep_partitions,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_all_pass(capsys):
    code, out = run_cli(capsys, "verify", "--type", "gl", "--partition", "2,1",
                        "--all", "--seed", "7")
    assert code == 0
    assert "degrees: (1, 1, 2)" in out
    assert "0 fail, 0 error" in out


def test_degrees_sp(capsys):
    code, out = run_cli(capsys, "degrees", "--type", "sp", "--partition", "2,1,1")
    assert code == 0
    assert "degrees: (1, 3)" in out


def test_so_diagnostic(capsys):
    code, out = run_cli(capsys, "so-diagnostic", "--partition", "5,3,2,2")
    assert code == 0
    assert "dim=18" in out
    assert "adjusted=11" in out and "bound=12" in out
    assert "NO_GOOD_SYSTEM_FROM_MINORS" in out


def test_bad_partition_is_usage_error(capsys):
    code = main(["verify", "--type", "gl", "--partition", "0,-1", "--all"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_invalid_sp_partition_is_usage_error(capsys):
    code = main(["verify", "--type", "sp", "--partition", "3,2,1", "--all"])
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code = main(["verify", "--type", "sp", "--partition", "2,1,1",
                 "--commands", "nullcone"])
    assert code == 2
    assert "not available" in capsys.readouterr().err


@pytest.mark.parametrize("algebra,available", [
    ("gl", ["degrees", "centrality", "support", "conjecture", "p0", "stabilizers",
            "index", "diffcrit", "plane", "lines", "nullcone"]),
    ("sp", ["degrees", "centrality", "stabilizers", "index", "diffcrit", "plane", "lines"]),
    ("so", ["so-diagnostic"]),
], ids=["gl", "sp", "so"])
def test_commands_of_a_type_run_in_table_order(algebra, available):
    """--all within every budget runs the type's commands in table order,
    and an unknown name is refused with that list."""
    p = Partition.parse("2,2")
    assert commands_for(RunConfig(algebra=algebra, all_commands=True), p) == available
    assert commands_for(RunConfig(algebra=algebra, commands=available[::-1]), p) == available
    with pytest.raises(UsageError) as err:
        commands_for(RunConfig(algebra=algebra, commands=["nope"]), p)
    assert str(err.value) == (f"command(s) ['nope'] not available for type {algebra}; "
                              f"choose from {available}")


@pytest.mark.parametrize("argv", [
    ["verify", "--partition", "2,1", "--commands", "lines", "--lines", "0"],
    ["verify", "--partition", "2,1", "--commands", "lines", "--lines", "-2"],
    ["verify", "--partition", "2,1", "--commands", "index", "--samples", "0"],
    ["verify", "--partition", "2,1", "--commands", "plane", "--grid", "1"],
    ["verify", "--partition", "2,1", "--commands", "diffcrit", "--points", "-1"],
    ["sweep", "--max-n", "0", "--all"],
    ["sweep", "--max-n", "2", "--all", "--jobs", "0"],
])
def test_option_without_evidence_is_usage_error(capsys, argv):
    # each value would sample nothing and so certify nothing, or (--jobs) run
    # the sweep on no worker
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "must be at least" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("message, argv", [
    ("--points must be at least 0",
     ["verify", "--partition", "2,1", "--commands", "diffcrit", "--points", "-1"]),
    ("--samples must be at least 1",
     ["verify", "--partition", "2,1", "--commands", "index", "--samples", "0"]),
    ("--max-n must be at least 1", ["sweep", "--max-n", "0", "--all"]),
    ("--grid must be at least 2",
     ["verify", "--partition", "2,1", "--commands", "plane", "--grid", "1"]),
    ("--lines must be at least 1",
     ["verify", "--partition", "2,1", "--commands", "lines", "--lines", "0"]),
    ("--jobs must be at least 1", ["sweep", "--max-n", "2", "--all", "--jobs", "0"]),
], ids=["points", "samples", "max-n", "grid", "lines", "jobs"])
def test_a_value_below_its_least_names_the_flag(capsys, message, argv):
    # RunConfig names the field; the command line names the flag that set it
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("option", [
    {"lines": 0}, {"grid": 1}, {"grid": 0}, {"index_samples": 0}, {"max_n": 0}, {"jobs": 0},
])
def test_run_config_refuses_a_value_below_its_least(option):
    # the bounds hold for a RunConfig built in code, not only on the command line
    with pytest.raises(UsageError, match="must be at least"):
        RunConfig(**option)


def test_run_config_accepts_its_least_values():
    cfg = RunConfig(grid=2, lines=1, diffcrit_points=0, index_samples=1, max_n=1, jobs=1)
    assert cfg.diffcrit_points == 0
    assert RunConfig(max_n=None).max_n is None
    assert RunConfig().commands == []  # a context may be built with no command


@pytest.mark.parametrize("argv", [
    ["verify", "--partition", "2,1", "--commands", ""],
    ["sweep", "--max-n", "3", "--commands", ""],
    ["verify", "--partition", "2,1", "--commands", "index,"],
])
def test_commands_must_name_a_command(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "not available" in captured.err
    assert captured.out == ""


def test_least_sampling_options_still_run(capsys):
    code, out = run_cli(capsys, "verify", "--partition", "2,1",
                        "--commands", "index,diffcrit,plane,lines", "--seed", "7",
                        "--grid", "2", "--points", "0", "--lines", "1", "--samples", "1")
    assert code == 0
    assert "4 pass, 0 fail, 0 error" in out


def test_budget_exceeded_is_resource_error(capsys):
    code, out = run_cli(capsys, "verify", "--type", "gl", "--partition", "3,3,3",
                        "--commands", "centrality", "--budget-n", "8")
    assert code == 3
    assert "[ERROR]" in out


def test_budget_error_does_not_stop_other_commands(capsys):
    code, out = run_cli(capsys, "verify", "--type", "gl", "--partition", "3,3,3",
                        "--commands", "degrees,centrality,index", "--budget-n", "8")
    assert code == 3
    assert "[PASS] degree-table" in out
    assert "[PASS] index-equals-rank" in out


@pytest.fixture
def broken_index(monkeypatch):
    """The index command raises an internal ArithmeticError."""
    import centinv.runner as runner

    def broken(ctx):
        raise ArithmeticError("table is not antisymmetric")

    monkeypatch.setitem(runner.COMMANDS, "index",
                        runner.COMMANDS["index"]._replace(check=broken))


def test_internal_error_exits_4(capsys, broken_index):
    code, out = run_cli(capsys, "verify", "--type", "gl", "--partition", "2,1",
                        "--commands", "degrees,index")
    assert code == 4
    assert "1 pass, 0 fail, 1 error" in out


def test_internal_error_wins_over_resource_error(capsys, broken_index):
    code, out = run_cli(capsys, "verify", "--type", "gl", "--partition", "3,3,3",
                        "--commands", "centrality,index", "--budget-n", "8")
    assert code == 4
    assert "0 pass, 0 fail, 2 error" in out


def test_all_skips_over_budget_symbolics(capsys):
    code, out = run_cli(capsys, "verify", "--type", "gl", "--partition", "2,2,1",
                        "--all", "--seed", "0")
    assert code == 0
    assert "top-coefficient-crosscheck" not in out  # n=5 above the default p0 budget
    assert "poisson-centrality" in out


@pytest.mark.parametrize("algebra,max_n,budget_n,p0_budget", [
    pytest.param("gl", 5, 3, 4, id="3-4"),
    pytest.param("gl", 5, 4, 6, id="4-6"),
    pytest.param("gl", 5, 2, 5, id="2-5"),
    pytest.param("gl", 5, 5, 3, id="5-3"),
    pytest.param("sp", 3, 4, 4, id="sp-4-4"),
    pytest.param("sp", 3, 2, 1, id="sp-2-1"),
    pytest.param("sp", 3, 6, 1, id="sp-6-1"),
])
def test_all_runs_a_command_only_within_every_budget_it_reads(algebra, max_n, budget_n,
                                                              p0_budget):
    """p0 reads the slice as well as the full adjoint expansion, so --all
    leaves it out above either budget; centrality and diffcrit read the
    slice alone, on sp as on gl, and the p0 budget does not touch them.
    Nothing is refused."""
    cfg = RunConfig(algebra=algebra, max_n=max_n, all_commands=True, budget_n=budget_n,
                    p0_budget=p0_budget, seed=7)
    partitions = sweep_partitions(cfg)
    rows = [row for p in partitions for row in run_partition(p, cfg)[0]]
    assert [(r["partition"], r["claim"]) for r in rows if r["status"] == "ERROR"] == []

    def run_on(claim):
        return {r["partition"] for r in rows if r["claim"] == claim}

    assert run_on("top-coefficient-crosscheck") == {
        str(p) for p in partitions if algebra == "gl" and p.n <= min(budget_n, p0_budget)}
    assert run_on("poisson-centrality") == run_on("differential-criterion") == {
        str(p) for p in partitions if p.n <= budget_n}
    assert run_on("degree-table") == run_on("index-equals-rank") == {str(p) for p in partitions}


def test_json_format(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "verify", "--type", "gl", "--partition", "2,1",
                      "--commands", "degrees,index", "--format", "json",
                      "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert report["summary"]["pass"] == 2
    claims = [c["claim"] for c in report["certificates"]]
    assert claims == ["degree-table", "index-equals-rank"]


def test_unwritable_out_is_usage_error_before_the_run(capsys, tmp_path, monkeypatch):
    def no_run(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr("centinv.cli.build_report", no_run)
    target = tmp_path / "missing" / "x.json"
    code = main(["verify", "--partition", "2,1", "--commands", "degrees",
                 "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert captured.out == ""
    assert not target.parent.exists()


def test_out_keeps_an_earlier_report_until_the_run_completes(capsys, tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("earlier report, longer than the new one " * 100)

    def interrupted(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr("centinv.cli.build_report", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--partition", "2,1", "--commands", "degrees",
                  "--format", "json", "--out", str(target)])
    assert target.read_text().startswith("earlier report")
    code = main(["verify", "--partition", "2,1", "--commands", "degrees",
                 "--format", "json", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["summary"]["pass"] == 1


def test_sweep_small(capsys):
    code, out = run_cli(capsys, "sweep", "--type", "gl", "--max-n", "3",
                        "--commands", "degrees,stabilizers,index", "--seed", "7")
    assert code == 0
    assert out.count("[PASS] degree-table") == 1 + 2 + 3


def test_sweep_sp(capsys):
    code, out = run_cli(capsys, "sweep", "--type", "sp", "--max-n", "2",
                        "--commands", "degrees,centrality,index", "--seed", "7")
    assert code == 0
    assert "0 fail, 0 error" in out


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


def test_reproducibility_small(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _ = run_cli(capsys, "sweep", "--type", "gl", "--max-n", "3", "--all",
                          "--seed", "7", "--format", "json", "--out", str(path))
        assert code == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert json.dumps(strip_timings(a), sort_keys=True) == \
        json.dumps(strip_timings(b), sort_keys=True)


def test_parallel_sweep_matches_serial(tmp_path, capsys):
    args = ["sweep", "--type", "gl", "--max-n", "3",
            "--commands", "degrees,index,stabilizers", "--seed", "7",
            "--format", "json"]
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    a = json.loads(serial.read_text())
    b = json.loads(parallel.read_text())
    a["config"]["jobs"] = b["config"]["jobs"] = 1
    assert strip_timings(a) == strip_timings(b)


def test_error_certificates_keep_their_kind_and_witnesses(monkeypatch):
    """A budget refusal is a resource ERROR with n and the budget; any
    other exception of a command an internal ERROR with its type."""
    import centinv.runner as runner

    cfg = runner.RunConfig(partitions=["3,3,3"], commands=["centrality", "index"], budget_n=8)
    common = {"status": "ERROR", "partition": "3,3,3", "algebra": "gl", "tolerance": "exact"}
    for exc, reason in [
        (ArithmeticError("table is not antisymmetric"),
         "ArithmeticError: table is not antisymmetric"),
        (KeyError("planted"), "KeyError: 'planted'"),
        (AssertionError("planted"), "AssertionError: planted"),
    ]:
        def broken(ctx, exc=exc):
            raise exc

        monkeypatch.setitem(runner.COMMANDS, "index",
                            runner.COMMANDS["index"]._replace(check=broken))
        certs, _ = runner.run_partition(Partition.parse("3,3,3"), cfg)
        assert certs == [
            {"claim": "centrality", **common, "error_kind": "resource",
             "witnesses": {"reason": "slice expansion needs n=9 but the budget is 8",
                           "n": 9, "budget": 8}},
            {"claim": "index", **common, "error_kind": "internal",
             "witnesses": {"reason": reason}},
        ]


def test_a_crash_inside_a_command_exits_4_and_keeps_the_report(capsys, monkeypatch):
    """A command that raises an exception no check names (here a KeyError)
    gives an internal ERROR row and exit 4, not the FAIL code 1, and the
    rows of the other commands stay in the report."""
    import centinv.runner as runner

    def broken(ctx):
        raise KeyError("planted")

    monkeypatch.setitem(runner.COMMANDS, "index",
                        runner.COMMANDS["index"]._replace(check=broken))
    code = main(["verify", "--partition", "2,1", "--commands", "degrees,index",
                 "--format", "json"])
    assert code == 4
    report = json.loads(capsys.readouterr().out)
    assert [(c["claim"], c["status"], c.get("error_kind"))
            for c in report["certificates"]] == [
        ("degree-table", "PASS", None), ("index", "ERROR", "internal")]
    assert report["certificates"][1]["witnesses"] == {"reason": "KeyError: 'planted'"}


@pytest.mark.parametrize("options", [
    {"algebra": "gl", "max_n": 4, "all_commands": True},
    {"algebra": "sp", "max_n": 2, "all_commands": True},
    {"algebra": "so", "max_n": 5, "all_commands": True},
    {"algebra": "gl", "max_n": 3, "commands": ["degrees", "centrality"], "budget_n": 2},
], ids=["gl", "sp", "so", "resource-error"])
def test_certificates_are_built_as_their_report_rows(options):
    """run_partition returns JSON rows, and the report holds them as they are."""
    cfg = RunConfig(seed=7, **options)
    partitions = sweep_partitions(cfg)
    rows = [row for p in partitions for row in run_partition(p, cfg)[0]]
    assert all(json.loads(json.dumps(row)) == row for row in rows)
    assert build_report(cfg, partitions)["certificates"] == rows
    errors = [row["error_kind"] for row in rows if row["status"] == "ERROR"]
    assert errors == (["resource"] * 3 if "budget_n" in options else [])
