"""Command-line interface: subcommands, files, exit codes, determinism."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from sphereflow import cli, flow, initial_data
from sphereflow.cli import CSV_HEADER, TRACE_HEADER, main
from sphereflow.diagnostics import AUDIT_TOL, StepRecord
from sphereflow.flow import FlowConfig, bdf2_step, run_flow


def read(path):
    return path.read_text()


def test_run_tiny_mesh(tmp_path, capsys):
    out = tmp_path / "run.csv"
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "run",
            "--mesh-n", "2",
            "--method", "bdf2",
            "--metric", "h1",
            "--tau", "0.125",
            "--init", "exact",
            "--out", str(out),
            "--trace-out", str(trace),
        ]
    )
    assert code == 0
    lines = read(out).splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[-1] == "true"
    assert float(cells[2]) <= 1e-6  # delta_uni on a near-stationary start
    trace_lines = read(trace).splitlines()
    assert trace_lines[0] == TRACE_HEADER
    assert len(trace_lines) == 1 + int(cells[1])


def test_run_requires_tau(capsys):
    assert main(["run", "--mesh-n", "2"]) == 2
    assert "requires --tau" in capsys.readouterr().err
    assert main(["sweep", "--mesh-n", "2"]) == 2
    assert capsys.readouterr().err == "error: sweep requires --tau-range\n"


@pytest.mark.parametrize(
    "args",
    [
        ["--mesh-n", "0", "--tau", "0.25"],
        ["--mesh-n", "2", "--tau", "-1"],
        ["--mesh-n", "2", "--tau", "0.25", "--eps-stop", "0"],
        ["--mesh-n", "2", "--tau", "0.25", "--perturb-amplitude", "-1", "--init", "perturbed"],
        ["--mesh-n", "2", "--tau", "0.25", "--perturb-amplitude", "nan", "--init", "perturbed"],
        ["--mesh-n", "2", "--tau", "nan"],
        ["--mesh-n", "2", "--tau", "inf"],
        ["--mesh-n", "4", "--tau", "0.25", "--eps-stop", "nan"],
        ["--mesh-n", "2", "--tau", "0.25", "--t-max", "nan"],
        ["--mesh-n", "2", "--tau", "0.25", "--t-max", "0"],
        ["--mesh-n", "2", "--tau", "0.25", "--t-max", "-1"],
        # tau**4 underflows to 0: rejected before any flow can warn or run on
        ["--mesh-n", "4", "--tau", "1e-200"],
        ["--mesh-n", "4", "--tau", "1e-200", "--method", "euler"],
        ["--mesh-n", "2", "--tau", "0.25", "--perturb-amplitude", "inf", "--init", "perturbed"],
        ["--mesh-n", "2", "--tau=-inf"],
        ["--mesh-n", "2", "--tau", "0.25", "--eps-stop=-1"],
        # 1.5 tau**4 overflows (tau**2 too at 1e160): rejected before the flow
        # could overflow, or pass the nodal recursion as NaN
        ["--mesh-n", "4", "--tau", "1e160"],
        ["--mesh-n", "4", "--tau", "1e308"],
        ["--mesh-n", "4", "--tau", "5e307", "--method", "euler"],
        ["--mesh-n", "4", "--tau", "1.1e77", "--t-max", "1e300"],
        ["--mesh-n", "4", "--tau", "1.15e77", "--t-max", "1e300", "--init", "perturbed"],
        ["--mesh-n", "2", "--tau", "0.25", "--eps-stop", "inf"],
    ],
)
def test_run_invalid_option_values(args, capsys):
    # exit code 1 means non-convergence; a bad value is a usage error, one line
    assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--mesh-n", "4", "--tau", "1e-14"],
        # the step size is fine; the threshold is below the round-off
        ["run", "--mesh-n", "4", "--tau", "0.25", "--init", "perturbed", "--eps-stop", "1e-16"],
        # the flows of a sweep run in worker processes
        ["sweep", "--mesh-n", "4", "--tau-range", "46:47"],
    ],
)
def test_step_size_the_flow_cannot_resolve_is_usage_error(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step ") and "Traceback" not in err
    # the message names both possible causes, with their values
    eps_stop = args[args.index("--eps-stop") + 1] if "--eps-stop" in args else "0.001"
    assert "the step size " in err and f"the stopping threshold {eps_stop} " in err


def test_degenerate_perturbed_node_is_usage_error(monkeypatch, capsys):
    # the draws of the one interior node (the center, exact value e_z) give xi = -e_z
    monkeypatch.setattr(initial_data, "_draws", lambda seed, count: np.array([0.5, 0.5, 0.0]))
    args = ["run", "--mesh-n", "2", "--tau", "0.25", "--init", "perturbed", "--perturb-amplitude", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: cannot normalize the value at node 4:")


def test_huge_perturbation_amplitude_runs(capsys):
    args = ["run", "--mesh-n", "4", "--tau", "0.25", "--init", "perturbed", "--perturb-amplitude", "1e308"]
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.startswith(CSV_HEADER) and "Traceback" not in err


def test_run_stdout_when_no_out(capsys):
    code = main(["run", "--mesh-n", "2", "--tau", "0.25"])
    assert code == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER)


def test_run_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "row.csv"
    code = main(
        [
            "run",
            "--mesh-n", "4",
            "--tau", "0.25",
            "--init", "perturbed",
            "--eps-stop", "1e-12",
            "--t-max", "1.0",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert read(out).splitlines()[1].endswith("false")


def test_sweep_needs_two_taus(capsys):
    assert main(["sweep", "--mesh-n", "2", "--tau-range", "3:3"]) == 2
    assert main(["sweep", "--mesh-n", "2", "--tau-range", "nonsense"]) == 2


@pytest.mark.parametrize("tau_range, why", [("-1100:2", "2^1100 is too large"), ("-300:2", "is too large"),
                                             ("2:300", "is too small"), ("2:1100", "got 0.0")])
def test_tau_range_end_point_outside_the_step_size_range_is_usage_error(capsys, tau_range, why):
    # the end points are checked before the step sizes are built; 2.0**1100
    # overflows, 2.0**-1100 is 0
    assert main(["sweep", "--mesh-n", "2", f"--tau-range={tau_range}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --tau-range {tau_range}: step size ") and err.count("\n") == 1
    assert why in err


def test_sweep_csv_and_determinism(tmp_path):
    args = [
        "sweep",
        "--mesh-n", "4",
        "--method", "bdf2",
        "--metric", "h1",
        "--tau-range", "2:4",
        "--init", "perturbed",
        "--seed", "12",
        "--perturb-amplitude", "0.5",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    lines = read(first).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first_row = lines[1].split(",")
    assert first_row[3] == ""  # no EOC for the coarsest step
    later = lines[2].split(",")
    assert later[3] != ""
    taus = [float(l.split(",")[0]) for l in lines[1:]]
    assert taus == [0.25, 0.125, 0.0625]


def test_sweep_same_initial_data_for_all_taus(tmp_path):
    # B^2 depends only on the start field, so it must repeat across rows
    out = tmp_path / "s.csv"
    main(
        [
            "sweep",
            "--mesh-n", "4",
            "--tau-range", "3:4",
            "--init", "random",
            "--seed", "5",
            "--metric", "l2",
            "--out", str(out),
        ]
    )
    rows = [l.split(",") for l in read(out).splitlines()[1:]]
    b2 = [float(r[5]) for r in rows]
    assert b2[0] != b2[1]  # tau enters the first solve
    taus = [float(r[0]) for r in rows]
    assert taus[1] == pytest.approx(taus[0] / 2)


def test_sweep_exact_energy_moves_only_delta_ener(tmp_path, monkeypatch):
    # the reference is fixed by the domain, not by the user; shifting it by hand
    # moves delta_ener only, since eoc_ener is taken from successive energies
    args = ["sweep", "--mesh-n", "4", "--tau-range", "2:5", "--init", "perturbed"]
    default, shifted = tmp_path / "default.csv", tmp_path / "shifted.csv"
    assert main([*args, "--out", str(default)]) == 0
    monkeypatch.setattr(cli, "EXACT_ENERGY", 2.5)
    assert main([*args, "--out", str(shifted)]) == 0
    columns = CSV_HEADER.split(",")
    rows = [[line.split(",") for line in read(path).splitlines()[1:]] for path in (default, shifted)]
    assert len(rows[0]) == len(rows[1]) == 4
    for a, b in zip(*rows):
        assert {name for name, x, y in zip(columns, a, b) if x != y} == {"delta_ener"}
    eoc_ener = columns.index("eoc_ener")
    assert [r[eoc_ener] != "" for r in rows[1]] == [False, False, True, True]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_ref_energy_flag_is_usage_error(capsys, value):
    # the command line builds one domain and one boundary datum, so the
    # energy-error columns measure against their exact energy, which nothing
    # sets: --ref-energy is refused, whatever the value
    for args in (["run", "--tau", "0.25"], ["sweep", "--tau-range", "2:3"]):
        for text in ("3", value):
            with pytest.raises(SystemExit) as err:
                main([*args, "--mesh-n", "4", "--ref-energy", text])
            assert err.value.code == 2
            assert f"unrecognized arguments: --ref-energy {text}" in capsys.readouterr().err


def test_audit_subcommand_is_usage_error(tmp_path, capsys):
    # a run judges every step's residuals as it writes them, so no command reads a verdict back from its trace
    trace = tmp_path / "t.csv"
    assert main(["run", "--mesh-n", "2", "--tau", "0.25", "--out", str(tmp_path / "r.csv"),
                 "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["audit", "--trace-in", str(trace)])
    assert err.value.code == 2
    assert "invalid choice: 'audit'" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["run", "--tau", "0.25"], ["sweep", "--tau-range", "2:3"]], ids=["run", "sweep"])
def test_config_flag_is_usage_error(tmp_path, capsys, args):
    # every run input is a flag; no file sets one
    config = tmp_path / "f.cfg"
    config.write_text("mesh_n = 2\n")
    with pytest.raises(SystemExit) as err:
        main([*args, "--mesh-n", "2", "--config", str(config)])
    assert err.value.code == 2
    assert f"unrecognized arguments: --config {config}" in capsys.readouterr().err


def test_audits_cannot_be_switched_off(capsys):
    # every run and sweep audits its flows; no flag turns that off
    with pytest.raises(SystemExit) as err:
        main(["run", "--mesh-n", "2", "--tau", "0.25", "--audit", "off"])
    assert err.value.code == 2
    assert "unrecognized arguments: --audit off" in capsys.readouterr().err


def test_corrupted_step_fails_the_run_at_the_one_tolerance(monkeypatch, capsys):
    def corrupted_step(*args):
        u_next, u_dot = bdf2_step(*args)
        return u_next * (1 + 1e-6), u_dot

    monkeypatch.setattr(flow, "bdf2_step", corrupted_step)
    args = ["run", "--mesh-n", "4", "--tau", "0.25", "--init", "perturbed"]
    assert main(args) == 1
    summary = dict(line.split(" = ") for line in capsys.readouterr().err.splitlines())
    assert float(summary["res_nodal_recursion"]) > AUDIT_TOL
    # no tolerance a user sets can pass the corrupted run
    with pytest.raises(SystemExit) as err:
        main([*args, "--audit-tol", "1e300"])
    assert err.value.code == 2
    assert "unrecognized arguments: --audit-tol 1e300" in capsys.readouterr().err


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as err:
        main(["run", "--method", "leapfrog"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--tau", "0.25"],
        ["run", "--tau", "0.25", "--method", "euler"],
        ["sweep", "--tau-range", "2:3"],
    ],
)
def test_mesh_without_free_nodes_runs(tmp_path, capsys, args):
    # a 1x1 mesh with a Dirichlet boundary has no free node; audits must pass,
    # and the nodal recursion over no node is skipped, not passed
    assert main([*args, "--mesh-n", "1", "--out", str(tmp_path / "o.csv")]) == 0
    err = capsys.readouterr().err
    assert "error" not in err
    if args[0] == "run":
        assert "res_nodal_recursion = skipped" in err.splitlines()


def test_euler_run_works(tmp_path):
    out = tmp_path / "euler.csv"
    code = main(
        ["run", "--mesh-n", "4", "--method", "euler", "--tau", "0.25", "--out", str(out)]
    )
    assert code == 0
    assert read(out).splitlines()[1].endswith("true")


@pytest.mark.parametrize("flag", ["--out", "--trace-out"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, flag):
    bad = tmp_path / "missing" / "x.csv"
    args = ["run", "--mesh-n", "2", "--tau", "0.25", "--out", str(tmp_path / "o.csv"), flag, str(bad)]
    assert main(args) == 2
    assert f"error: cannot write {bad}" in capsys.readouterr().err


def test_sweep_rejects_trace_out(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--mesh-n", "2", "--tau-range", "2:3", "--trace-out", str(trace)])
    assert err.value.code == 2
    assert "unrecognized arguments: --trace-out" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("args", [["sweep", "--tau-range", "2:3", "--tau", "0.1"],
                                  ["run", "--tau", "0.25", "--tau-range", "2:3"]])
def test_flag_of_another_subcommand_is_usage_error(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert f"unrecognized arguments: {args[3]}" in capsys.readouterr().err


def _read_trace(path):
    """The step records of a ``--trace-out`` file; an empty cell reads as a NaN audit."""
    header, *rows = read(path).splitlines()
    assert header == TRACE_HEADER
    records = []
    for row in rows:
        n, *cells = row.split(",")
        records.append(StepRecord(int(n), *(float(cell) if cell else math.nan for cell in cells)))
    return records


def _bits(record):
    """The fields of a step record as bytes: ``n`` as an int, every float bit for bit."""
    n, *values = dataclasses.astuple(record)
    return type(n), n, [(type(x), struct.pack("<d", x)) for x in values]


@pytest.mark.parametrize("method", ["bdf2", "euler"])
def test_trace_out_reads_back_as_the_step_records(tmp_path, method):
    args = ["run", "--mesh-n", "8", "--method", method, "--tau", "0.125", "--init", "perturbed"]
    trace = tmp_path / "t.csv"
    assert main([*args, "--out", str(tmp_path / "r.csv"), "--trace-out", str(trace)]) == 0
    config = cli.resolve_config(cli.build_parser().parse_args(args))
    _, u0, system = cli._setup(config)
    records = []
    cfg = FlowConfig(method=method, tau=config.tau, eps_stop=config.eps_stop, t_max=config.t_max)
    run_flow(u0, system, cfg, on_step=records.append)
    assert len(records) > 10
    assert [_bits(rec) for rec in _read_trace(trace)] == [_bits(rec) for rec in records]
    # the two-step audits are empty cells where they do not apply: in the
    # first row of a BDF2 run, in every row of an Euler run; the closed-form
    # audit, the last cell, applies to every step of both
    rows = [row.split(",") for row in read(trace).splitlines()[1:]]
    skipped = [cells[6:8] == ["", ""] for cells in rows]
    two_step = [False] * (len(records) - 1) if method == "bdf2" else [True] * (len(records) - 1)
    assert skipped == [True, *two_step]
    assert all(cells[8] for cells in rows)


def test_failing_flow_leaves_the_rows_before_it(tmp_path, capsys):
    trace = tmp_path / "f.csv"
    args = ["run", "--mesh-n", "4", "--tau", "0.25", "--init", "perturbed", "--eps-stop", "1e-16"]
    assert main([*args, "--out", str(tmp_path / "r.csv"), "--trace-out", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step ")
    failed = int(err.split()[2].rstrip(":"))
    assert failed > 2
    header, *rows = read(trace).splitlines()
    assert header == TRACE_HEADER
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, failed))
    # the rows written are whole, and every residual the run wrote is within the one tolerance
    columns = header.split(",")
    residuals = [i for i, name in enumerate(columns) if name.startswith("res_")]
    assert len(residuals) == 3
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(columns)
        assert all(float(cells[i]) <= AUDIT_TOL for i in residuals if cells[i])


def test_failing_run_removes_only_a_table_file_it_created(tmp_path, capsys):
    args = ["run", "--mesh-n", "4", "--tau", "0.25", "--init", "perturbed", "--eps-stop", "1e-16"]
    table, trace = tmp_path / "r.csv", tmp_path / "f.csv"
    assert main([*args, "--out", str(table), "--trace-out", str(trace)]) == 2
    assert not table.exists()
    assert len(read(trace).splitlines()) == 199
    # a path that was there before stays, a link to one too
    table.write_text("old table\n")
    link = tmp_path / "link.csv"
    link.symlink_to(table)
    for out in (table, link):
        assert main([*args, "--out", str(out)]) == 2
        assert out.exists()
    assert table.read_text() == "" and link.is_symlink()
    # a usage error before any flow runs removes the new file as well
    assert main(["run", "--mesh-n", "2", "--tau", "0.25", "--out", str(table) + ".new", "--trace-out",
                 str(table) + ".new"]) == 2
    assert not (tmp_path / "r.csv.new").exists()
    assert "error: step 199:" in capsys.readouterr().err


def test_out_and_trace_out_same_file_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--mesh-n", "2", "--tau", "0.25", "--out", "o.csv", "--trace-out", "./o.csv"]) == 2
    assert "error: --out and --trace-out name the same file" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["sweep", "--mesh-n", "16", "--tau-range", "2:6", "--out"],
                                  ["run", "--mesh-n", "16", "--tau", "0.25", "--trace-out"]])
def test_unwritable_output_fails_before_any_flow(tmp_path, monkeypatch, capsys, args):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the output paths were checked")

    monkeypatch.setattr(cli, "run_sweep", no_flow)
    monkeypatch.setattr(cli, "run_flow", no_flow)
    bad = tmp_path / "missing" / "x.csv"
    assert main([*args, str(bad)]) == 2
    assert f"error: cannot write {bad}" in capsys.readouterr().err


# a flag value for every option but the output paths, each other than its default
FLAG_VALUES = {
    "mesh_n": "8",
    "method": "euler",
    "metric": "l2",
    "tau": "0.125",
    "tau_range": "3:5",
    "eps_stop": "1e-5",
    "t_max": "20",
    "init": "perturbed",
    "seed": "9",
    "perturb_amplitude": "0.75",
}


@pytest.mark.parametrize("key, kind", [row[:2] for row in cli.OPTIONS if row[0] not in ("out", "trace_out")])
def test_every_option_from_its_flag(key, kind):
    parse = str if isinstance(kind, tuple) else kind
    # the first subcommand that takes the flag
    subcommand = next(subcommands[0] for name, _, _, subcommands in cli.OPTIONS if name == key)
    args = [subcommand, f"--{key.replace('_', '-')}", FLAG_VALUES[key]]
    config = cli.resolve_config(cli.build_parser().parse_args(args))
    assert getattr(config, key) == parse(FLAG_VALUES[key]) != cli.DEFAULTS[key]
    # every option left out, one the subcommand does not take too, is at its default
    assert vars(config) == {**cli.DEFAULTS, key: getattr(config, key), "subcommand": subcommand}
