"""Command-line interface: subcommands, files, exit codes, determinism."""

import pytest

from sphereflow import cli
from sphereflow.cli import CSV_HEADER, TRACE_HEADER, main


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
        ["--mesh-n", "2", "--tau", "0.25", "--audit-tol", "nan"],
        ["--mesh-n", "2", "--tau", "0.25", "--audit-tol", "-1"],
    ],
)
def test_run_invalid_option_values(args, capsys):
    # exit code 1 means non-convergence; a bad value is a usage error
    assert main(["run", *args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_stdout_when_no_out(capsys):
    code = main(["run", "--mesh-n", "2", "--tau", "0.25", "--audit", "off"])
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


def test_audit_subcommand(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    main(["run", "--mesh-n", "4", "--tau", "0.125", "--init", "perturbed",
          "--trace-out", str(trace), "--out", str(tmp_path / "r.csv")])
    code = main(["audit", "--trace-in", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert "res_energy_law" in out
    assert "res_nodal_recursion" in out


def test_audit_rejects_non_trace(tmp_path, capsys):
    bogus = tmp_path / "x.csv"
    bogus.write_text("a,b,c\n1,2,3\n")
    assert main(["audit", "--trace-in", str(bogus)]) == 2
    partial = tmp_path / "y.csv"
    partial.write_text("n,res_energy_law\n2,1e-16\n")
    assert main(["audit", "--trace-in", str(partial)]) == 2
    assert "res_nodal_recursion" in capsys.readouterr().err
    assert main(["audit", "--trace-in", str(tmp_path / "missing.csv")]) == 2
    assert "missing.csv" in capsys.readouterr().err
    garbled = tmp_path / "z.csv"
    garbled.write_text("res_energy_law,res_nodal_recursion\n1e-16,1e-15\n1e-16,oops\n")
    assert main(["audit", "--trace-in", str(garbled)]) == 2
    assert "z.csv:3: res_nodal_recursion" in capsys.readouterr().err


def test_audit_fails_non_finite_residual(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("res_energy_law,res_nodal_recursion\nnan,nan\n")
    assert main(["audit", "--trace-in", str(trace)]) == 1
    assert capsys.readouterr().out.count("max nan over 1 steps") == 2
    # a nan or inf cell between finite ones still fails
    for cell in ("nan", "inf", "-inf"):
        trace.write_text(f"res_energy_law,res_nodal_recursion\n1e-16,1e-16\n{cell},1e-16\n1e-16,1e-16\n")
        assert main(["audit", "--trace-in", str(trace)]) == 1
        assert "res_energy_law: max nan over 3 steps" in capsys.readouterr().out


def test_audit_rejects_bad_tolerance(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text("res_energy_law,res_nodal_recursion\n1e-16,1e-16\n")
    for tol in ("nan", "-1"):
        assert main(["audit", "--trace-in", str(trace), "--audit-tol", tol]) == 2
        assert capsys.readouterr().err.startswith("error: --audit-tol")


def test_audit_finds_columns_by_name(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    main(["run", "--mesh-n", "4", "--tau", "0.125", "--init", "perturbed",
          "--trace-out", str(trace), "--out", str(tmp_path / "r.csv"), "--audit", "off"])
    assert main(["audit", "--trace-in", str(trace)]) == 0
    expected = capsys.readouterr().out
    # swap the two residual columns in the header and in every row
    swapped = tmp_path / "swapped.csv"
    rows = [line.split(",") for line in read(trace).splitlines()]
    for cells in rows:
        cells[6], cells[7] = cells[7], cells[6]
    swapped.write_text("\n".join(",".join(cells) for cells in rows) + "\n")
    assert main(["audit", "--trace-in", str(swapped)]) == 0
    assert capsys.readouterr().out == expected
    # a failing energy law is attributed to its own column after the swap
    failing = tmp_path / "failing.csv"
    failing.write_text(",".join(rows[0]) + "\n2,0.25,1,1,1,0,1e-12,1e-3\n")
    assert main(["audit", "--trace-in", str(failing)]) == 1
    out = capsys.readouterr().out
    assert "res_energy_law: max 1.000e-03" in out
    assert "res_nodal_recursion: max 1.000e-12" in out


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "flow.cfg"
    config.write_text(
        "# benchmark defaults\n"
        "mesh_n = 2\n"
        "method = euler\n"
        "tau = 0.25\n"
    )
    out = tmp_path / "o.csv"
    code = main(["run", "--config", str(config), "--out", str(out), "--audit", "off"])
    assert code == 0
    # flag beats the config value
    out2 = tmp_path / "o2.csv"
    code = main(
        ["run", "--config", str(config), "--tau", "0.125", "--out", str(out2), "--audit", "off"]
    )
    assert code == 0
    assert read(out2).splitlines()[1].startswith("0.125,")


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("mesh_n = 2\nmesh_m = 2\n")
    assert main(["run", "--config", str(config), "--tau", "0.25"]) == 2
    assert f"{config}:2: unknown key 'mesh_m'" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg"), "--tau", "0.25"]) == 2
    assert "missing.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mesh_n = abc", "audit = maybe", "tau = fast"])
def test_config_file_bad_value(tmp_path, capsys, line):
    # config values go through the flag parser: a bad one is a usage error
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    assert main(["run", "--config", str(config), "--mesh-n", "2", "--tau", "0.25"]) == 2
    err = capsys.readouterr().err
    assert f"{config}:1: argument --" in err
    assert line.split(" = ")[1] in err


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
    # a 1x1 mesh with a Dirichlet boundary has no free node; audits must pass
    assert main([*args, "--mesh-n", "1", "--out", str(tmp_path / "o.csv")]) == 0
    assert "error" not in capsys.readouterr().err


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
                                  ["run", "--tau", "0.25", "--tau-range", "2:3"],
                                  ["audit", "--trace-in", "t.csv", "--mesh-n", "2"]])
def test_flag_of_another_subcommand_is_usage_error(capsys, args):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert f"unrecognized arguments: {args[3]}" in capsys.readouterr().err


def test_one_config_file_serves_run_and_sweep(tmp_path, monkeypatch):
    # a config file may set any option; each subcommand uses the ones it takes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flow.cfg").write_text("mesh_n = 2\ntau = 0.25\ntau_range = 2:3\ntrace_out = t.csv\naudit = off\n")
    assert main(["sweep", "--config", "flow.cfg", "--out", "s.csv"]) == 0
    assert read(tmp_path / "s.csv").splitlines()[2].startswith("0.125,")
    assert not (tmp_path / "t.csv").exists()
    assert main(["run", "--config", "flow.cfg", "--out", "r.csv"]) == 0
    assert read(tmp_path / "r.csv").splitlines()[1].startswith("0.25,")
    assert read(tmp_path / "t.csv").startswith(TRACE_HEADER)


def test_out_and_trace_out_same_file_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--mesh-n", "2", "--tau", "0.25", "--out", "o.csv", "--trace-out", "./o.csv"]) == 2
    assert "error: --out and --trace-out name the same file" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["sweep", "--mesh-n", "16", "--tau-range", "2:6", "--out"],
                                  ["run", "--mesh-n", "16", "--tau", "0.25", "--trace-out"]])
def test_unwritable_output_fails_before_any_flow(tmp_path, monkeypatch, capsys, args):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the output paths were checked")

    monkeypatch.setattr(cli, "run_flow", no_flow)
    bad = tmp_path / "missing" / "x.csv"
    assert main([*args, str(bad)]) == 2
    assert f"error: cannot write {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["run --tau 0.25 --config", "audit --trace-in"])
def test_undecodable_input_file_is_usage_error(tmp_path, capsys, subcommand):
    garbage = tmp_path / "garbage.txt"
    garbage.write_bytes(b"\xff\xfe")
    assert main([*subcommand.split(), str(garbage)]) == 2
    assert f"error: cannot read {garbage}" in capsys.readouterr().err


# a config-file value and a different flag value for every option but the output paths
OVERRIDES = {
    "mesh_n": ("4", "8"),
    "method": ("euler", "bdf2"),
    "metric": ("l2", "h1"),
    "tau": ("0.25", "0.125"),
    "tau_range": ("2:4", "3:5"),
    "eps_stop": ("1e-4", "1e-5"),
    "t_max": ("10", "20"),
    "init": ("random", "perturbed"),
    "seed": ("7", "9"),
    "perturb_amplitude": ("0.25", "0.75"),
    "ref_energy": ("3.5", "2.5"),
    "audit": ("off", "on"),
    "audit_tol": ("1e-6", "1e-7"),
}


@pytest.mark.parametrize("key, kind", [row[:2] for row in cli.OPTIONS if row[0] not in ("out", "trace_out")])
def test_every_option_from_config_file_and_flag(tmp_path, key, kind):
    parse = str if isinstance(kind, tuple) else kind
    file_value, flag_value = OVERRIDES[key]
    config = tmp_path / "flow.cfg"
    config.write_text(f"{key} = {file_value}\n")
    # the first subcommand that takes the flag
    subcommand = next(subcommands[0] for name, _, _, subcommands in cli.OPTIONS if name == key)
    args = [subcommand, "--config", str(config)]
    resolved = getattr(cli.resolve_config(cli.build_parser().parse_args(args)), key)
    assert resolved == parse(file_value) != cli.DEFAULTS[key]
    args += [f"--{key.replace('_', '-')}", flag_value]
    assert getattr(cli.resolve_config(cli.build_parser().parse_args(args)), key) == parse(flag_value)
