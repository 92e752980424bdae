"""The seven fixed commands: exact CSV bytes and exit codes.

A change to the solver, the audits or the set-up must leave these tables
byte for byte as they are; the trace and the stderr audit values may move
in round-off digits, the six-digit CSV cells may not.
"""

import pytest

from sphereflow.cli import main

# (arguments, exit code, CSV table)
FIXED_COMMANDS = (
    (
        "run --mesh-n 32 --method bdf2 --metric h1 --tau 0.03125 --init perturbed --seed 1",
        0,
        """\
tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged
0.03125,326,0.00023383,,0.00181857,0.0879249,3.00842,0.000681593,,true
""",
    ),
    (
        "sweep --mesh-n 8 --method bdf2 --metric h1 --tau-range 2:7 --init perturbed --seed 1",
        0,
        """\
tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged
0.25,36,0.00816329,,0.00593856,0.0421069,3.01399,0.00488685,,true
0.125,73,0.00238711,1.77389,0.00392889,0.0519839,2.99417,0.0149243,,true
0.0625,145,0.000648141,1.88088,0.00225606,0.0582795,2.98854,0.0205572,1.81437,true
0.03125,290,0.000169102,1.93841,0.00120657,0.0618651,2.98702,0.0220816,1.88561,true
0.015625,579,4.32064e-05,1.96858,0.000623458,0.0637833,2.98662,0.0224803,1.93507,true
0.0078125,1157,1.09212e-05,1.98412,0.000316822,0.064776,2.98652,0.0225824,1.96522,true
""",
    ),
    (
        "sweep --mesh-n 8 --method euler --metric h1 --tau-range 2:7 --init perturbed --seed 1",
        0,
        """\
tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged
0.25,42,0.0137094,,0.00576155,0.0421069,3.03529,0.0261896,,true
0.125,79,0.00722598,0.923896,0.00380148,0.0519839,3.01087,0.00177188,,true
0.0625,151,0.00371307,0.960581,0.00220452,0.0582795,2.99863,0.0104693,0.996189,true
0.03125,295,0.00188255,0.979923,0.00119027,0.0618651,2.99254,0.0165615,1.00671,true
0.015625,585,0.000947911,0.989865,0.000618874,0.0637833,2.9895,0.0195947,1.00608,true
0.0078125,1163,0.000475631,0.994908,0.000315607,0.064776,2.98799,0.0211073,1.00384,true
""",
    ),
    (
        "run --mesh-n 16 --method euler --metric l2 --tau 0.0625 --init random --seed 1",
        0,
        """\
tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged
0.0625,117,2.20719,,297.972,62.1799,63.5365,60.5274,,true
""",
    ),
    (
        "sweep --mesh-n 16 --method bdf2 --metric l2 --tau-range 2:4 --init random --seed 1",
        0,
        """\
tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged
0.25,52,6.0386,,47.3011,4.12059,100.651,97.6418,,true
0.125,48,5.41442,0.157409,165.083,16.157,97.0219,94.0128,,true
0.0625,44,4.56145,0.247313,531.701,62.1799,92.5405,89.5314,-0.304385,true
""",
    ),
    (
        "run --mesh-n 8 --method bdf2 --metric l2 --tau 0.125 --init perturbed --seed 2",
        0,
        """\
tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged
0.125,13,0.231921,,1.95493,2.87207,4.48907,1.47997,,true
""",
    ),
    # at tau = 2^-9 the two-step block M + (2 tau / 3) K cancels exactly on
    # the axis edges of the N = 8 lattice
    (
        "run --mesh-n 8 --method bdf2 --metric l2 --tau 0.001953125 --init perturbed --seed 1",
        0,
        """\
tau,N_stop,delta_uni,eoc_uni,A2,B2,energy,delta_ener,eoc_ener,converged
0.00195312,207,0.0540514,,1153.45,3279.5,3.23328,0.224185,,true
""",
    ),)


@pytest.mark.parametrize("args, code, csv", FIXED_COMMANDS, ids=[args for args, _, _ in FIXED_COMMANDS])
def test_fixed_command_csv_bytes(args, code, csv, tmp_path):
    out = tmp_path / "table.csv"
    assert main(args.split() + ["--out", str(out)]) == code
    assert out.read_bytes() == csv.encode()



@pytest.mark.parametrize("method, band", [("bdf2", (1.8, 2.1)), ("euler", (0.9, 1.1))], ids=["bdf2", "euler"])
def test_fixed_sweeps_show_the_energy_rate(method, band, tmp_path):
    # the energies of an N=8 sweep settle at the mesh's own energy, so the
    # order of their successive gaps is the time discretization's: second
    # for BDF2, first for Euler, in the last two rows
    out = tmp_path / "table.csv"
    args = f"sweep --mesh-n 8 --method {method} --metric h1 --tau-range 2:7 --init perturbed --seed 1"
    assert main(args.split() + ["--out", str(out)]) == 0
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    orders = [float(row[header.index("eoc_ener")]) for row in rows[-2:]]
    assert all(band[0] <= order <= band[1] for order in orders), orders
