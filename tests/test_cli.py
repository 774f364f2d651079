"""CLI subcommands and raster determinism."""

import hashlib
import math

import pytest

from skewdyn.cli import main
from skewdyn.raster import RenderJob
from skewdyn.fileio import parse_skew_product

MAP_TEXT = """\
p 2 1.0 0.0
q 1 3 1.0 0.0
"""

SEMI_TEXT = "builtin semiconjugate degenerate 1 4 ; h: 3 1 0 2 1 0\n"

# sha256 of the whole `skewdyn verify` stdout: 13 PASS lines and the total,
# so a speed-up that moves any figure of any suite fails here
VERIFY_STDOUT = "ff75762b806683582103f9335c77c78f12fc00f4c69303799e39c3986e7faa68"


@pytest.fixture()
def map_file(tmp_path):
    path = tmp_path / "monomial.skew"
    path.write_text(MAP_TEXT)
    return path


@pytest.fixture()
def semi_file(tmp_path):
    path = tmp_path / "semi.skew"
    path.write_text(SEMI_TEXT)
    return path


def test_analyze_report(map_file, capsys):
    assert main(["analyze", str(map_file), "--dl", "1", "--blowup", "1"]) == 0
    out = capsys.readouterr().out
    assert "case: Case1" in out
    assert "gamma: 1" in out
    assert "alpha: -1" in out
    assert "D_1: 4" in out
    assert "blowup_holomorphic: true" in out


def test_analyze_two_dominant(semi_file, capsys):
    assert main(["analyze", str(semi_file)]) == 0
    out = capsys.readouterr().out
    assert "case: Case3" in out
    assert "alt1_case: Case2" in out
    assert "flag_two_dominant_terms: true" in out


def test_green_point(map_file, capsys):
    rc = main(["green", str(map_file), "--function", "Gza",
               "--point", "0.5,0,0.4,0"])
    assert rc == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[0].split(":")[1])
    assert abs(value - math.log(0.2)) < 1e-9
    assert "termination: converged" in out


def test_green_bottcher_output(map_file, capsys):
    rc = main(["green", str(map_file), "--function", "bottcher",
               "--point", "0.05,0,0.03,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "phi1:" in out and "conj_residual:" in out
    # the budget it applied is printed: --n-max is capped at 32
    for n_max, applied in (("64", "32"), ("8", "8")):
        assert main(["green", str(map_file), "--function", "bottcher",
                     "--point", "0.05,0,0.03,0", "--n-max", n_max]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"n_max: {applied}" in lines
        if n_max == "64":   # the default budget, 64, is capped alike
            assert lines == out.splitlines()


def test_render_deterministic(semi_file, tmp_path):
    args = ["render", str(semi_file), "--function", "Gzap",
            "--grid", "0.5,0,0,0,1.0,1.0,24",
            "--out-dir", str(tmp_path / "a"), "--out-prefix", "img"]
    assert main(args) == 0
    args2 = args[:]
    args2[args2.index(str(tmp_path / "a"))] = str(tmp_path / "b")
    assert main(args2) == 0
    for name in ("img.pgm", "img.csv", "img.meta"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name
    pgm = (tmp_path / "a" / "img.pgm").read_bytes()
    assert pgm.startswith(b"P5\n24 24\n255\n")
    assert len(pgm) == len(b"P5\n24 24\n255\n") + 24 * 24


def test_verify_wedge_flag(map_file, capsys):
    rc = main(["verify", str(map_file), "--wedge", "U_l", "--weights", "1",
               "--radii", "0.1", "--samples", "500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS")


def test_verify_wedge_overflow_is_reported(map_file, capsys):
    # at radius 1e141 a draw's lower |w| bound exp((l1 + l2) log|z| - l2 log r)
    # leaves the double range: an error line and a nonzero exit, no traceback
    rc = main(["verify", str(map_file), "--wedge", "U_l1l2", "--weights", "3/5,1",
               "--radii", "1e141"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot sample U_l1l2 with weights 3/5,1")
    assert "1e+141" in captured.err


@pytest.mark.parametrize("weights, radii", [("1", "0.5,1e-30"), ("0", "0.5,0.4")])
def test_verify_v_l_without_admissible_z_is_reported(tmp_path, capsys, weights, radii):
    # r |z|^l >= r3 for every sampled |z|: an error naming the wedge, no endless draw
    path = tmp_path / "square.skew"
    path.write_text("p 2 1.0 0.0\nq 0 2 1.0 0.0\n")
    rc = main(["verify", str(path), "--wedge", "V_l", "--weights", weights,
               "--radii", radii])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot sample V_l with weights {weights} and radii")
    assert str(tuple(float(x) for x in radii.split(","))) in captured.err


@pytest.mark.parametrize("text, point", [("p 2 1.5e308 1.5e308\nq 0 2 1.0 0.0\n", "1,0,0.5,0"),
                                         ("p 2 1.0 0.0\nq 0 2 1.5e308 1.5e308\n", "0.5,0,1,0")])
def test_green_bottcher_orbit_past_the_float_range_is_an_error(tmp_path, capsys, text, point):
    # |f(z, w)| overflows on finite parts: one error line and exit 2, no traceback
    path = tmp_path / "huge.skew"
    path.write_text(text)
    rc = main(["green", str(path), "--function", "bottcher", "--point", point])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: orbit left the float range at step 1"]


def test_green_gz_past_the_float_range_of_lambda_powers(tmp_path, capsys):
    # (z^2, z^2): d = 0, so the direct orbit serves; 2**1030 leaves the
    # double range, the estimate does not
    path = tmp_path / "zz.skew"
    path.write_text("p 2 1.0 0.0\nq 2 0 1.0 0.0\n")
    rc = main(["green", str(path), "--function", "Gz", "--point", "0.5,0,0.3,0",
               "--n-max", "1030"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[:3] == ["value: -0.6931471805599453", "n_used: 3",
                                    "termination: converged"]


@pytest.mark.parametrize("argv, message", [
    (["green", "MAP", "--function", "bottcher"], "green --function bottcher needs --point"),
    (["green", "MAP", "--function", "bottcher", "--grid", "0.5,0,0,0,1,1,4"],
     "green --function bottcher needs --point"),
    (["green", "MAP", "--function", "Gz"], "green needs --point or --grid"),
    (["verify", "--wedge", "U_l", "--weights", "1", "--radii", "0.1"],
     "verify --wedge needs a map file, --weights and --radii"),
    (["verify", "MAP", "--wedge", "U_l", "--radii", "0.1"],
     "verify --wedge needs a map file, --weights and --radii"),
    (["verify", "MAP", "--wedge", "U_l", "--weights", "1"],
     "verify --wedge needs a map file, --weights and --radii"),
    (["green", "MAP", "--function", "Gz", "--point", "0.5,0,0.4,0", "--grid", "0.5,0,0,0,1,1,4"],
     "green takes --point or --grid, not both"),
    (["green", "MAP", "--function", "bottcher", "--point", "0.1,0,0.05,0", "--out", "b.csv"],
     "green --function bottcher takes no --out"),
])
def test_missing_arguments_end_with_a_message(map_file, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([str(map_file) if arg == "MAP" else arg for arg in argv])
    assert exc.value.code == message
    assert capsys.readouterr().out == ""


def test_verify_hull_suite(capsys):
    rc = main(["verify", "--suite", "hull"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS: hull oracle equivalence" in out


def test_verify_stdout_golden(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 14 and all(line.startswith("PASS: ") for line in lines[:13])
    assert lines[13] == "total: 13 checks, 0 failed"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT


def test_verify_rejects_budget_flags():
    # the suites run on fixed budgets, so verify takes no --n-max or --tol
    for flag in (["--n-max", "8"], ["--tol", "1e-6"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "hull", *flag])
        assert exc.value.code == 2


def test_env_override(map_file, capsys, monkeypatch):
    monkeypatch.setenv("SKEWDYN_N_MAX", "8")
    rc = main(["green", str(map_file), "--function", "Gz",
               "--point", "0.5,0,0.4,0"])
    assert rc == 0
    out = capsys.readouterr().out
    n_used = int(next(l for l in out.splitlines() if l.startswith("n_used"))
                 .split(":")[1])
    assert n_used <= 8


def test_render_single_pixel(tmp_path, map_file):
    rc = main(["render", str(map_file), "--function", "Gza",
               "--grid", "0.5,0,0.2,0,0.1,0.1,1",
               "--out-dir", str(tmp_path), "--out-prefix", "one"])
    assert rc == 0
    rows = (tmp_path / "one.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + single row
    pgm = (tmp_path / "one.pgm").read_bytes()
    assert pgm.endswith(b"255\n" + bytes(1)) or len(pgm.split(b"\n", 3)[-1]) == 1


def test_render_level_sets_concentric(tmp_path, map_file):
    # for (z^2, z w^3) the fiber values are log|z w|: constant on |w| circles
    f = parse_skew_product(MAP_TEXT)
    job = RenderJob(function="Gza", fiber_z=0.5 + 0j, width=1.0, height=1.0,
                    pixels_x=9, pixels_y=9, out_prefix="lv")
    from skewdyn.newton import classify
    from skewdyn.green import ESTIMATORS
    c = classify(f)
    val = ESTIMATORS["Gza"]
    import math
    for wa in (0.2, 0.35):
        vals = [val(f, c, 0.5, wa * complex(math.cos(t), math.sin(t)), 64, 1e-12).value
                for t in (0.0, 1.0, 2.5, 4.0)]
        assert max(vals) - min(vals) < 1e-10
        assert abs(vals[0] - math.log(0.5 * wa)) < 1e-10


@pytest.mark.parametrize("argv", [
    ["--help"], ["analyze", "--help"], ["green", "--help"], ["render", "--help"],
    ["verify", "--help"], ["rend"], ["render"], [],
    ["render", "m.skew", "--function", "Gz", "--grid", "0.5,0,0,0,1,1,4", "extra"],
    ["green", "m.skew", "--function", "Gq"],
])
def test_a_parser_built_for_one_command_reads_as_the_full_one(capsys, argv):
    # main builds only the subparser argv[0] names (all four where it names
    # none): help, usage and errors must be the full parser's, byte for byte
    from skewdyn.cli import SUBCOMMANDS, build_parser

    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        return exc.value.code, capsys.readouterr()

    got = run(lambda: main(argv))
    want = run(lambda: build_parser().parse_args(argv))
    assert got == want
    assert got[1].out or got[1].err
    parser = build_parser(argv[0] if argv else None)
    built = parser._subparsers._group_actions[0].choices
    assert list(built) == ([argv[0]] if argv and argv[0] in SUBCOMMANDS else list(SUBCOMMANDS))


def test_main_builds_the_parser_argv_names(monkeypatch, capsys):
    # main(None) reads sys.argv[1:], and each call builds its own parser
    import sys

    import skewdyn.cli as cli

    seen, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: seen.append(command) or real(command))
    for argv in (["skewdyn", "render", "--help"], ["skewdyn", "--help"],
                 ["skewdyn", "verify", "-h"]):
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit):
            cli.main()
    assert seen == ["render", "--help", "verify"]
    assert capsys.readouterr().out.startswith("usage: skewdyn render")
