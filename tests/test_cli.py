"""CLI subcommands and raster determinism."""

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


def test_verify_hull_suite(capsys):
    rc = main(["verify", "--suite", "hull"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS: hull oracle equivalence" in out


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
