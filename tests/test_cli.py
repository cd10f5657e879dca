import json
import math
import warnings

import pytest

from billiards.cli import main


@pytest.fixture()
def write_spec(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return _write


@pytest.fixture()
def ellipse_spec(write_spec):
    return write_spec("ellipse.json", {"type": "ellipse", "a": 2, "b": 1})


@pytest.fixture()
def circle_spec(write_spec):
    return write_spec("circle.json", {"type": "ellipse", "a": 1, "b": 1})


@pytest.fixture()
def mode6_spec(write_spec):
    return write_spec("mode6.json", {"type": "profile", "R": 1.0,
                                     "d_modes": [[2, 0.1, 0], [6, 0.02, 0]]})


def test_validate_ellipse_passes(ellipse_spec, capsys):
    assert main(["table", "validate", ellipse_spec]) == 0
    out = capsys.readouterr().out
    assert "rho-positivity: PASS" in out
    assert "central-symmetry: PASS" in out


def test_validate_fourier_curvature_failure(write_spec, capsys):
    path = write_spec("bad.json", {"type": "fourier", "c0": 1,
                                   "cos": [0, 0.9], "sin": []})
    assert main(["table", "validate", path]) == 1
    assert "rho-positivity: FAIL" in capsys.readouterr().out


def test_validate_rejects_inadmissible_profile_modes(write_spec, capsys):
    for n in (3, 4):
        path = write_spec("badmode.json", {"type": "profile", "R": 1.0,
                                           "d_modes": [[n, 0.1, 0]]})
        assert main(["table", "validate", path]) == 1
        assert "n = 2 (mod 4)" in capsys.readouterr().err


@pytest.mark.parametrize("data, code, message", [
    ({"type": "ellipse", "a": 1e308, "b": 1}, 1, "leave double precision"),
    ({"type": "ellipse", "a": math.inf, "b": 1}, 2,
     "cannot parse table spec"),
], ids=["a-overflows", "a-infinite"])
def test_validate_extreme_axes_refused_without_warnings(write_spec, capsys,
                                                        data, code, message):
    # refused before any evaluation: no overflow or NaN RuntimeWarning
    path = write_spec("extreme.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["table", "validate", path]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"type": "profile", "R": 1e200, "d_modes": [[2, 0.1, 0]]},
    {"type": "fourier", "c0": 1e200, "cos": [0, 1e199]},
    {"type": "fourier", "c0": 1, "cos": [0, 1e199]},
], ids=["profile-R", "fourier-c0", "fourier-coefficient"])
@pytest.mark.parametrize("command, options", [
    (["table", "validate"], []), (["integral"], []),
    (["verify"], ["--suite", "all"]),
], ids=["validate", "integral", "verify"])
def test_oversized_table_refused_without_warnings(write_spec, capsys, data,
                                                  command, options):
    # refused at construction: no traceback, no overflow RuntimeWarning,
    # no NaN residuals
    path = write_spec("huge.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(command + [path] + options) == 1
    captured = capsys.readouterr()
    assert "error: " in captured.err
    assert "exceeds" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("data", [
    {"type": "ellipse", "a": 2e8, "b": 1e8},
    {"type": "profile", "R": 1e8, "d_modes": [[2, 0.1, 0]]},
], ids=["ellipse", "profile"])
def test_validate_large_symmetric_table_passes(write_spec, capsys, data):
    # the symmetry defect is rounding of h ~ 1e8, far above 1e-9 absolute
    path = write_spec("large.json", data)
    assert main(["table", "validate", path]) == 0
    assert "central-symmetry: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("size", [1.0, 1e8])
def test_validate_odd_harmonic_fails_at_any_size(write_spec, capsys, size):
    # a convex table with a cos 3psi term: h(psi + pi) - h(psi) = -0.1 size
    path = write_spec("odd.json", {"type": "fourier", "c0": size,
                                   "cos": [0, 0, 0.05 * size]})
    assert main(["table", "validate", path]) == 1
    out = capsys.readouterr().out
    assert "rho-positivity: PASS" in out
    assert "central-symmetry: FAIL" in out


def test_validate_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["table", "validate", str(path)]) == 2


@pytest.mark.parametrize("data", [
    [{"type": "ellipse", "a": 2, "b": 1}],
    {"a": "x"},
    {"type": "ellipse", "a": "x", "b": 1},
    {"type": "profile", "R": 1, "d_modes": [["x", 0.1, 0]]},
    {"type": "profile", "R": 1, "d_modes": [[2, 0.1]]},
    {"type": "profile", "R": 1, "d_modes": [[2.7, 0.1, 0]]},
])
def test_validate_unparseable_spec_exits_2(write_spec, capsys, data):
    path = write_spec("unparseable.json", data)
    assert main(["table", "validate", path]) == 2
    assert "error: cannot parse table spec" in capsys.readouterr().err


def test_orbit_circle_square(circle_spec, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["orbit", circle_spec, "--psi0", "0",
                 "--delta0", str(math.pi / 4), "--steps", "4",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,psi,delta,p,phi,x,y"
    rows = [line.split(",") for line in lines[1:6]]
    xy = [(float(r[5]), float(r[6])) for r in rows]
    square = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
    for got, want in zip(xy, square):
        assert got == pytest.approx(want, abs=1e-12)
    assert lines[6].startswith("# caustic lambda0=")


def test_orbit_four_periodic_return(ellipse_spec, tmp_path):
    d0 = 0.5 * math.acos(-0.6)
    out = tmp_path / "trace.csv"
    assert main(["orbit", ellipse_spec, "--psi0", "0", "--delta0", str(d0),
                 "--steps", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[5].split(",")]
    assert last[5] == pytest.approx(first[5], abs=1e-9)
    assert last[6] == pytest.approx(first[6], abs=1e-9)


def test_orbit_caustic_drift_footer(ellipse_spec, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["orbit", ellipse_spec, "--psi0", "0.3", "--delta0", "0.4",
                 "--steps", "1000", "--out", str(out)]) == 0
    footer = out.read_text().splitlines()[-1]
    assert footer.startswith("# caustic lambda0=")
    drift = float(footer.split("drift=")[1])
    assert drift <= 1e-8


def test_orbit_byte_determinism(ellipse_spec, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(["orbit", ellipse_spec, "--psi0", "0.3", "--delta0", "0.7",
              "--steps", "100", "--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_orbit_grazing_aborts_with_exit_3(ellipse_spec, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["orbit", ellipse_spec, "--psi0", "0", "--delta0", "1e-10",
                 "--steps", "5", "--out", str(out)])
    assert code == 3
    # partial output: header only, the start already grazes
    assert out.read_text().splitlines()[0] == "step,psi,delta,p,phi,x,y"


@pytest.mark.parametrize("psi0, delta0", [
    ("nan", "0.5"), ("inf", "0.5"), ("0", "nan"), ("0", "inf"),
])
def test_orbit_non_finite_start_exits_2(ellipse_spec, tmp_path, psi0, delta0):
    out = tmp_path / "trace.csv"
    code = main(["orbit", ellipse_spec, "--psi0", psi0, "--delta0", delta0,
                 "--steps", "5", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_verify_all_ellipse(ellipse_spec, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", ellipse_spec, "--suite", "all",
                 "--grid", "256", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    names = {c["check"] for c in report["checks"]}
    assert names == {"twist", "symplectic", "poncelet", "orthoptic",
                     "relations"}
    assert report["seed"] == 42


def test_verify_poncelet_mode6(mode6_spec, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", mode6_spec, "--suite", "poncelet",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["max_residual"] <= 1e-8


def test_verify_orthoptic_fails_on_asymmetric_table(write_spec, tmp_path):
    path = write_spec("asym.json", {"type": "fourier", "c0": 1,
                                    "cos": [0.05, 0.1], "sin": []})
    out = tmp_path / "report.json"
    code = main(["verify", path, "--suite", "orthoptic", "--grid", "256",
                 "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["checks"][0]["pass"] is False
    assert report["checks"][0]["max_residual"] > 1e-3


def test_verify_rejects_bad_grid(ellipse_spec):
    assert main(["verify", ellipse_spec, "--grid", "1000"]) == 2


def test_verify_byte_determinism(ellipse_spec, tmp_path):
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        main(["verify", ellipse_spec, "--suite", "all", "--grid", "128",
              "--seed", "5", "--out", str(path)])
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_integral_ellipse(ellipse_spec, tmp_path):
    out = tmp_path / "report.json"
    assert main(["integral", ellipse_spec, "--n", "256",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["identity_ok"] is True
    assert abs(report["I_P"]) <= 1e-8 * 25.0
    assert report["n"] == 256


def test_integral_rejects_fourier_table(write_spec, capsys):
    path = write_spec("fourier.json", {"type": "fourier", "c0": 1,
                                       "cos": [0.0, 0.1], "sin": []})
    assert main(["integral", path, "--n", "256"]) == 4


def test_integral_rejects_nonconvex_profile(write_spec):
    path = write_spec("steep.json", {"type": "profile", "R": 1.0,
                                     "d_modes": [[2, 0.1, 0], [6, 0.03, 0]]})
    assert main(["integral", path, "--n", "256"]) == 1


def test_beam_scan_circle_no_detections(circle_spec, tmp_path):
    out = tmp_path / "scan.json"
    assert main(["beam-scan", circle_spec, "--starts", "16",
                 "--max-steps", "300", "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["detection_count"] == 0
    assert report["detections"] == []
    assert report["seed"] == 7


def test_beam_scan_mode6_detects(mode6_spec, tmp_path):
    out = tmp_path / "scan.json"
    assert main(["beam-scan", mode6_spec, "--starts", "16",
                 "--max-steps", "500", "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["detection_count"] >= 1
    assert all(d["step"] >= 2 for d in report["detections"])


def test_beam_scan_byte_determinism(mode6_spec, tmp_path):
    blobs = []
    for name in ("s1.json", "s2.json"):
        path = tmp_path / name
        main(["beam-scan", mode6_spec, "--starts", "8", "--max-steps", "200",
              "--seed", "11", "--out", str(path)])
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_beam_scan_ignores_billiard_threads(mode6_spec, tmp_path, monkeypatch):
    # the program is single-threaded and reports "threads": 1 whatever the
    # environment says
    blobs = {}
    for value in (None, "4", "abc"):
        if value is None:
            monkeypatch.delenv("BILLIARD_THREADS", raising=False)
        else:
            monkeypatch.setenv("BILLIARD_THREADS", value)
        path = tmp_path / f"scan-{value}.json"
        assert main(["beam-scan", mode6_spec, "--starts", "8",
                     "--max-steps", "50", "--seed", "3",
                     "--out", str(path)]) == 0
        blobs[value] = path.read_bytes()
    assert blobs["4"] == blobs[None] and blobs["abc"] == blobs[None]
    assert json.loads(blobs[None])["threads"] == 1
