import contextlib
import errno
import io
import json
import math
import os
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiards import cli
from billiards.billmap import BoundaryCoord, boundary_point, chart_to_line, \
    geometric_reflect
from billiards.cli import main
from billiards.fourperiodic import table_profile, verify_parallelogram
from billiards.supportfn import EllipseTable, load_table


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


def test_orbit_grazing_aborts_with_exit_3(ellipse_spec, tmp_path, capsys):
    # a start just inside either end of the floor already grazes: the
    # partial output is the header alone
    for delta0 in ("1e-10", "3.1415926530"):
        out = tmp_path / "trace.csv"
        code = main(["orbit", ellipse_spec, "--psi0", "0", "--delta0",
                     delta0, "--steps", "5", "--out", str(out)])
        assert code == 3
        assert out.read_text() == "step,psi,delta,p,phi,x,y\n"
        assert capsys.readouterr().err == \
            "error: grazing ray, orbit aborted with partial output\n"


@pytest.mark.parametrize("psi0, delta0", [
    ("nan", "0.5"), ("inf", "0.5"), ("0", "nan"), ("0", "inf"),
])
def test_orbit_non_finite_start_exits_2(ellipse_spec, tmp_path, psi0, delta0):
    out = tmp_path / "trace.csv"
    code = main(["orbit", ellipse_spec, "--psi0", psi0, "--delta0", delta0,
                 "--steps", "5", "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("psi0", ["1e17", "1e300", "-1e17", "8388608"])
def test_orbit_unresolvable_lift_exits_2(ellipse_spec, tmp_path, capsys,
                                         psi0):
    # from |psi0| = 2^23 on, neighbouring floats lie farther apart than the
    # grazing floor, so the start is refused before any numerics
    out = tmp_path / "trace.csv"
    code = main(["orbit", ellipse_spec, f"--psi0={psi0}", "--delta0", "0.5",
                 "--steps", "3", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --psi0")


@pytest.mark.parametrize("psi0", ["1e6", "8388607.5"])
def test_orbit_resolvable_lift_runs(ellipse_spec, tmp_path, psi0):
    out = tmp_path / "trace.csv"
    assert main(["orbit", ellipse_spec, "--psi0", psi0, "--delta0", "0.5",
                 "--steps", "3", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:5]] == ["0", "1", "2", "3"]


def _fields(values):
    # one row as formatted field by field
    return ",".join(f"{v:.17g}" for v in values)


def _orbit_reference(spec, psi, delta, steps):
    """The bytes of `billiard orbit` from the public map functions: each
    row's line, point and next bounce from their own jets, every field
    formatted on its own."""
    rows = ["step,psi,delta,p,phi,x,y"]
    lams = []
    for step in range(steps + 1):
        p, phi = chart_to_line(spec, BoundaryCoord(psi, delta))
        x, y = boundary_point(spec, psi)
        rows.append(_fields((float(step), psi, delta, p, phi, x, y)))
        if isinstance(spec, EllipseTable):
            lams.append(spec.a**2 * math.cos(phi)**2
                        + spec.b**2 * math.sin(phi)**2 - p**2)
        if step < steps:
            psi, delta = geometric_reflect(spec, psi, delta)
    text = "\n".join(rows) + "\n"
    if lams:
        drift = max(abs(l - lams[0]) for l in lams)
        text += f"# caustic lambda0={lams[0]:.17g} drift={drift:.17g}\n"
    return text.encode()


@pytest.mark.parametrize("data", [
    {"type": "ellipse", "a": 1, "b": 1},
    {"type": "ellipse", "a": 2, "b": 1},
    {"type": "profile", "R": 1.0, "d_modes": [[2, 0.1, 0]]},
    {"type": "profile", "R": 1.0, "d_modes": [[2, 0.1, 0], [6, 0.02, 0]]},
], ids=["circle", "ellipse21", "profile_a", "mode6"])
def test_orbit_bytes_equal_public_map_reference(write_spec, tmp_path, data):
    path = write_spec("table.json", data)
    out = tmp_path / "trace.csv"
    assert main(["orbit", path, "--psi0", "0.3", "--delta0", "0.7",
                 "--steps", "300", "--out", str(out)]) == 0
    assert out.read_bytes() == _orbit_reference(load_table(path), 0.3, 0.7,
                                                300)


_FORMAT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
                 1.0, -3.0, 2000.0, 2.0**53, 1e16, 1e17, 0.1, 1 / 3]


@pytest.mark.parametrize("value", _FORMAT_EDGES)
def test_orbit_row_format_equals_field_join(value):
    row = (value,) * 7
    assert cli._ROW % row == _fields(row)
    # the step column is passed as an int
    for step in (0, 1, 2000, 2**53):
        assert cli._ROW % (step, *row[1:]) == _fields((float(step), *row[1:]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=7, max_size=7))
def test_orbit_row_format_equals_field_join_on_bit_patterns(bits):
    row = struct.unpack("<7d", struct.pack("<7Q", *bits))
    assert cli._ROW % row == _fields(row)


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


def _jet_points(spec, monkeypatch):
    """A one-entry counter of the points passed to the table class's jet."""
    points = [0]
    jet = type(spec).jet

    def counted(self, psi):
        points[0] += np.size(psi)
        return jet(self, psi)

    monkeypatch.setattr(type(spec), "jet", counted)
    return points


@pytest.mark.parametrize("table", ["circle", "ellipse21", "profile_a_table",
                                   "mode6_table"])
def test_verify_twist_jet_points(table, request, monkeypatch):
    # points passed to the table's jet by one twist check at grid 128: one
    # jet per psi (128) and one per line whose rounded midpoint moves off
    # its psi (2786), against one per line (16384) on the whole grid
    spec = request.getfixturevalue(table)
    points = _jet_points(spec, monkeypatch)
    check = cli._check_twist(spec, None, 128, 0.0, 42)
    assert check["pass"] and check["grid"] == 128
    assert points[0] <= 128 + 2786


@pytest.mark.parametrize("table, bound", [
    ("circle", 27000), ("ellipse21", 31000), ("profile_a_table", 27100),
    ("mode6_table", 32200)])
def test_verify_symplectic_jet_points(table, bound, request, monkeypatch):
    # points passed to the table's jet by one symplectic check at seed 1:
    # the interior-line draws, the 4000-entry stencil solve and its final
    # bounce.  The solve drops frozen entries once half of its batch is
    # frozen; carrying them along passed 30000 / 46000 / 34000 / 46000
    spec = request.getfixturevalue(table)
    points = _jet_points(spec, monkeypatch)
    check = cli._check_symplectic(spec, None, 1024, 1e-8, 1)
    assert check["pass"] and check["grid"] == 1000
    assert points[0] <= bound


def test_verify_poncelet_mode6(mode6_spec, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", mode6_spec, "--suite", "poncelet",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["max_residual"] <= 1e-8


@pytest.mark.parametrize("data", [
    {"type": "ellipse", "a": 1, "b": 1},
    {"type": "ellipse", "a": 2, "b": 1},
    {"type": "profile", "R": 1.0, "d_modes": [[2, 0.1, 0]]},
    {"type": "profile", "R": 1.0, "d_modes": [[2, 0.1, 0], [6, 0.02, 0]]},
], ids=["circle", "ellipse21", "profile_a", "mode6"])
def test_verify_poncelet_reports_worst_float_launch(write_spec, capsys, data):
    path = write_spec("table.json", data)
    assert main(["verify", path, "--suite", "poncelet"]) == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    spec = load_table(path)
    worst = max(verify_parallelogram(spec, table_profile(spec), psi)
                .max_residual for psi in
                np.linspace(0.0, 2 * math.pi, 64, endpoint=False).tolist())
    assert check["max_residual"] == worst


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


@pytest.mark.parametrize("n", ["1", "16", "32"])
def test_integral_rejects_small_grid(ellipse_spec, capsys, n):
    # a power of two below the 64-point floor is a usage error for every
    # grid option: at --grid 1 the orthoptic check passed any table
    for argv in (["integral", ellipse_spec, "--n", n],
                 ["verify", ellipse_spec, "--suite", "orthoptic",
                  "--grid", n],
                 ["table", "validate", ellipse_spec, "--grid", n]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: grid size {n} must be a power of two >= 64\n"


@pytest.mark.parametrize("argv, message", [
    (["integral", "--n", "1099511627776"],
     "grid size 1099511627776 exceeds 1048576"),
    (["verify", "--grid", "1099511627776"],
     "grid size 1099511627776 exceeds 1048576"),
    (["beam-scan", "--starts", "10000000000000"],
     "starts 10000000000000 exceeds 1048576"),
], ids=["integral-n", "verify-grid", "beam-scan-starts"])
def test_oversized_run_is_usage_error(ellipse_spec, capsys, argv, message):
    # refused before any array is allocated: exit 2, one line, no traceback
    assert main([argv[0], ellipse_spec, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["orbit", "--psi0", "1", "--delta0", "0.5", "--steps", "2"],
    ["verify", "--suite", "orthoptic", "--grid", "64"],
    ["integral", "--n", "64"],
    ["beam-scan", "--starts", "4", "--max-steps", "2"],
], ids=["orbit", "verify", "integral", "beam-scan"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_usage_error(ellipse_spec, tmp_path, capsys, argv,
                                       target):
    # an --out that cannot be opened is one error line and exit 2, not a
    # traceback; integral's check notes on stderr come before it
    out = tmp_path / "missing" / "x.out" if target == "missing-directory" \
        else tmp_path
    assert main([argv[0], ellipse_spec, *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert errors == [captured.err.splitlines()[-1]]
    assert errors[0].startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_unwritable_out_is_refused_before_the_scan(ellipse_spec, tmp_path,
                                                   capsys, monkeypatch):
    # the --out target is checked with the options: a 10000-step scan is
    # never started for a report that cannot be written
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return np.full(0, -1)

    monkeypatch.setattr("billiards.beam.conjugate_scan", counted)
    out = tmp_path / "missing" / "x.json"
    assert main(["beam-scan", ellipse_spec, "--max-steps", "10000",
                 "--out", str(out)]) == 2
    assert calls[0] == 0
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("target, code", [
    ("missing/x.json", errno.ENOENT), (".", errno.EISDIR),
    ("file/x.json", errno.ENOTDIR), ("new/", errno.EISDIR),
    ("file/", errno.EISDIR), ("missing/new/", errno.ENOENT),
], ids=["missing-directory", "directory", "file-as-directory",
        "new-directory-name", "file-as-directory-name",
        "missing-directory-name"])
def test_unwritable_out_prints_no_check_notes(ellipse_spec, tmp_path, capsys,
                                              target, code):
    # integral's PASS lines would follow a chain that was never written:
    # the error, open's own reason for the path, is all it prints
    (tmp_path / "file").write_text("kept")
    out = os.path.join(tmp_path, target)    # a Path drops a trailing "/"
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert opened.value.errno == code
    assert main(["integral", ellipse_spec, "--n", "64",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot write {out}: {opened.value.strerror}\n")
    assert (tmp_path / "file").read_text() == "kept"


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


@pytest.mark.parametrize("starts", [0, 1])
def test_beam_scan_edge_start_counts(ellipse_spec, tmp_path, starts):
    # no start at all, and one start that runs past the fit of its warm
    # start (step 16, beam.RING) to max_steps: the usual report either way
    out = tmp_path / "scan.json"
    assert main(["beam-scan", ellipse_spec, "--starts", str(starts),
                 "--max-steps", "100", "--seed", "42",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report == {"table": {"type": "ellipse", "a": 2.0, "b": 1.0},
                      "starts": starts, "max_steps": 100, "seed": 42,
                      "threads": 1, "detections": [], "detection_count": 0}


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


# --- the exit-code contract on usage errors and on any input ----------------


@pytest.mark.parametrize("argv, message", [
    (["table", "validate", "{spec}", "--grid", "3"],
     "grid size 3 must be a power of two"),
    (["table", "validate", "{spec}", "--grid", "-4"],
     "grid size -4 must be a power of two"),
    (["table", "validate", "{spec}", "--grid", "2097152"],
     "grid size 2097152 exceeds 1048576"),
    (["verify", "{spec}", "--tol", "0"], "tolerance 0.0 must be positive"),
    (["verify", "{spec}", "--tol", "-1"], "tolerance -1.0 must be positive"),
    (["verify", "{spec}", "--tol", "nan"], "tolerance nan must be positive"),
    (["integral", "{spec}", "--n", "100"],
     "grid size 100 must be a power of two"),
    (["orbit", "{spec}", "--psi0", "0.3", "--delta0", "0.7",
      "--steps", "-1"], "steps must be nonnegative"),
    (["beam-scan", "{spec}", "--starts", "-1"], "starts must be nonnegative"),
    (["beam-scan", "{spec}", "--max-steps", "-1"],
     "max_steps must be nonnegative"),
    (["beam-scan", "{spec}", "--starts", "-1", "--max-steps", "-1"],
     "starts must be nonnegative"),
    (["table", "validate", "{missing}"],
     "cannot parse table spec: [Errno 2] No such file or directory: "
     "'{missing}'"),
    (["verify", "{missing}", "--suite", "twist"],
     "cannot parse table spec: [Errno 2] No such file or directory: "
     "'{missing}'"),
    (["integral", "{missing}"],
     "cannot parse table spec: [Errno 2] No such file or directory: "
     "'{missing}'"),
    (["orbit", "{missing}", "--psi0", "0.3", "--delta0", "0.7",
      "--steps", "3"],
     "cannot parse table spec: [Errno 2] No such file or directory: "
     "'{missing}'"),
    (["beam-scan", "{missing}"],
     "cannot parse table spec: [Errno 2] No such file or directory: "
     "'{missing}'"),
], ids=["validate-grid-3", "validate-grid-negative", "validate-grid-2^21",
        "verify-tol-0", "verify-tol-negative", "verify-tol-nan",
        "integral-n-100", "orbit-steps-negative", "scan-starts-negative",
        "scan-max-steps-negative", "scan-both-negative",
        "validate-missing-spec", "verify-missing-spec",
        "integral-missing-spec", "orbit-missing-spec",
        "scan-missing-spec"])
def test_usage_error_is_one_line_and_exit_2(ellipse_spec, tmp_path, capsys,
                                            argv, message):
    missing = str(tmp_path / "missing.json")
    fill = {"spec": ellipse_spec, "missing": missing}
    assert main([arg.format(**fill) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**fill)}\n"


def test_verify_without_profile_reports_no_profile_entry(write_spec, capsys):
    path = write_spec("fourier.json", {"type": "fourier", "c0": 1.0,
                                       "cos": [0.0, 0.1], "sin": []})
    assert main(["verify", path, "--suite", "poncelet"]) == 1
    out = capsys.readouterr().out
    assert '"max_residual": Infinity' in out
    report = json.loads(out)
    assert report["checks"] == [{
        "check": "poncelet", "grid": 0, "max_residual": math.inf,
        "pass": False, "tolerance": 1e-8,
        "error": "table has no 4-periodic profile"}]
    assert report["pass"] is False


def test_verify_all_reports_checks_in_suite_order(ellipse_spec, capsys):
    assert main(["verify", ellipse_spec, "--grid", "128"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in report["checks"]] == \
        ["twist", "symplectic", "poncelet", "orthoptic", "relations"]


# spec files that do not parse: not JSON, not UTF-8, an integer too long
# for int() (4300 digits), an integer beyond double range
_RAW_SPECS = {
    "broken": b"{not json", "not-utf8": b"\xff\xfe{",
    "long-int": b'{"type": "ellipse", "a": ' + b"1" * 5000 + b', "b": 1}',
    "huge-int": b'{"type": "ellipse", "a": 1' + b"0" * 400 + b', "b": 1}'}


@pytest.mark.parametrize("content", _RAW_SPECS.values(), ids=_RAW_SPECS)
def test_unparseable_spec_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert main(["table", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse table spec: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("data, message", [
    ({"type": "fourier", "c0": 5e-324}, "c0 = 5e-324 is below 1e-64"),
    ({"type": "profile", "R": 1e-300, "d_modes": [[2, 0.1, 0]]},
     "radius = 1e-300 is below 1e-64"),
    ({"type": "profile", "R": 1.0, "d_modes": [[4 * 10**200 + 2, 0.1, 0]]},
     "need n <= 1048576 and amplitudes within pi/2"),
    ({"type": "profile", "R": 1.0, "d_modes": [[2, 1e300, 0]]},
     "need n <= 1048576 and amplitudes within pi/2"),
    ({"type": "fourier", "c0": 1.0, "cos": [0.0, 0.9]},
     "rho = h + h'' reaches -1.7"),
], ids=["subnormal-c0", "tiny-radius", "huge-harmonic", "huge-amplitude",
        "non-convex"])
@pytest.mark.parametrize("command, options", [
    (["verify"], ["--grid", "64"]),
    (["orbit"], ["--psi0", "0.3", "--delta0", "0.7", "--steps", "5"]),
    (["beam-scan"], ["--starts", "4", "--max-steps", "10"]),
], ids=["verify", "orbit", "beam-scan"])
def test_degenerate_table_refused_before_the_map(write_spec, capsys, data,
                                                 message, command, options):
    # refused before any solve: no division by a zero slope, no overflow
    # RuntimeWarning, no report
    path = write_spec("degenerate.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(command + [path] + options) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


# spec field values: huge, tiny, non-finite, non-numeric and of the wrong
# type, next to small accepted ones
_FIELDS = st.one_of(
    st.sampled_from([1e300, -1e300, 1e65, 10**400, 1e-300, 5e-324, 0.0,
                     -0.0, math.inf, -math.inf, math.nan, "x", "1,5", "",
                     None, True, [], [1.0], {"x": 1}]),
    st.floats(-3.0, 3.0), st.integers(-8, 8))
_AMPLITUDES = st.one_of(_FIELDS, st.floats(-0.2, 0.2))
_SPECS = st.one_of(
    st.sampled_from([{"type": "ellipse", "a": 2.0, "b": 1.0},
                     {"type": "ellipse", "a": 1.0, "b": 1.0},
                     {"type": "profile", "R": 1.0,
                      "d_modes": [[2, 0.1, 0.0], [6, 0.02, 0.0]]},
                     {"type": "fourier", "c0": 1.0, "cos": [0.0, 0.1]},
                     {"type": "polygon"}, [], 1.0, None]),
    st.fixed_dictionaries({"type": st.just("ellipse"), "a": _FIELDS,
                           "b": _FIELDS}),
    st.fixed_dictionaries(
        {"type": st.just("fourier"), "c0": _FIELDS},
        optional={"cos": st.lists(_AMPLITUDES, max_size=4) | _FIELDS,
                  "sin": st.lists(_AMPLITUDES, max_size=4) | _FIELDS}),
    st.fixed_dictionaries(
        {"type": st.just("profile"), "R": _FIELDS},
        optional={"d_modes": st.lists(
            st.lists(st.sampled_from([2, 6, 10, 4 * 10**200 + 2]) | _FIELDS,
                     min_size=3, max_size=3) | st.lists(_AMPLITUDES),
            max_size=3) | _FIELDS}))


def _option(refused, accepted):
    return st.sampled_from(refused) | accepted.map(str)


_GRIDS = _option(["-4", "0", "1", "3", "32", "100", "2097152", "2" * 30,
                  "x"], st.sampled_from([64, 128, 256]))
_TOLS = _option(["0", "-1", "nan", "-inf", "x"],
                st.sampled_from([1e-8, 1e-3, math.inf]))
_SEEDS = _option(["x"], st.integers(-2, 2**64 + 2))
_STEPS = _option(["-1", "x"], st.integers(0, 30))
_STARTS = _option(["-1", "2097152", "x"], st.integers(0, 8))
_ANGLES = _option(["nan", "inf", "1e17", "-1e300", "x"],
                  st.floats(-7.0, 7.0, allow_nan=False))
_ARGV = st.one_of(
    st.tuples(st.just(["table", "validate"]), st.tuples(
        st.just("--grid"), _GRIDS)),
    st.tuples(st.just(["orbit"]), st.tuples(
        st.just("--psi0"), _ANGLES, st.just("--delta0"),
        _ANGLES | st.sampled_from(["1e-10", "0.5", "3.14"]),
        st.just("--steps"), _STEPS)),
    st.tuples(st.just(["verify"]), st.tuples(
        st.just("--suite"), st.sampled_from(["all", "twist", "symplectic",
                                             "poncelet", "orthoptic",
                                             "relations"]),
        st.just("--grid"), _GRIDS, st.just("--tol"), _TOLS,
        st.just("--seed"), _SEEDS)),
    st.tuples(st.just(["integral"]), st.tuples(st.just("--n"), _GRIDS)),
    st.tuples(st.just(["beam-scan"]), st.tuples(
        st.just("--starts"), _STARTS, st.just("--max-steps"), _STEPS,
        st.just("--seed"), _SEEDS)))


@settings(max_examples=150, deadline=None)
@given(_ARGV, _SPECS | st.sampled_from(["missing", *_RAW_SPECS]),
       st.booleans())
def test_cli_fuzz_exit_code_contract(argv, spec, to_file):
    # any argv and any spec: an exit code in 0-4 and no traceback; a usage
    # error is one `error: ` line and nothing on stdout
    command, options = argv
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        if not isinstance(spec, str):
            Path(path).write_text(json.dumps(spec))
        elif spec != "missing":
            Path(path).write_bytes(_RAW_SPECS[spec])
        # --name=value, so that "-1" and "-inf" stay values
        args = [*command, path, *(f"{name}={value}" for name, value in
                                  zip(options[::2], options[1::2]))]
        if to_file and command[0] != "table":
            args += ["--out", os.path.join(tmp, "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
                parsed = True
            except SystemExit as exc:
                code, parsed = exc.code, False
    err = err.getvalue()
    assert code in range(5)
    assert "Traceback" not in err
    if code == 2:
        if parsed:
            assert out.getvalue() == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err.count("error: ") == 1
