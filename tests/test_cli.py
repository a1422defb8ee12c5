import os

import numpy as np
import pytest

from mpemba.cli import main


def read_csv(path):
    manifest = {}
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                manifest[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return manifest, header, rows


class TestCalibrate:
    def test_writes_report_and_persists(self, tmp_path):
        out = str(tmp_path / "w")
        assert main(["-o", out, "calibrate"]) == 0
        manifest, header, rows = read_csv(os.path.join(out, "calibration.csv"))
        assert manifest["winner"].startswith("fitted")
        assert float(manifest["winner_max_residual"]) <= 0.01
        assert header[:4] == ["candidate", "physical", "reason", "max_residual"]
        assert len(rows) == 33
        literal = [r for r in rows if r[0].startswith("grid:literal")]
        assert literal and all(r[1] == "no" for r in literal)
        assert os.path.exists(os.path.join(out, "calibration.json"))

    def test_rerun_byte_identical(self, tmp_path):
        out = str(tmp_path / "w")
        main(["-o", out, "calibrate"])
        first = open(os.path.join(out, "calibration.csv"), "rb").read()
        main(["-o", out, "calibrate"])
        second = open(os.path.join(out, "calibration.csv"), "rb").read()
        assert first == second


class TestMarkov:
    def test_case_run_schema_and_values(self, tmp_path):
        out = str(tmp_path / "w")
        assert main(["-o", out, "markov", "--case", "i"]) == 0
        manifest, header, rows = read_csv(os.path.join(out, "markov_case_i_sld.csv"))
        assert header == ["tau", "yA", "zA", "ellA", "dA", "RA",
                          "yB", "zB", "ellB", "dB", "RB"]
        assert len(rows) == 1001
        assert float(manifest["L_A"]) == pytest.approx(0.890, abs=0.01)
        assert float(manifest["L_B"]) == pytest.approx(1.046, abs=0.01)
        assert manifest["iqme"] == "crossing"

    def test_explicit_points(self, tmp_path):
        out = str(tmp_path / "w")
        code = main(["-o", out, "markov", "--gamma-prime", "0.94",
                     "--a", "0.1,0.0", "--b", "0.0,0.9", "--metric", "hm"])
        assert code == 0
        path = os.path.join(out, "markov_gp0.94_hm.csv")
        manifest, _, _ = read_csv(path)
        assert manifest["metric"] == "hm"
        assert manifest["geodesic_reference"] == "sld"

    def test_missing_points_usage_error(self, tmp_path):
        out = str(tmp_path / "w")
        assert main(["-o", out, "markov"]) == 2

    def test_unknown_case_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["-o", str(tmp_path), "markov", "--case", "v"])
        assert exc.value.code == 2

    def test_instability_exit_code(self, tmp_path):
        out = str(tmp_path / "w")
        code = main(["-o", out, "markov", "--gamma-prime", "0.94",
                     "--a=-0.9,-0.3", "--b", "0.0,0.0"])
        assert code == 4


class TestMarkovMap:
    def test_map_schema(self, tmp_path):
        out = str(tmp_path / "w")
        assert main(["-o", out, "markov-map", "--gamma-prime", "0.52",
                     "--spacing", "0.2"]) == 0
        manifest, header, rows = read_csv(os.path.join(out, "markov_map_gp0.52_sld.csv"))
        assert header == ["y", "z", "L", "d0", "excess"]
        assert manifest["n_excluded"] == "0"
        excess = np.array([float(r[4]) for r in rows])
        assert np.all(excess >= -1e-6)

    def test_speeds_and_svg(self, tmp_path):
        out = str(tmp_path / "w")
        assert main(["-o", out, "markov-map", "--gamma-prime", "0.52",
                     "--spacing", "0.25", "--speeds", "--svg", "m.svg"]) == 0
        manifest, header, rows = read_csv(
            os.path.join(out, "markov_map_gp0.52_sld_speeds.csv"))
        assert header == ["tau", "speed"]
        assert manifest["speed_clip"] == "3.0"
        speeds = np.array([float(r[1]) for r in rows])
        assert np.all(speeds <= 3.0 + 1e-12)
        svg = open(os.path.join(out, "m.svg")).read()
        assert svg.startswith("<svg") and "rect" in svg

    def test_hm_metric_allowed_with_sld_reference(self, tmp_path):
        out = str(tmp_path / "w")
        assert main(["-o", out, "markov-map", "--gamma-prime", "0.52",
                     "--metric", "hm", "--spacing", "0.25"]) == 0


class TestCircuit:
    def test_curves_and_verdicts(self, tmp_path):
        out = str(tmp_path / "w")
        code = main(["-o", out, "circuit", "--n", "8",
                     "--theta", "0.1pi,0.5pi", "--trajectories", "40",
                     "--steps", "8", "--seed", "5"])
        assert code == 0
        manifest, header, rows = read_csv(
            os.path.join(out, "circuit_neel_0.1pi_sld.csv"))
        assert header == ["step", "mean_ell", "std_err", "residue"]
        assert len(rows) == 9
        assert manifest["n_trajectories"] == "40"
        _, vh, vrows = read_csv(os.path.join(out, "circuit_neel_sld_verdicts.csv"))
        assert vh[:2] == ["curve_a", "curve_b"]
        assert len(vrows) == 1

    def test_hm_rejected_at_parse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["-o", str(tmp_path), "circuit", "--n", "8",
                  "--theta", "0.5pi", "--metric", "hm"])
        assert exc.value.code == 2

    def test_seeded_rerun_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["circuit", "--n", "8", "--theta", "0.3pi",
                "--trajectories", "30", "--steps", "6", "--seed", "9"]
        main(["-o", out1] + argv)
        main(["-o", out2] + argv)
        f1 = open(os.path.join(out1, "circuit_neel_0.3pi_sld.csv"), "rb").read()
        f2 = open(os.path.join(out2, "circuit_neel_0.3pi_sld.csv"), "rb").read()
        assert f1 == f2

    def test_thread_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        argv = ["circuit", "--n", "8", "--theta", "0.2pi",
                "--trajectories", "30", "--steps", "6", "--seed", "2"]
        monkeypatch.setenv("MPEMBA_THREADS", "1")
        main(["-o", str(tmp_path / "t1")] + argv)
        monkeypatch.setenv("MPEMBA_THREADS", "8")
        main(["-o", str(tmp_path / "t8")] + argv)
        f1 = open(str(tmp_path / "t1" / "circuit_neel_0.2pi_sld.csv"), "rb").read()
        f8 = open(str(tmp_path / "t8" / "circuit_neel_0.2pi_sld.csv"), "rb").read()
        assert f1 == f8

    def test_domain_wall_family(self, tmp_path):
        out = str(tmp_path / "w")
        code = main(["-o", out, "circuit", "--n", "8", "--theta", "0.5pi",
                     "--family", "ferro-domain-wall", "--trajectories", "30",
                     "--steps", "6"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "circuit_ferro_domain_wall_0.5pi_sld.csv"))


VALID_CACHE = '{"max_residual": 0.005, "winner": "fitted:z-coupled:pole-"}\n'
THETA = ["--theta", "0.5pi"]


@pytest.mark.parametrize("argv, cache, env", [
    pytest.param(["circuit", "--n", "7"] + THETA, None, None, id="odd-n"),
    pytest.param(["circuit", "--n", "8", "--trajectories", "1"] + THETA, None, None,
                 id="one-trajectory"),
    pytest.param(["circuit", "--n", "8", "--trajectories", "0"] + THETA, None, None,
                 id="zero-trajectories"),
    pytest.param(["circuit", "--n", "8", "--steps", "4", "--trajectories", "4"] + THETA, None, None,
                 id="horizon-below-convergence-window"),
    pytest.param(["circuit", "--n", "6", "--subsystem", "quarter", "--trajectories", "4"]
                 + THETA, None, None, id="quarter-of-6-qubits"),
    pytest.param(["markov", "--gamma-prime", "0.94", "--a", "2,0", "--b", "0,0"], VALID_CACHE, None,
                 id="point-outside-ball"),
    pytest.param(["markov", "--case", "i", "--steps", "0"], VALID_CACHE, None, id="zero-steps"),
    pytest.param(["markov-map", "--gamma-prime", "0.94", "--spacing", "-1"], VALID_CACHE, None,
                 id="negative-spacing"),
    pytest.param(["markov-map", "--gamma-prime", "0.52", "--spacing", "5"], VALID_CACHE, None,
                 id="spacing-without-interior-point"),
    pytest.param(["markov", "--case", "i"], '{"winner": "fitted', None, id="truncated-cache"),
    pytest.param(["markov", "--case", "i"], '{"max_residual": 0.005}\n', None,
                 id="cache-without-winner"),
    pytest.param(["markov", "--case", "i", "--a", "0.9,0.0", "--gamma-prime", "0.52"],
                 VALID_CACHE, None, id="case-with-explicit-points"),
    pytest.param(["markov", "--case", "ii", "--b", "0.1,0.1"], VALID_CACHE, None,
                 id="case-with-b"),
    pytest.param(["markov", "--case", "ii", "--alpha", "50"], VALID_CACHE, None,
                 id="case-with-alpha"),
    pytest.param(["circuit", "--n", "8", "--trajectories", "4", "--steps", "5"] + THETA, None,
                 {"MPEMBA_THREADS": "abc"}, id="threads-not-an-integer"),
])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, monkeypatch, argv, cache, env):
    out = tmp_path / "w"
    out.mkdir()
    for key, value in (env or {}).items():
        monkeypatch.setenv(key, value)
    if cache is not None:
        (out / "calibration.json").write_text(cache)
    try:
        code = main(["-o", str(out)] + argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "error: " in err
    assert not list(out.glob("*.csv"))
    if "--spacing" in argv:
        assert "spacing" in err
    if cache is not None and cache != VALID_CACHE:
        assert str(out / "calibration.json") in err


def test_six_qubit_single_site_subsystem(tmp_path):
    out = str(tmp_path / "w")
    assert main(["-o", out, "circuit", "--n", "6", "--subsystem", "1", "--theta", "0.5pi",
                 "--trajectories", "4", "--steps", "5"]) == 0
    manifest, _, rows = read_csv(os.path.join(out, "circuit_neel_0.5pi_sld.csv"))
    assert manifest["subsystem_size"] == "1"
    assert len(rows) == 6
