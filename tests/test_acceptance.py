"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. The circuit criteria run desk-scale ensembles (N = 12) and take
a few minutes in total.
"""

import os
import time

import numpy as np
import pytest

from mpemba import analysis, circuit, markov
from mpemba.cli import main as cli_main
from mpemba.geometry import (
    MetricKind,
    bloch_speed,
    bloch_to_density,
    fidelity_general,
    geodesic_distance,
    petz_speed,
    uhlmann_fidelity,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def calibration():
    return markov.calibrate()


@pytest.fixture(scope="module")
def case_records(calibration):
    recs = {}
    for case in markov.ANCHORS:
        params = markov.MarkovParams(markov.ANCHOR_ALPHA, case.gamma_prime,
                                     calibration.winner)
        recs[case.label] = (
            markov.run_trajectory_record([0.0, *case.point_a], params, label="A"),
            markov.run_trajectory_record([0.0, *case.point_b], params, label="B"),
        )
    return recs


def _ensemble(theta, family, metric, n_traj, seed=1):
    cfg = circuit.CircuitConfig(n_qubits=12, theta=theta, family=family,
                                horizon=20, n_trajectories=n_traj,
                                master_seed=seed, metric=metric)
    return circuit.average_curves(cfg)


@pytest.fixture(scope="module")
def neel_sld_curves():
    t0 = time.monotonic()
    curves = (_ensemble(0.1 * np.pi, "neel", MetricKind.SLD, 2000),
              _ensemble(0.5 * np.pi, "neel", MetricKind.SLD, 2000))
    return curves, time.monotonic() - t0


@pytest.fixture(scope="module")
def ferro_curves():
    thetas = (0.4 * np.pi, 0.45 * np.pi, 0.5 * np.pi)
    return {th: _ensemble(th, "ferro", MetricKind.SLD, 1000) for th in thetas}


def test_criterion_01_calibration_regression(calibration, case_records):
    t0 = time.monotonic()
    worst = 0.0
    details = []
    for case in markov.ANCHORS:
        rec_a, rec_b = case_records[case.label]
        for got, want in ((rec_a.total_length, case.length_a),
                          (rec_b.total_length, case.length_b),
                          (rec_a.geo[0], case.dist_a),
                          (rec_b.geo[0], case.dist_b)):
            worst = max(worst, abs(got - want))
        details.append(f"{case.label}: L=({rec_a.total_length:.3f},{rec_b.total_length:.3f})")
    elapsed = time.monotonic() - t0
    ok = worst <= 0.01 and calibration.max_residual <= 0.01 and elapsed < 30.0
    report(1, ok, f"16 anchors within {worst:.4f} (limit 0.01), "
                  f"winner residual {calibration.max_residual:.4f}, {elapsed:.1f}s")


def test_criterion_02_verdict_regression(case_records):
    t0 = time.monotonic()
    iqme = {}
    qme = {}
    for label, (rec_a, rec_b) in case_records.items():
        iqme[label] = analysis.iqme_verdict(rec_a, rec_b)
        qme[label] = analysis.qme_verdict(rec_a, rec_b)
    ok = (iqme["i"].is_crossing and iqme["ii"].is_crossing
          and not iqme["iii"].is_crossing and not iqme["iv"].is_crossing
          and qme["iii"].is_crossing and not qme["ii"].is_crossing)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    computed = (f"QME case i: {qme['i'].kind}, case iv: {qme['iv'].kind} "
                f"(recorded as computed)")
    report(2, ok, f"IQME i/ii present, iii/iv absent; QME iii present, ii absent; "
                  f"{computed}; {elapsed:.1f}s")


def test_criterion_03_hm_experiment(calibration):
    params = markov.MarkovParams(100.0, 0.94, calibration.winner)
    verdicts = {}
    for metric in (MetricKind.HM, MetricKind.SLD):
        rec_a = markov.run_trajectory_record([0.0, 0.1, 0.0], params, metric, label="A")
        rec_b = markov.run_trajectory_record([0.0, 0.0, 0.9], params, metric, label="B")
        verdicts[metric] = analysis.iqme_verdict(rec_a, rec_b)
    ok = all(v.is_crossing for v in verdicts.values())
    t_c = ["none" if v.t_c is None else f"{v.t_c:.2f}"
           for v in (verdicts[MetricKind.HM], verdicts[MetricKind.SLD])]
    report(3, ok, f"IQME crossing under both HM and SLD metrics (t_c = {t_c[0]} / {t_c[1]})")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_speed = 0.0
    worst_fid = 0.0
    for _ in range(10000):
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 0.98) / np.linalg.norm(r)
        v = rng.normal(size=3)
        rho = bloch_to_density(r)
        xdot = 0.5 * (v[0] * SX + v[1] * SY + v[2] * SZ)
        for metric in (MetricKind.SLD, MetricKind.HM, MetricKind.WY):
            a = petz_speed(rho, xdot, metric)
            b = bloch_speed(r, v, metric)
            worst_speed = max(worst_speed, abs(a - b) / max(abs(b), 1e-30))
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sigma = g @ g.conj().T
        sigma /= sigma.trace().real
        worst_fid = max(worst_fid, abs(uhlmann_fidelity(rho, sigma)
                                       - fidelity_general(rho, sigma)))
    ok = worst_speed < 1e-9 and worst_fid < 1e-9
    report(4, ok, f"10000 pairs: bloch_speed vs petz_speed (SLD/HM/WY) rel err {worst_speed:.2e}, "
                  f"fidelity fast-vs-general {worst_fid:.2e} (limits 1e-9)")


def test_criterion_05_metric_sandwich(calibration):
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 30.0, 1001)
    violations = 0.0
    for k in range(100):
        gp = 0.52 if k % 2 == 0 else 0.94
        params = markov.MarkovParams(100.0, gp, calibration.winner)
        r = rng.normal(size=2)
        r *= rng.uniform(0.05, 0.9) / np.linalg.norm(r)
        if gp == 0.94:
            r[0] = abs(r[0])  # calibrated region at the larger drive ratio
        states = markov.integrate([0.0, *r], params)
        e_sld = markov.trajectory_length(states, times, MetricKind.SLD, params)
        e_wy = markov.trajectory_length(states, times, MetricKind.WY, params)
        e_hm = markov.trajectory_length(states, times, MetricKind.HM, params)
        violations = max(violations,
                         float(np.max(e_sld - e_wy)), float(np.max(e_wy - e_hm)))
    ok = violations <= 1e-9
    report(5, ok, f"100 trajectories: max ordering violation {violations:.2e} "
                  f"(slack 1e-9)")


def test_criterion_06_geodesic_followers(calibration):
    worst_axis = 0.0
    worst_floor = 0.0
    for gp in (0.52, 0.94):
        params = markov.MarkovParams(100.0, gp, calibration.winner)
        dm = markov.distance_map(params, grid_spacing=0.02)
        good = dm.valid
        worst_floor = min(worst_floor, float(np.min(dm.excess[good])))
        axis = good & (np.abs(dm.points[:, 0]) < 1e-12)
        worst_axis = max(worst_axis, float(np.max(dm.excess[axis])))
    ok = worst_axis < 0.01 and worst_floor >= -1e-6
    report(6, ok, f"y=0 column max excess {worst_axis:.5f} (limit 0.01); "
                  f"global excess floor {worst_floor:.2e}")


def test_criterion_07_circuit_iqme(neel_sld_curves):
    (c01, c05), elapsed = neel_sld_curves
    verdict = analysis.iqme_verdict(c01, c05)
    combined = float(np.hypot(c01.std_err[-1], c05.std_err[-1]))
    dist01 = float(np.mean([geodesic_distance(r, np.eye(2) / 2, MetricKind.SLD)
                            for r in c01.final_rdms]))
    dist05 = float(np.mean([geodesic_distance(r, np.eye(2) / 2, MetricKind.SLD)
                            for r in c05.final_rdms]))
    ok = (verdict.is_crossing
          and verdict.margin > 2.0 * combined
          and c05.mean_total > c01.mean_total
          and dist01 < 0.05 and dist05 < 0.05
          and elapsed < 600.0)
    report(7, ok, f"crossing at t_c={verdict.t_c:.2f}, margin {verdict.margin:.4f} "
                  f"> 2SE {2*combined:.4f}; L(0.5pi)={c05.mean_total:.3f} > "
                  f"L(0.1pi)={c01.mean_total:.3f}; dist to I/2 = "
                  f"{dist01:.3f}/{dist05:.3f} (<0.05); {elapsed:.0f}s")


def test_criterion_08_circuit_ferro(ferro_curves):
    pairs_ok = True
    labels = sorted(ferro_curves)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            v = analysis.iqme_verdict(ferro_curves[labels[i]], ferro_curves[labels[j]])
            pairs_ok = pairs_ok and not v.is_crossing
    dist_ok = True
    dists = []
    for th, curve in ferro_curves.items():
        target = circuit.equilibrium_rdm(th, 1)
        d = float(np.mean([geodesic_distance(r, target, MetricKind.SLD)
                           for r in curve.final_rdms]))
        dists.append(d)
        dist_ok = dist_ok and d < 0.05
    low = _ensemble(0.2 * np.pi, "ferro", MetricKind.SLD, 1000)
    ok = pairs_ok and dist_ok and not low.converged
    report(8, ok, f"no IQME crossing among theta = 0.4/0.45/0.5 pi; "
                  f"equilibrium distances {['%.3f' % d for d in dists]} (<0.05); "
                  f"theta=0.2pi converged={low.converged} (expected False)")


def test_criterion_09_exact_zero():
    cfg = circuit.CircuitConfig(n_qubits=12, theta=0.0, family="ferro",
                                horizon=20, n_trajectories=5, master_seed=3,
                                metric=MetricKind.SLD)
    _, ell = circuit.run_trajectory(cfg, 0)
    curve = circuit.average_curves(cfg)
    ok = bool(np.all(ell == 0.0) and np.all(curve.mean_ell == 0.0))
    report(9, ok, "ferro theta=0 lengths are exactly zero at every step")


def test_criterion_10_wy_circuit():
    c01 = _ensemble(0.1 * np.pi, "neel", MetricKind.WY, 2000)
    c05 = _ensemble(0.5 * np.pi, "neel", MetricKind.WY, 2000)
    verdict = analysis.iqme_verdict(c01, c05)
    ok = verdict.is_crossing and c05.mean_total > c01.mean_total
    report(10, ok, f"WY metric reproduces the crossing (t_c={verdict.t_c}, "
                   f"margin {verdict.margin:.4f})")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    outs = {}
    for threads in ("1", "8"):
        for attempt in ("a", "b"):
            out = str(tmp_path / f"t{threads}{attempt}")
            monkeypatch.setenv("MPEMBA_THREADS", threads)
            assert cli_main(["-o", out, "circuit", "--n", "10", "--theta", "0.3pi",
                             "--trajectories", "64", "--steps", "10",
                             "--seed", "11"]) == 0
            assert cli_main(["-o", out, "markov", "--case", "ii"]) == 0
            assert cli_main(["-o", out, "calibrate"]) == 0
            blobs = {}
            for name in ("circuit_neel_0.3pi_sld.csv", "markov_case_ii_sld.csv",
                         "calibration.csv"):
                blobs[name] = open(os.path.join(out, name), "rb").read()
            outs[(threads, attempt)] = blobs
    ok = all(outs[("1", "a")] == outs[key] for key in outs)
    report(11, ok, "circuit + markov + calibration CSVs byte-identical across "
                   "re-runs and thread counts 1/8")


def test_criterion_12_haar_sanity():
    # 100,000 blocks as the engine draws them: 1000 trajectories x 10 steps x 10 gates
    mids, pu, pd = circuit._draw_gate_blocks(99, range(1000), 10, 10)
    moments = np.mean(np.abs(mids.reshape(-1, 2, 2)) ** 2, axis=0)
    moment_ok = bool(np.all(np.abs(moments - 0.5) < 0.005))
    # 4x4 matrices that the engine's kernel applies at n = 2: column j is G e_j
    k = 200
    basis = np.tile(np.eye(4, dtype=complex), (k, 1))
    applied = circuit._apply_gate_batch(
        basis, 2, 0, 1, np.repeat(pu.ravel()[:k], 4),
        np.repeat(mids.reshape(-1, 2, 2)[:k], 4, axis=0), np.repeat(pd.ravel()[:k], 4))
    gates = np.swapaxes(applied.reshape(k, 4, 4), -1, -2)
    sz = np.diag([1.0, -1.0])
    charge = np.kron(sz, np.eye(2)) + np.kron(np.eye(2), sz)
    worst = float(np.max(np.abs(gates @ charge - charge @ gates)))
    ok = moment_ok and worst < 1e-12
    report(12, ok, f"|u_ij|^2 moments within {np.max(np.abs(moments-0.5)):.4f} "
                   f"of 0.5 (limit 0.005); charge commutator {worst:.1e} (limit 1e-12)")
