import tracemalloc

import numpy as np
import pytest

from mpemba import circuit
from mpemba.circuit import (
    AveragedCurve,
    CircuitConfig,
    _apply_gate_batch,
    _draw_gate_blocks,
    _reduce_batch,
    _run_batch,
    average_curves,
    charge_expectation,
    convergence_check,
    equilibrium_rdm,
    gate_layout,
    initial_state,
    run_trajectory,
    thread_count,
)
from mpemba.geometry import MetricKind, UnsupportedMetricError, geodesic_batch, geodesic_distance


def small_config(**kw):
    base = dict(n_qubits=8, theta=0.3 * np.pi, family="neel", horizon=10,
                n_trajectories=20, master_seed=7, metric=MetricKind.SLD)
    base.update(kw)
    return CircuitConfig(**base)


def random_amplitudes(rng, n):
    amp = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return amp / np.linalg.norm(amp)


def apply_one(amp, n, qa, qb, phase_up, mid, phase_down):
    """One gate on a copy of one state through the in-place batch kernel."""
    return _apply_gate_batch(amp[None, :].copy(), n, qa, qb, np.array([phase_up]),
                             np.asarray(mid, dtype=complex)[None], np.array([phase_down]))[0]


def dense_gate(n, qa, qb, phase_up, mid, phase_down):
    """The 2^n x 2^n operator of one gate: sum over the 4x4 entries of
    |i><k| on qa times |j><l| on qb, tensored with identities by kron."""
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0], g[1:3, 1:3], g[3, 3] = phase_up, mid, phase_down
    basis = np.eye(2)
    full = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        ops = [np.eye(2)] * n
        ops[qa] = np.outer(basis[i], basis[k])
        ops[qb] = np.outer(basis[j], basis[l])
        term = np.eye(1)
        for op in ops:
            term = np.kron(term, op)
        full += g[2 * i + j, 2 * k + l] * term
    return full


def drawn_gates(count, seed=0):
    """(mids, phases_up, phases_down) of `count` gates from the engine's draw."""
    mids, pu, pd = _draw_gate_blocks(seed, range(count // 10), 1, 10)
    return mids.reshape(-1, 2, 2), pu.ravel(), pd.ravel()


class TestHaar:
    def test_phase_block(self):
        _, pu, pd = drawn_gates(500)
        assert np.max(np.abs(np.abs(np.concatenate([pu, pd])) - 1.0)) < 1e-12

    def test_unitarity(self):
        mids, _, _ = drawn_gates(200)
        prod = np.swapaxes(mids.conj(), -1, -2) @ mids
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12

    def test_moment(self):
        mids, _, _ = drawn_gates(20000)
        assert np.mean(np.abs(mids[:, 0, 0]) ** 2) == pytest.approx(0.5, abs=0.01)


class TestInitialStates:
    def test_neel_theta0(self):
        amp = initial_state("neel", 0.0, 6)
        idx = int(np.argmax(np.abs(amp)))
        assert abs(amp[idx]) == pytest.approx(1.0)
        assert idx == 0b010101

    def test_ferro_half_pi_uniform(self):
        psi = initial_state("ferro", np.pi / 2, 6)
        assert np.allclose(np.abs(psi), 2 ** -3)

    def test_neel_zero_charge(self):
        for theta in (0.0, 0.2, 1.1):
            psi = initial_state("neel", theta, 8)
            assert charge_expectation(psi) == pytest.approx(0.0, abs=1e-9)

    def test_ferro_charge(self):
        theta = 0.4 * np.pi
        psi = initial_state("ferro", theta, 8)
        assert charge_expectation(psi) == pytest.approx(8 * np.cos(theta), abs=1e-9)

    def test_domain_wall_pattern(self):
        psi = initial_state("ferro_domain_wall", 0.0, 6)
        idx = int(np.argmax(np.abs(psi)))
        assert idx == 0b000111


class TestApplyGate:
    def test_gate_matrix_commutes_with_charge(self):
        sz = np.diag([1.0, -1.0])
        q2 = np.kron(sz, np.eye(2)) + np.kron(np.eye(2), sz)
        mids, pu, pd = drawn_gates(50, seed=3)
        for k in range(50):
            # columns: the gate applied to each basis state of a 2-qubit register
            g = np.array([apply_one(e, 2, 0, 1, pu[k], mids[k], pd[k])
                          for e in np.eye(4, dtype=complex)]).T
            assert np.max(np.abs(g @ q2 - q2 @ g)) < 1e-12
            assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-12

    def test_norm_and_charge_preserved(self):
        rng = np.random.default_rng(4)
        amp = random_amplitudes(rng, 6)
        q_before = charge_expectation(amp)
        mids, pu, pd = drawn_gates(10, seed=4)
        for k, (qa, qb) in enumerate([(0, 1), (3, 4), (5, 0), (2, 5)]):
            amp = apply_one(amp, 6, qa, qb, pu[k], mids[k], pd[k])
        assert abs(np.linalg.norm(amp) - 1.0) < 1e-12
        assert charge_expectation(amp) == pytest.approx(q_before, abs=1e-9)

    def test_matches_dense_operator_in_place(self):
        n, b = 6, 3
        rng = np.random.default_rng(8)
        pairs = gate_layout(n)
        assert (5, 0) in pairs
        mids, pu, pd = _draw_gate_blocks(8, range(b), 1, len(pairs))
        for g, (qa, qb) in enumerate(pairs):
            amps = np.array([random_amplitudes(rng, n) for _ in range(b)])
            expected = np.array([dense_gate(n, qa, qb, pu[r, 0, g], mids[r, 0, g], pd[r, 0, g])
                                 @ amps[r] for r in range(b)])
            out = _apply_gate_batch(amps, n, qa, qb, pu[:, 0, g], mids[:, 0, g], pd[:, 0, g])
            assert out is amps
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_identity_blocks_do_nothing(self):
        amp = random_amplitudes(np.random.default_rng(5), 4)
        out = apply_one(amp, 4, 1, 2, 1.0, np.eye(2), 1.0)
        assert np.allclose(out, amp)

    def test_all_up_gets_only_phase(self):
        psi = initial_state("ferro", 0.0, 4)
        mids, pu, pd = drawn_gates(10, seed=6)
        out = apply_one(psi, 4, 1, 2, pu[0], mids[0], pd[0])
        ratio = out[0] / psi[0]
        assert abs(abs(ratio) - 1.0) < 1e-12
        assert np.allclose(np.abs(out[1:]), 0.0)


class TestReduce:
    def test_product_state_pure(self):
        psi = initial_state("neel", 0.3, 6)
        rho = _reduce_batch(psi[None], 6, 0, 1)[0]
        evals = np.linalg.eigvalsh(rho)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_bell_pair(self):
        amp = np.zeros(4, dtype=complex)
        amp[0b01] = 1 / np.sqrt(2)
        amp[0b10] = 1 / np.sqrt(2)
        rho = _reduce_batch(amp[None], 2, 0, 1)[0]
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_ferro_projector(self):
        psi = initial_state("ferro", 0.0, 8)
        rho = _reduce_batch(psi[None], 8, 0, 2)[0]
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-12)

    def test_wraparound_subsystem(self):
        psi = initial_state("ferro_domain_wall", 0.0, 4)  # |0011> pattern
        rho = _reduce_batch(psi[None], 4, 3, 2)[0]  # qubits 3 and 0 -> bits (1, 0)
        expected = np.zeros((4, 4))
        expected[0b10, 0b10] = 1.0
        assert np.allclose(rho, expected, atol=1e-12)


class TestRunTrajectory:
    def test_deterministic_rerun(self):
        cfg = small_config()
        r1, e1 = run_trajectory(cfg, 3)
        r2, e2 = run_trajectory(cfg, 3)
        assert np.array_equal(r1, r2)
        assert np.array_equal(e1, e2)

    def test_different_indices_differ(self):
        cfg = small_config()
        _, e1 = run_trajectory(cfg, 0)
        _, e2 = run_trajectory(cfg, 1)
        assert not np.allclose(e1, e2)

    def test_lengths_nondecreasing(self):
        cfg = small_config()
        _, ell = run_trajectory(cfg, 0)
        assert np.all(np.diff(ell) >= -1e-15)

    def test_ferro_theta0_exactly_zero(self):
        cfg = small_config(family="ferro", theta=0.0)
        rdms, ell = run_trajectory(cfg, 5)
        assert np.all(ell == 0.0)
        assert np.allclose(rdms[:, 0, 0], 1.0)

    def test_triangle_bound(self):
        cfg = small_config()
        rdms, ell = run_trajectory(cfg, 2)
        for j in (3, 6, 10):
            chord = 0.5 * geodesic_distance(rdms[j], rdms[0], MetricKind.SLD)
            assert ell[j] >= chord - 1e-9

    def test_metric_ordering_same_stream(self):
        c_sld = small_config(metric=MetricKind.SLD)
        c_wy = small_config(metric=MetricKind.WY)
        _, e_sld = run_trajectory(c_sld, 4)
        _, e_wy = run_trajectory(c_wy, 4)
        assert np.all(e_sld <= e_wy + 1e-9)

    def test_quarter_subsystem(self):
        cfg = small_config(subsystem_size=2)
        rdms, ell = run_trajectory(cfg, 0)
        assert rdms.shape[1:] == (4, 4)
        assert np.all(np.diff(ell) >= -1e-15)

    @pytest.mark.parametrize("size", [1, 2])
    def test_single_run_is_row_of_batch(self, size):
        for metric in (MetricKind.SLD, MetricKind.WY):
            cfg = small_config(subsystem_size=size, metric=metric)
            ells, rdms = _run_batch(cfg, [2, 5, 9, 11])
            for row, k in enumerate([2, 5, 9, 11]):
                single_rdms, single_ell = run_trajectory(cfg, k)
                assert np.array_equal(single_rdms, rdms[row])
                assert np.array_equal(single_ell, ells[row])


def reference_run(cfg, traj_indices):
    """_run_batch as a plain loop: each gate on the whole batch in layout
    order, then the reduction and the step distances."""
    n, start, size = cfg.n_qubits, cfg.subsystem_start, cfg.subsystem_size
    pairs = gate_layout(n)
    mids, pu, pd = _draw_gate_blocks(cfg.master_seed, traj_indices, cfg.horizon, len(pairs))
    amps = np.tile(initial_state(cfg.family, cfg.theta, n), (len(traj_indices), 1))
    rdms = [_reduce_batch(amps, n, start, size)]
    ells = [np.zeros(len(traj_indices))]
    for t in range(cfg.horizon):
        for g, (qa, qb) in enumerate(pairs):
            _apply_gate_batch(amps, n, qa, qb, pu[:, t, g], mids[:, t, g], pd[:, t, g])
        rdms.append(_reduce_batch(amps, n, start, size))
        ells.append(ells[-1] + 0.5 * geodesic_batch(rdms[-2], rdms[-1], cfg.metric))
    return np.stack(ells, axis=1), np.stack(rdms, axis=1)


class TestRowBlocks:
    # (n, subsystem size, subsystem start): single site at both ends, and the
    # quarter subsystem of 8 qubits plain and wrapping over qubits 7, 0
    CASES = [(n, 1, start) for n in (2, 4, 6, 8, 10) for start in (0, n - 1)]
    CASES += [(8, 2, 0), (8, 2, 7)]

    @pytest.mark.parametrize("metric", [MetricKind.SLD, MetricKind.WY])
    @pytest.mark.parametrize("n, size, start", CASES)
    def test_matches_plain_gate_loop(self, monkeypatch, n, size, start, metric):
        cfg = small_config(n_qubits=n, subsystem_size=size, subsystem_start=start,
                           metric=metric, horizon=6)
        indices = [0, 3, 4, 8, 9]
        if n > 2:
            # Blocks of 2, 2 and 1 rows. At n = 2 every sector view holds one
            # amplitude per row, so numpy's loops run along the batch axis and
            # the last bit of a product depends on the block's row count; there
            # the batch stays one block, as it does at the default block size.
            monkeypatch.setattr(circuit, "GATE_BLOCK_BYTES", 2 * 16 * 2 ** n)
        ells, rdms = _run_batch(cfg, indices)
        ref_ells, ref_rdms = reference_run(cfg, indices)
        assert np.array_equal(ells, ref_ells)
        assert np.array_equal(rdms, ref_rdms)

    def test_peak_memory_is_one_block_not_the_chunk(self):
        cfg = small_config(n_qubits=14, horizon=6)
        tracemalloc.start()
        try:
            _run_batch(cfg, list(range(64)))  # the whole chunk would be 16 MiB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestConservation:
    def test_full_run_charge_and_norm(self):
        cfg = small_config(horizon=12)
        n = cfg.n_qubits
        pairs = gate_layout(n)
        mids, pu, pd = _draw_gate_blocks(cfg.master_seed, [0], cfg.horizon, len(pairs))
        psi = initial_state(cfg.family, cfg.theta, n)
        amps = psi[None, :].copy()
        q0 = charge_expectation(psi)
        for t in range(cfg.horizon):
            for g, (qa, qb) in enumerate(pairs):
                amps = _apply_gate_batch(amps, n, qa, qb, pu[:, t, g], mids[:, t, g], pd[:, t, g])
        assert abs(np.linalg.norm(amps[0]) - 1.0) < 1e-9
        assert charge_expectation(amps[0]) == pytest.approx(q0, abs=1e-8)


class TestEnsemble:
    def test_average_curve_basics(self):
        cfg = small_config(n_trajectories=30)
        curve = average_curves(cfg)
        assert curve.mean_ell.shape == (cfg.horizon + 1,)
        assert np.all(np.diff(curve.mean_ell) >= -1e-15)
        assert curve.mean_total == pytest.approx(curve.mean_ell[-1])
        assert np.allclose(curve.residue, curve.mean_total - curve.mean_ell)
        assert curve.final_rdms.shape == (30, 2, 2)

    def test_ferro_theta0_zero_curve(self):
        cfg = small_config(family="ferro", theta=0.0, n_trajectories=5)
        curve = average_curves(cfg)
        assert np.all(curve.mean_ell == 0.0)
        assert np.all(curve.std_err == 0.0)

    def test_deterministic_across_thread_counts(self, monkeypatch):
        cfg = small_config(n_trajectories=40)
        monkeypatch.setenv("MPEMBA_THREADS", "1")
        c1 = average_curves(cfg)
        monkeypatch.setenv("MPEMBA_THREADS", "4")
        c4 = average_curves(cfg)
        assert np.array_equal(c1.mean_ell, c4.mean_ell)
        assert np.array_equal(c1.std_err, c4.std_err)
        assert np.array_equal(c1.final_rdms, c4.final_rdms)

    def test_std_err_scaling(self):
        cfg_small = small_config(n_trajectories=50, master_seed=11)
        cfg_big = small_config(n_trajectories=200, master_seed=11)
        se_small = average_curves(cfg_small).std_err[-1]
        se_big = average_curves(cfg_big).std_err[-1]
        assert se_big == pytest.approx(se_small / 2.0, rel=0.35)

    def test_translation_invariance(self):
        base = small_config(n_trajectories=150, master_seed=3)
        shifted = small_config(n_trajectories=150, master_seed=3,
                               subsystem_start=base.n_qubits // 2)
        c0 = average_curves(base)
        c1 = average_curves(shifted)
        gap = abs(c0.mean_total - c1.mean_total)
        combined = np.hypot(c0.std_err[-1], c1.std_err[-1])
        assert gap <= 3.0 * combined


class TestEquilibrium:
    def test_half_pi_maximally_mixed(self):
        assert np.allclose(equilibrium_rdm(np.pi / 2, 1), np.eye(2) / 2)

    def test_known_bias(self):
        rho = equilibrium_rdm(0.4 * np.pi, 1)
        assert rho[0, 0].real == pytest.approx((1 + np.cos(0.4 * np.pi)) / 2)
        assert rho[0, 0].real == pytest.approx(0.6545, abs=1e-4)

    def test_theta_zero_warns_pure(self):
        with pytest.warns(UserWarning):
            rho = equilibrium_rdm(0.0, 1)
        assert rho[0, 0].real == pytest.approx(1.0)

    def test_tensor_power(self):
        rho = equilibrium_rdm(0.45 * np.pi, 2)
        site = equilibrium_rdm(0.45 * np.pi, 1)
        assert np.allclose(rho, np.kron(site, site))


class TestConvergence:
    def _curve(self, values):
        values = np.asarray(values, dtype=float)
        times = np.arange(len(values), dtype=float)
        return AveragedCurve(times=times, mean_ell=values,
                             std_err=np.zeros_like(values),
                             mean_total=float(values[-1]),
                             residue=values[-1] - values, converged=False,
                             label="test", metric=MetricKind.SLD, n_trajectories=2)

    def test_constant_true(self):
        assert convergence_check(self._curve(np.ones(12)))

    def test_linear_growth_false(self):
        assert not convergence_check(self._curve(0.1 * np.arange(12)))

    def test_saturating_true(self):
        vals = 1.0 - np.exp(-np.arange(15, dtype=float))
        assert convergence_check(self._curve(vals))


class TestConfigValidation:
    def test_odd_qubits_rejected(self):
        with pytest.raises(ValueError):
            CircuitConfig(n_qubits=7)

    def test_hm_metric_rejected(self):
        with pytest.raises(UnsupportedMetricError):
            CircuitConfig(n_qubits=8, metric=MetricKind.HM)

    def test_bad_subsystem_rejected(self):
        with pytest.raises(ValueError):
            CircuitConfig(n_qubits=8, subsystem_size=3)

    def test_quarter_needs_divisible(self):
        CircuitConfig(n_qubits=8, subsystem_size=2)
        CircuitConfig(n_qubits=6, subsystem_size=1)
        with pytest.raises(ValueError):
            CircuitConfig(n_qubits=10, subsystem_size=2)


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("MPEMBA_THREADS", "8")
    assert thread_count() == 8
    for bad in ("junk", "0", "-2", "1.5", ""):
        monkeypatch.setenv("MPEMBA_THREADS", bad)
        with pytest.raises(ValueError, match="MPEMBA_THREADS"):
            thread_count()
    monkeypatch.delenv("MPEMBA_THREADS")
    assert thread_count() == 1
