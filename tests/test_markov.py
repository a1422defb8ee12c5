import numpy as np
import pytest

from mpemba import cli, markov
from mpemba.geometry import MetricDomainError, MetricKind, bloch_to_density, density_to_bloch
from mpemba.markov import (
    ANCHORS,
    CALIBRATION_THRESHOLD,
    CalibrationError,
    ConfigurationError,
    FittedInterpretation,
    GridInterpretation,
    InstabilityError,
    MarkovParams,
    UnphysicalInterpretationError,
    bloch_rhs,
    calibrate,
    default_params,
    distance_map,
    grid_interpretations,
    integrate,
    matrix_rhs,
    propagate,
    run_trajectory_record,
    steady_state,
    trajectory_length,
)

GENTLE = GridInterpretation("percent", 1, -1, "half_inverse")  # rates (1, 0), slow


def gentle_params(gamma_prime=0.94):
    return MarkovParams(100.0, gamma_prime, GENTLE)


class TestInterpretations:
    def test_grid_enumeration(self):
        grid = grid_interpretations()
        assert len(grid) == 32
        assert len({g.describe() for g in grid}) == 32

    def test_rate_rules(self):
        assert GridInterpretation("literal", 1, 1, "inverse").rates(100.0) == (100.0, -99.0)
        assert GridInterpretation("magnitude", 1, 1, "inverse").rates(100.0) == (100.0, 99.0)
        assert GridInterpretation("percent", 1, 1, "inverse").rates(100.0) == (1.0, 0.0)
        assert GridInterpretation("unit_dephasing", 1, 1, "inverse").rates(100.0) == (100.0, 1.0)

    def test_negative_rate_is_configuration_error(self):
        interp = GridInterpretation("literal", 1, 1, "inverse")
        with pytest.raises(ConfigurationError):
            interp.generator(100.0, 0.94)

    def test_fitted_warns_off_calibration_alpha(self):
        with pytest.warns(UserWarning):
            FittedInterpretation().generator(50.0, 0.94)

    def test_fitted_interpolates_between_anchors(self):
        fit = FittedInterpretation()
        lo = np.array(fit.coefficients(0.52))
        hi = np.array(fit.coefficients(0.94))
        mid = np.array(fit.coefficients(0.73))
        w = (0.73 - 0.52) / (0.94 - 0.52)
        assert np.allclose(mid, (1 - w) * lo + w * hi)


class TestRhs:
    def test_steady_state_is_fixed_point(self):
        for gp in (0.52, 0.94):
            params = default_params(gp)
            rs = steady_state(params)
            assert np.max(np.abs(bloch_rhs(rs, params))) < 1e-12

    def test_x_decoupling_rate(self):
        params = gentle_params()
        decay, deph = GENTLE.rates(100.0)
        gt = 0.5 * (decay + deph)
        r = np.array([0.3, 0.1, -0.2])
        rhs = bloch_rhs(r, params)
        assert rhs[0] == pytest.approx(-gt * 0.3)
        # x column influences nothing else
        rhs2 = bloch_rhs([0.0, 0.1, -0.2], params)
        assert np.allclose(rhs[1:], rhs2[1:])

    def test_matrix_rhs_trace_free(self):
        rng = np.random.default_rng(0)
        params = gentle_params()
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            out = matrix_rhs(bloch_to_density(r), params)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_matrix_rhs_matches_bloch_rhs(self):
        """Dual-route check: operator-form Lindbladian vs Bloch-form field."""
        rng = np.random.default_rng(1)
        interps = [
            GENTLE,
            GridInterpretation("percent", -1, 1, "inverse"),
            GridInterpretation("unit_dephasing", 1, -1, "half_inverse"),
            GridInterpretation("magnitude", 1, -1, "half_inverse"),
            FittedInterpretation(),
        ]
        for interp in interps:
            params = MarkovParams(100.0, 0.77, interp)
            for _ in range(10):
                r = rng.normal(size=3)
                r *= rng.uniform(0, 0.99) / np.linalg.norm(r)
                lhs = density_to_bloch(matrix_rhs(bloch_to_density(r), params))
                rhs = bloch_rhs(r, params)
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_matrix_rhs_zero_at_steady_state(self):
        params = default_params(0.94)
        rs = steady_state(params)
        out = matrix_rhs(bloch_to_density(rs), params)
        assert np.max(np.abs(out)) < 1e-9


class TestSteadyState:
    def test_literal_rejected(self):
        interp = GridInterpretation("literal", 1, 1, "inverse")
        params = MarkovParams(100.0, 0.94, interp)
        with pytest.raises(UnphysicalInterpretationError):
            steady_state(params)

    def test_pure_decay_no_rotation_limit(self):
        # tiny gamma_prime drives omega up; large gamma_prime makes rotation weak
        params = MarkovParams(100.0, 50.0, GENTLE)  # omega = 1/(2*50) = 0.01
        rs = steady_state(params)
        assert rs[0] == 0.0
        assert rs[2] == pytest.approx(-1.0, abs=1e-3)

    def test_fitted_steady_is_pole(self):
        for gp in (0.52, 0.94):
            rs = steady_state(default_params(gp))
            assert np.allclose(rs, [0.0, 0.0, -1.0], atol=1e-12)

    def test_matches_long_integration(self):
        params = gentle_params()
        rs = steady_state(params)
        end = integrate([0.0, 0.3, 0.4], params, n_steps=2000, tau_max=60.0)[-1]
        assert np.max(np.abs(end - rs)) < 1e-6


class TestIntegrate:
    def test_steady_start_stays(self):
        params = default_params(0.94)
        rs = steady_state(params)
        traj = integrate(rs, params, n_steps=100, tau_max=3.0)
        assert np.max(np.abs(traj - rs)) < 1e-12

    def test_x_closed_form(self):
        params = default_params(0.94)
        gt = FittedInterpretation().coefficients(0.94)[0]
        traj = integrate([0.5, 0.2, 0.1], params)
        taus = np.linspace(0, 30.0, 1001)
        assert np.max(np.abs(traj[:, 0] - 0.5 * np.exp(-gt * taus))) < 1e-6

    def test_fourth_order_convergence(self):
        params = default_params(0.52)
        end1 = integrate([0.0, 0.5, 0.2], params, n_steps=1000)[-1]
        end2 = integrate([0.0, 0.5, 0.2], params, n_steps=2000)[-1]
        assert np.max(np.abs(end1 - end2)) < 1e-8

    def test_endpoint_near_steady(self):
        params = default_params(0.94)
        end = integrate([0.0, 0.3, 0.9], params)[-1]
        assert np.max(np.abs(end - steady_state(params))) < 1e-4

    def test_samples_inside_ball(self):
        params = default_params(0.52)
        traj = integrate([0.0, -0.95, -0.25], params)
        assert np.all(np.linalg.norm(traj, axis=1) <= 1.0 + 1e-6)

    def test_uncalibrated_region_flagged(self):
        # the calibrated generator is unconstrained by published data for
        # negative-y starts at the larger drive ratio and leaves the ball there
        params = default_params(0.94)
        with pytest.raises(InstabilityError):
            integrate([0.0, -0.9, -0.3], params)

    def test_instability_detected(self):
        # anti-damped toy generator escapes the ball and must be flagged
        class Runaway:
            kind = "fitted"

            def describe(self):
                return "runaway"

            def generator(self, alpha, gamma_prime):
                return np.eye(3) * 0.5, np.zeros(3)

        params = MarkovParams(100.0, 0.94, Runaway())
        # |r| = 0.5 e^(t/2) first exceeds 1 + BALL_TOL between the samples at 1.3 and 1.4
        with pytest.raises(InstabilityError, match=r"tau=1\.4000"):
            integrate([0.0, 0.5, 0.0], params, n_steps=100, tau_max=10.0)

    def test_stiff_candidate_integrates_with_substeps(self):
        stiff = GridInterpretation("magnitude", 1, -1, "half_inverse")
        params = MarkovParams(100.0, 0.94, stiff)
        traj = integrate([0.0, 0.5, 0.0], params)  # auto substeps keep it stable
        assert np.all(np.linalg.norm(traj, axis=1) <= 1.0 + 1e-6)


class TestPropagate:
    R0S = np.array([[0.0, 0.5, 0.0], [0.0, -0.95, -0.25], [0.3, 0.0, 0.9], [0.0, 0.0, 0.0]])

    @staticmethod
    def exact(a, c, r0s, n_steps, tau_max):
        linalg = pytest.importorskip("scipy.linalg")
        g = np.zeros((4, 4))
        g[:3, :3] = a
        g[:3, 3] = c
        times = np.linspace(0.0, tau_max, n_steps + 1)
        flow = linalg.expm(times[:, None, None] * g)  # (n+1, 4, 4)
        return np.einsum("kij,mj->mki", flow[:, :3, :3], r0s) + flow[:, :3, 3]

    @pytest.mark.parametrize("gamma_prime", [0.52, 0.94])
    def test_fitted_generator_matches_exact_flow(self, gamma_prime):
        a, c = default_params(gamma_prime).generator()
        got = propagate(a, c, self.R0S, 1000, 30.0)
        assert np.max(np.abs(got - self.exact(a, c, self.R0S, 1000, 30.0))) < 1e-8

    def test_stiff_candidate_matches_exact_flow(self):
        stiff = GridInterpretation("magnitude", 1, -1, "half_inverse")
        a, c = MarkovParams(100.0, 0.94, stiff).generator()
        got = propagate(a, c, self.R0S, 1000, 30.0)
        assert np.max(np.abs(got - self.exact(a, c, self.R0S, 1000, 30.0))) < 1e-6

    @pytest.mark.parametrize("n_steps", [1, 7, 1000])
    def test_shape_and_initial_samples(self, n_steps):
        a, c = default_params(0.94).generator()
        out = propagate(a, c, self.R0S, n_steps, 3.0)
        assert out.shape == (len(self.R0S), n_steps + 1, 3)
        assert np.array_equal(out[:, 0], self.R0S)
        assert np.max(np.abs(out - self.exact(a, c, self.R0S, n_steps, 3.0))) < 1e-6


class TestTrajectoryLength:
    def test_constant_trajectory_zero(self):
        params = default_params(0.94)
        rs = steady_state(params)
        states = np.tile(rs, (50, 1))
        times = np.linspace(0, 5, 50)
        ell = trajectory_length(states, times, MetricKind.SLD, params)
        assert np.allclose(ell, 0.0, atol=1e-12)

    def test_pure_z_diameter_matches_arcsin(self):
        # straight z-axis sweep: compare quadrature against the closed form
        class ZSlide:
            kind = "fitted"

            def describe(self):
                return "z-slide"

            def generator(self, alpha, gamma_prime):
                a = np.zeros((3, 3))
                c = np.array([0.0, 0.0, -1.0])  # constant-velocity slide
                return a, c

        params = MarkovParams(100.0, 1.0, ZSlide())
        times = np.linspace(0.0, 1.98, 4001)
        states = np.zeros((4001, 3))
        states[:, 2] = 0.99 - times
        ell = trajectory_length(states, times, MetricKind.SLD, params)
        exact = 0.5 * (np.arcsin(0.99) - np.arcsin(0.99 - times))
        assert np.max(np.abs(ell - exact)) < 1e-4

    def test_nondecreasing(self):
        params = default_params(0.94)
        rec = run_trajectory_record([0.0, 0.5, 0.0], params)
        assert np.all(np.diff(rec.ell) >= 0.0)

    def test_metric_ordering_pointwise(self):
        params = default_params(0.94)
        states = integrate([0.0, 0.5, 0.0], params)
        times = np.linspace(0, 30, 1001)
        e_sld = trajectory_length(states, times, MetricKind.SLD, params)
        e_wy = trajectory_length(states, times, MetricKind.WY, params)
        e_hm = trajectory_length(states, times, MetricKind.HM, params)
        assert np.all(e_sld <= e_wy + 1e-9)
        assert np.all(e_wy <= e_hm + 1e-9)

    def test_hm_rejects_boundary_states(self):
        params = default_params(0.94)
        states = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]])
        with pytest.raises(MetricDomainError):
            trajectory_length(states, [0.0, 1.0], MetricKind.HM, params)

    def test_quadrature_refinement(self):
        params = default_params(0.94)
        e1 = run_trajectory_record([0.0, 0.5, 0.0], params, n_steps=1000).total_length
        e2 = run_trajectory_record([0.0, 0.5, 0.0], params, n_steps=2000).total_length
        # the calibrated generator is smooth on the output grid
        assert abs(e1 - e2) < 1e-4


class TestRecord:
    def test_record_invariants(self):
        params = default_params(0.52)
        rec = run_trajectory_record([0.0, -0.95, -0.25], params, label="A")
        assert np.all(np.diff(rec.ell) >= 0)
        assert rec.residue[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(rec.geo >= 0)
        assert rec.geo[-1] <= 0.01
        assert rec.total_length == pytest.approx(rec.ell[-1])

    def test_x_component_does_not_affect_yz(self):
        params = default_params(0.94)
        t1 = integrate([0.4, 0.3, 0.2], params)
        t2 = integrate([0.0, 0.3, 0.2], params)
        assert np.max(np.abs(t1[:, 1:] - t2[:, 1:])) < 1e-10

    def test_geodesic_lower_bound(self):
        params = default_params(0.94)
        rng = np.random.default_rng(2)
        for _ in range(10):
            r = rng.normal(size=2)
            r *= rng.uniform(0, 0.95) / np.linalg.norm(r)
            rec = run_trajectory_record([0.0, *r], params)
            assert rec.total_length >= rec.geo[0] - 1e-6


class TestCalibration:
    def test_winner_is_fitted_and_tight(self):
        res = calibrate()
        assert isinstance(res.winner, FittedInterpretation)
        assert res.max_residual <= 0.01

    def test_literal_candidates_unphysical(self):
        res = calibrate()
        lits = [s for s in res.scores
                if getattr(s.interpretation, "rate_rule", None) == "literal"]
        assert len(lits) == 8
        assert all(not s.physical for s in lits)
        assert any("outside the Bloch ball" in s.reason for s in lits)

    def test_grid_alone_fails(self, monkeypatch, tmp_path):
        grid = [s for s in calibrate().scores if s.interpretation.kind == "grid"]
        assert len(grid) == 32
        assert all(s.max_residual > CALIBRATION_THRESHOLD for s in grid)
        # below the winner's 0.0060 nothing qualifies: CalibrationError, CLI exit 3
        monkeypatch.setattr(markov, "CALIBRATION_THRESHOLD", 0.005)
        with pytest.raises(CalibrationError):
            calibrate()
        assert cli.main(["-o", str(tmp_path), "calibrate"]) == cli.EXIT_CALIBRATION

    def test_report_shape(self):
        res = calibrate()
        assert len(res.scores) == 33
        for s in res.scores:
            if s.physical:
                assert len(s.residuals) == 16

    def test_anchor_reproduction_through_rk4(self):
        res = calibrate()
        for case in ANCHORS:
            params = MarkovParams(100.0, case.gamma_prime, res.winner)
            ra = run_trajectory_record([0.0, *case.point_a], params)
            rb = run_trajectory_record([0.0, *case.point_b], params)
            assert ra.total_length == pytest.approx(case.length_a, abs=0.01)
            assert rb.total_length == pytest.approx(case.length_b, abs=0.01)
            assert ra.geo[0] == pytest.approx(case.dist_a, abs=0.01)
            assert rb.geo[0] == pytest.approx(case.dist_b, abs=0.01)


class TestDistanceMap:
    def test_basic_properties(self):
        params = default_params(0.94)
        dm = distance_map(params, grid_spacing=0.1)
        assert np.all(np.sum(dm.points ** 2, axis=1) < 1.0)
        assert np.all(dm.excess[dm.valid] >= -1e-6)
        assert np.all(np.isnan(dm.total_length[~dm.valid]))
        # near-steady-state cell has nearly zero length and distance
        idx = np.argmin(np.sum((dm.points - [0.0, -1.0 + 0.1]) ** 2, axis=1))
        assert dm.total_length[idx] < 0.3

    def test_all_cells_valid_at_low_gamma_prime(self):
        dm = distance_map(default_params(0.52), grid_spacing=0.1)
        assert np.all(dm.valid)

    def test_axis_points_travel_geodesically(self):
        params = default_params(0.52)
        dm = distance_map(params, grid_spacing=0.1)
        on_axis = np.abs(dm.points[:, 0]) < 1e-12
        assert on_axis.sum() > 5
        assert np.max(dm.excess[on_axis]) < 0.01

    def test_speed_samples_shape(self):
        params = default_params(0.94)
        dm = distance_map(params, grid_spacing=0.2)
        assert dm.speed_samples.shape == (len(dm.speed_times), dm.points.shape[0])
        good = dm.speed_samples[~np.isnan(dm.speed_samples)]
        assert np.all(good >= 0.0)

    @pytest.mark.parametrize("spacing", [0.1, 0.05])  # at 0.05 two cells leave and re-enter
    def test_escaped_cells_keep_speeds_until_the_escape(self, spacing):
        dm = distance_map(default_params(0.94), grid_spacing=spacing)
        assert np.any(~dm.valid)
        assert np.all(np.isfinite(dm.speed_samples[:, dm.valid]))
        finite = np.isfinite(dm.speed_samples[:, ~dm.valid])  # (samples, invalid cells)
        # a finite prefix, then only NaN: once escaped, a cell never counts again
        assert np.all(finite == np.logical_and.accumulate(finite, axis=0))
        assert np.all(finite[0])
        assert np.any(finite[1:])
