import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpemba.geometry import (
    DensityMatrix,
    InvalidStateError,
    MetricDomainError,
    MetricKind,
    TangentOperator,
    UnsupportedMetricError,
    _sqrtm_psd,
    affinity,
    affinity_batch,
    bloch_affinity,
    bloch_fidelity,
    bloch_speed,
    bloch_to_density,
    density_to_bloch,
    fidelity_batch,
    fidelity_general,
    geodesic_batch,
    geodesic_distance,
    petz_speed,
    spectral_decompose,
    uhlmann_fidelity,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_tangent(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2
    return h - np.eye(dim) * h.trace() / dim


class TestSpectralDecompose:
    def test_maximally_mixed(self):
        evals, _ = spectral_decompose(np.eye(2) / 2)
        assert np.allclose(evals, [0.5, 0.5])

    def test_diagonal(self):
        evals, evecs = spectral_decompose(np.diag([0.75, 0.25]).astype(complex))
        assert np.allclose(evals, [0.75, 0.25])
        assert np.allclose(np.abs(evecs), np.eye(2))

    def test_pure_bloch_state(self):
        rho = bloch_to_density([0.6, 0.0, 0.8])
        evals, _ = spectral_decompose(rho)
        assert np.allclose(evals, [1.0, 0.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 4):
            rho = random_density(rng, dim)
            evals, evecs = spectral_decompose(rho)
            recon = (evecs * evals) @ evecs.conj().T
            assert np.max(np.abs(recon - rho)) < 1e-9
            assert np.all(np.diff(evals) <= 1e-15)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidStateError):
            spectral_decompose(np.array([[0.5, 0.3], [0.0, 0.5]]))


class TestPetzSpeed:
    def test_center_sld(self):
        assert petz_speed(np.eye(2) / 2, SZ / 2, MetricKind.SLD) == pytest.approx(1.0)

    def test_polarized_sld(self):
        rho = bloch_to_density([0, 0, 0.5])
        # eigenbasis sum with p = (0.75, 0.25): 0.25/0.75 + 0.25/0.25
        assert petz_speed(rho, SZ / 2, MetricKind.SLD) == pytest.approx(4.0 / 3.0)

    def test_center_hm(self):
        assert petz_speed(np.eye(2) / 2, SX / 2, MetricKind.HM) == pytest.approx(1.0)

    def test_hm_rejects_near_pure(self):
        rho = bloch_to_density([0, 0, 1.0])
        with pytest.raises(MetricDomainError):
            petz_speed(rho, SZ / 2, MetricKind.HM)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = random_density(rng, 3)
            x = random_tangent(rng, 3)
            for metric in (MetricKind.SLD, MetricKind.WY):
                assert petz_speed(rho, x, metric) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            petz_speed(np.eye(2) / 2, random_tangent(np.random.default_rng(0), 3),
                       MetricKind.SLD)


class TestQubitClosedForm:
    def test_center(self):
        assert bloch_speed([0, 0, 0], [0, 0, 1], MetricKind.SLD) == pytest.approx(1.0)

    def test_radial_sld(self):
        val = bloch_speed([0, 0, 0.5], [0, 0, 1], MetricKind.SLD)
        assert val == pytest.approx(4.0 / 3.0)

    def test_transverse_hm(self):
        val = bloch_speed([0, 0, 0.5], [1, 0, 0], MetricKind.HM)
        assert val == pytest.approx(4.0 / 3.0)

    def test_oracle_equivalence_bulk(self):
        # closed form vs eigenbasis sum on many random interior states
        rng = np.random.default_rng(3)
        for _ in range(500):
            r = rng.normal(size=3)
            r *= rng.uniform(0.0, 0.97) / np.linalg.norm(r)
            rdot = rng.normal(size=3)
            rho = bloch_to_density(r)
            xdot = 0.5 * (rdot[0] * SX + rdot[1] * SY + rdot[2] * SZ)
            for metric in MetricKind:
                assert petz_speed(rho, xdot, metric) == pytest.approx(
                    bloch_speed(r, rdot, metric), rel=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(4)
        rs = rng.normal(size=(20, 3))
        rs *= (rng.uniform(0.1, 0.9, size=20) / np.linalg.norm(rs, axis=1))[:, None]
        vs = rng.normal(size=(20, 3))
        for metric in MetricKind:
            batch = bloch_speed(rs, vs, metric)
            assert np.array_equal(batch, [bloch_speed(r, v, metric) for r, v in zip(rs, vs)])
            nested = bloch_speed(rs.reshape(4, 5, 3), vs.reshape(4, 5, 3), metric)
            assert np.array_equal(nested.ravel(), batch)


class TestFidelityAffinity:
    def test_identical(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
        assert affinity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        down = np.diag([0.0, 1.0]).astype(complex)
        assert uhlmann_fidelity(up, down) == pytest.approx(0.0, abs=1e-9)
        assert affinity(up, down) == pytest.approx(0.0, abs=1e-9)

    def test_pure_vs_mixed(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        mixed = np.eye(2) / 2
        assert uhlmann_fidelity(up, mixed) == pytest.approx(1 / np.sqrt(2))
        assert affinity(up, mixed) == pytest.approx(1 / np.sqrt(2))

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for dim in (2, 3):
            a, b = random_density(rng, dim), random_density(rng, dim)
            assert uhlmann_fidelity(a, b) == pytest.approx(uhlmann_fidelity(b, a), abs=1e-9)
            assert affinity(a, b) == pytest.approx(affinity(b, a), abs=1e-9)

    def test_fast_path_matches_general(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(2000):
            a, b = random_density(rng, 2), random_density(rng, 2)
            worst = max(worst, abs(uhlmann_fidelity(a, b) - fidelity_general(a, b)))
        assert worst < 1e-9

    def test_affinity_below_fidelity(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a, b = random_density(rng, 2), random_density(rng, 2)
            assert affinity(a, b) <= uhlmann_fidelity(a, b) + 1e-9

    def test_bloch_fidelity_matches_matrix(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            r1 = rng.normal(size=3); r1 *= rng.uniform(0, 1) / np.linalg.norm(r1)
            r2 = rng.normal(size=3); r2 *= rng.uniform(0, 1) / np.linalg.norm(r2)
            f_ref = uhlmann_fidelity(bloch_to_density(r1), bloch_to_density(r2))
            assert bloch_fidelity(r1, r2) == pytest.approx(f_ref, abs=1e-12)
            a_ref = affinity(bloch_to_density(r1), bloch_to_density(r2))
            assert bloch_affinity(r1, r2) == pytest.approx(a_ref, abs=1e-9)


class TestBatchedKernels:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_match_oracles(self, dim):
        rng = np.random.default_rng(20 + dim)
        a = np.array([random_density(rng, dim) for _ in range(40)])
        b = np.array([random_density(rng, dim) for _ in range(40)])
        ref_fid = np.array([fidelity_general(x, y) for x, y in zip(a, b)])
        ref_aff = np.array([np.trace(_sqrtm_psd(x) @ _sqrtm_psd(y)).real
                            for x, y in zip(a, b)])
        assert np.max(np.abs(fidelity_batch(a, b) - ref_fid)) < 1e-9
        assert np.max(np.abs(affinity_batch(a, b) - ref_aff)) < 1e-9
        for metric, ref in ((MetricKind.SLD, ref_fid), (MetricKind.WY, ref_aff)):
            geo = geodesic_batch(a, b, metric)
            assert np.max(np.abs(geo - 2.0 * np.arccos(ref))) < 1e-9

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rows_bit_identical_to_stack_of_one(self, dim):
        rng = np.random.default_rng(30 + dim)
        a = np.array([random_density(rng, dim) for _ in range(24)])
        b = np.array([random_density(rng, dim) for _ in range(24)])
        for metric in (MetricKind.SLD, MetricKind.WY):
            geo = geodesic_batch(a, b, metric)
            nested = geodesic_batch(a.reshape(4, 6, dim, dim), b.reshape(4, 6, dim, dim), metric)
            assert np.array_equal(nested.ravel(), geo)
            for k in range(len(a)):
                assert geodesic_batch(a[k:k + 1], b[k:k + 1], metric)[0] == geo[k]
                assert geodesic_distance(a[k], b[k], metric) == geo[k]

    def test_validation(self):
        rng = np.random.default_rng(40)
        good = np.array([random_density(rng, 4) for _ in range(3)])
        with pytest.raises(ValueError):
            fidelity_batch(good, good[:2])
        bad = good.copy()
        bad[1] = np.diag([0.6, 0.5, 0.1, -0.2])
        with pytest.raises(InvalidStateError):
            fidelity_batch(bad, good)
        with pytest.raises(InvalidStateError):
            affinity_batch(good, bad)
        with pytest.raises(UnsupportedMetricError):
            geodesic_batch(good, good, MetricKind.HM)


class TestGeodesicDistance:
    def test_identical_states(self):
        rho = bloch_to_density([0.1, 0.2, 0.3])
        assert geodesic_distance(rho, rho, MetricKind.SLD) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        down = np.diag([0.0, 1.0]).astype(complex)
        assert geodesic_distance(up, down, MetricKind.SLD) == pytest.approx(np.pi)

    def test_pure_vs_mixed(self):
        up = np.diag([1.0, 0.0]).astype(complex)
        assert geodesic_distance(up, np.eye(2) / 2, MetricKind.SLD) == pytest.approx(np.pi / 2)

    def test_hm_unsupported(self):
        with pytest.raises(UnsupportedMetricError):
            geodesic_distance(np.eye(2) / 2, np.eye(2) / 2, MetricKind.HM)

    def test_contractivity_under_depolarizing(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = random_density(rng, 2), random_density(rng, 2)
            base = geodesic_distance(a, b, MetricKind.SLD)
            for p in (0.1, 0.3, 0.5):
                am = (1 - p) * a + p * np.eye(2) / 2
                bm = (1 - p) * b + p * np.eye(2) / 2
                assert geodesic_distance(am, bm, MetricKind.SLD) <= base + 1e-9


class TestBlochRoundTrip:
    def test_center(self):
        assert np.allclose(bloch_to_density([0, 0, 0]), np.eye(2) / 2)

    def test_pole(self):
        assert np.allclose(bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_x_axis(self):
        assert np.allclose(bloch_to_density([0.5, 0, 0]),
                           np.array([[0.5, 0.25], [0.25, 0.5]]))

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            assert np.max(np.abs(density_to_bloch(bloch_to_density(r)) - r)) < 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(MetricDomainError):
            bloch_to_density([1.0, 0.5, 0.0])
        with pytest.raises(MetricDomainError):
            bloch_to_density([[0.0, 0.0, 0.5], [0.0, 0.0, 1.0 + 1e-11]])
        bloch_to_density([0.0, 0.0, 1.0 + 1e-13])  # roundoff above the surface passes
        with pytest.raises(ValueError):
            bloch_to_density([[0.1, 0.2]])

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(13)
        rs = rng.normal(size=(2, 5, 3))
        rs *= (rng.uniform(0, 1, size=(2, 5)) / np.linalg.norm(rs, axis=-1))[..., None]
        stack = bloch_to_density(rs)
        assert stack.shape == (2, 5, 2, 2)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(stack[idx], bloch_to_density(rs[idx]))

    def test_front_ends_broadcast_and_check_radius(self):
        rng = np.random.default_rng(14)
        rs = rng.normal(size=(6, 3))
        rs *= (rng.uniform(0, 1, size=6) / np.linalg.norm(rs, axis=1))[:, None]
        target = np.array([0.0, 0.0, -1.0])
        for front, kernel in ((bloch_fidelity, fidelity_batch), (bloch_affinity, affinity_batch)):
            vals = front(rs, target)
            assert vals.shape == (6,)
            expected = kernel(bloch_to_density(rs), np.broadcast_to(bloch_to_density(target),
                                                                     (6, 2, 2)))
            assert np.array_equal(vals, expected)
            with pytest.raises(MetricDomainError):
                front(rs, [0.0, 0.8, 0.8])


class TestDomainTypes:
    def test_density_matrix_validation(self):
        DensityMatrix(np.eye(2) / 2)
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([0.7, 0.7]))
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_tangent_operator_validation(self):
        TangentOperator(SZ / 2)
        with pytest.raises(InvalidStateError):
            TangentOperator(np.diag([1.0, 0.0]))

    def test_metric_f_values(self):
        assert MetricKind.SLD.f(1.0) == pytest.approx(1.0)
        assert MetricKind.HM.f(1.0) == pytest.approx(1.0)
        assert MetricKind.WY.f(1.0) == pytest.approx(1.0)
        # ordering of the monotone functions: HM <= WY <= SLD pointwise
        xs = np.linspace(0.01, 5.0, 50)
        assert np.all(MetricKind.HM.f(xs) <= MetricKind.WY.f(xs) + 1e-12)
        assert np.all(MetricKind.WY.f(xs) <= MetricKind.SLD.f(xs) + 1e-12)


bloch_interior = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda r: 1e-6 < r[0] ** 2 + r[1] ** 2 + r[2] ** 2 < 0.94 ** 2)

velocity = st.tuples(
    st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)
).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 > 1e-8)


@given(r=bloch_interior, v=velocity)
@settings(max_examples=200, deadline=None)
def test_metric_sandwich(r, v):
    """SLD <= WY <= HM speeds for interior states."""
    rho = bloch_to_density(np.array(r))
    xdot = 0.5 * (v[0] * SX + v[1] * SY + v[2] * SZ)
    s_sld = petz_speed(rho, xdot, MetricKind.SLD)
    s_wy = petz_speed(rho, xdot, MetricKind.WY)
    s_hm = petz_speed(rho, xdot, MetricKind.HM)
    assert s_sld <= s_wy + 1e-12 + 1e-9 * s_wy
    assert s_wy <= s_hm + 1e-12 + 1e-9 * s_hm


@given(p=st.floats(0.05, 0.95), a=st.floats(-1, 1), b=st.floats(-1, 1))
@settings(max_examples=100, deadline=None)
def test_classical_agreement(p, a, b):
    """Commuting state and tangent: all three metrics coincide."""
    rho = np.diag([p, 1 - p]).astype(complex)
    xdot = np.diag([a, -a]).astype(complex) * (0.5 + 0.1 * b)
    vals = [petz_speed(rho, xdot, m) for m in (MetricKind.SLD, MetricKind.WY, MetricKind.HM)]
    assert vals[0] == pytest.approx(vals[1], abs=1e-10, rel=1e-10)
    assert vals[1] == pytest.approx(vals[2], abs=1e-10, rel=1e-10)


@given(r=bloch_interior)
@settings(max_examples=100, deadline=None)
def test_fidelity_bounds(r):
    rho = bloch_to_density(np.array(r))
    mixed = np.eye(2) / 2
    f = uhlmann_fidelity(rho, mixed)
    assert 0.0 <= f <= 1.0
    assert affinity(rho, mixed) <= f + 1e-9
