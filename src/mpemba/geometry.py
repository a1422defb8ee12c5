"""Quantum information geometry on density matrices.

Petz monotone metrics (SLD/Bures, harmonic-mean, Wigner-Yanase), Uhlmann
fidelity, quantum affinity and geodesic distances as batched kernels over
stacks of density matrices, with Bloch-vector front ends for the qubit.

All operations are pure functions on numpy arrays (or the thin
:class:`DensityMatrix` wrapper) and are safe to call from multiple threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
PAIR_WEIGHT_CUTOFF = 1e-12   # drop eigenpairs with p_i + p_j below this
HM_MIN_EIGENVALUE = 1e-9     # harmonic-mean weight diverges at pure states


class InvalidStateError(ValueError):
    """Input matrix violates the density-matrix invariants."""


class MetricDomainError(ValueError):
    """State outside the domain of the requested metric (e.g. HM at a pure state)."""


class UnsupportedMetricError(ValueError):
    """Requested metric has no closed-form geodesic."""


class MetricKind(enum.Enum):
    """Matrix-monotone function selecting a Petz metric."""

    SLD = "sld"   # f(x) = (x+1)/2, Bures
    HM = "hm"     # f(x) = 2x/(x+1), harmonic mean
    WY = "wy"     # f(x) = (1+sqrt(x))^2/4, Wigner-Yanase

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if self is MetricKind.SLD:
            return (x + 1.0) / 2.0
        if self is MetricKind.HM:
            return 2.0 * x / (x + 1.0)
        return (1.0 + np.sqrt(x)) ** 2 / 4.0


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, PSD up to roundoff.

    Eigenvalues below zero (but above ``EIGENVALUE_FLOOR``) are tolerated;
    construction fails loudly for anything worse.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {mat.shape}")
        herm_err = np.max(np.abs(mat - mat.conj().T))
        if herm_err > HERMITICITY_TOL:
            raise InvalidStateError(f"not Hermitian: max |rho_ij - conj(rho_ji)| = {herm_err:.3e}")
        tr_err = abs(mat.trace() - 1.0)
        if tr_err > TRACE_TOL:
            raise InvalidStateError(f"trace deviates from 1 by {tr_err:.3e}")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {evals[0]:.3e}")
        mat = (mat + mat.conj().T) / 2.0
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "dim", mat.shape[0])

    @classmethod
    def from_bloch(cls, r) -> "DensityMatrix":
        return cls(bloch_to_density(r))


@dataclass(frozen=True)
class TangentOperator:
    """Hermitian traceless matrix: a tangent direction on the state manifold."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"expected a square matrix, got shape {mat.shape}")
        herm_err = np.max(np.abs(mat - mat.conj().T))
        if herm_err > HERMITICITY_TOL:
            raise InvalidStateError(f"not Hermitian: deviation {herm_err:.3e}")
        tr_err = abs(mat.trace())
        if tr_err > HERMITICITY_TOL:
            raise InvalidStateError(f"trace deviates from 0 by {tr_err:.3e}")
        mat = (mat + mat.conj().T) / 2.0
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "dim", mat.shape[0])


def spectral_decompose(rho):
    """Eigendecompose a density matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and clipped to [0, 1]; eigenvectors are the matching orthonormal columns.
    """
    mat = _as_matrix(rho)
    herm_err = np.max(np.abs(mat - mat.conj().T))
    if herm_err > HERMITICITY_TOL:
        raise InvalidStateError(f"not Hermitian: deviation {herm_err:.3e}")
    evals, evecs = np.linalg.eigh(mat)
    if evals[0] < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {evals[0]:.3e}")
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, 1.0)
    evecs = evecs[:, order]
    return evals, evecs


def _metric_weights(p: np.ndarray, metric: MetricKind) -> np.ndarray:
    """Pairwise weights w(p_i, p_j) = 1 / (p_j * f(p_i / p_j)), vectorized.

    Pairs with p_i + p_j below the cutoff get weight 0 (excluded from the sum).
    """
    pi = p[:, None]
    pj = p[None, :]
    s = pi + pj
    with np.errstate(divide="ignore", invalid="ignore"):
        if metric is MetricKind.SLD:
            w = 2.0 / s
        elif metric is MetricKind.HM:
            w = s / (2.0 * pi * pj)
        else:
            w = 4.0 / (np.sqrt(pi) + np.sqrt(pj)) ** 2
    w = np.where(s > PAIR_WEIGHT_CUTOFF, w, 0.0)
    return np.nan_to_num(w, nan=0.0, posinf=0.0, neginf=0.0)


def petz_speed(rho, xdot, metric: MetricKind) -> float:
    """Squared speed of a state along a tangent direction under a Petz metric.

    Eigenbasis sum of |<i|xdot|j>|^2 * w_f(p_i, p_j) over eigenpairs with
    p_i + p_j above the numerical floor.
    """
    mat = _as_matrix(rho)
    dmat = xdot.entries if isinstance(xdot, TangentOperator) else np.asarray(xdot, dtype=complex)
    if mat.shape != dmat.shape:
        raise ValueError(f"dimension mismatch: {mat.shape} vs {dmat.shape}")
    p, v = spectral_decompose(mat)
    if metric is MetricKind.HM and p[-1] < HM_MIN_EIGENVALUE:
        raise MetricDomainError(
            f"harmonic-mean metric undefined near purity: min eigenvalue {p[-1]:.3e}"
        )
    m = v.conj().T @ dmat @ v
    w = _metric_weights(p, metric)
    return float(np.sum(np.abs(m) ** 2 * w))


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD Hermitian matrix via eigendecomposition."""
    evals, evecs = np.linalg.eigh(mat)
    if evals[0] < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {evals[0]:.3e} in matrix square root")
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def _state_stacks(rhos, sigmas):
    a = _as_matrix(rhos)
    b = _as_matrix(sigmas)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    np.broadcast_shapes(a.shape, b.shape)  # ValueError when the stacks do not broadcast
    return a, b


def _qubit_det(rhos: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 Hermitian matrices, clipped at 0 against
    roundoff; InvalidStateError when the smaller eigenvalue
    tr/2 - sqrt((tr/2)^2 - det) lies below EIGENVALUE_FLOOR."""
    det = (rhos[..., 0, 0] * rhos[..., 1, 1] - rhos[..., 0, 1] * rhos[..., 1, 0]).real
    half_tr = 0.5 * (rhos[..., 0, 0] + rhos[..., 1, 1]).real
    lowest = np.min(half_tr - np.sqrt(np.clip(half_tr ** 2 - det, 0.0, None)), initial=np.inf)
    if lowest < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {lowest:.3e}")
    return np.clip(det, 0.0, None)


def _sqrtm_batch(rhos: np.ndarray) -> np.ndarray:
    """Square roots of a stack (..., d, d) of PSD Hermitian matrices.

    d = 2 uses (rho + sqrt(det) I) / sqrt(tr + 2 sqrt(det)); larger d goes
    through one eigendecomposition of the whole stack.
    """
    if rhos.shape[-1] == 2:
        s = np.sqrt(_qubit_det(rhos))
        tr = np.trace(rhos, axis1=-2, axis2=-1).real
        denom = np.sqrt(np.clip(tr + 2.0 * s, 1e-300, None))
        return (rhos + s[..., None, None] * np.eye(2)) / denom[..., None, None]
    evals, evecs = np.linalg.eigh(rhos)
    lowest = evals[..., 0].min()
    if lowest < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {lowest:.3e} in matrix square root")
    roots = np.sqrt(np.clip(evals, 0.0, None))
    return (evecs * roots[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)


def fidelity_batch(rhos, sigmas) -> np.ndarray:
    """Uhlmann fidelities of stacks (..., d, d) that broadcast against each
    other, each in [0, 1].

    d = 2 uses the closed form sqrt(Tr(rho sigma) + 2 sqrt(det rho det sigma));
    larger d computes Tr sqrt(sqrt(rho) sigma sqrt(rho)) on the whole stack.
    """
    a, b = _state_stacks(rhos, sigmas)
    if a.shape[-1] == 2:
        tr = np.einsum("...ij,...ji->...", a, b).real
        return np.sqrt(np.clip(tr + 2.0 * np.sqrt(_qubit_det(a) * _qubit_det(b)), 0.0, 1.0))
    sa = _sqrtm_batch(a)
    inner = sa @ b @ sa
    evals = np.linalg.eigvalsh((inner + np.swapaxes(inner.conj(), -1, -2)) / 2.0)
    return np.clip(np.sum(np.sqrt(np.clip(evals, 0.0, None)), axis=-1), 0.0, 1.0)


def affinity_batch(rhos, sigmas) -> np.ndarray:
    """Quantum affinities Tr(sqrt(rho) sqrt(sigma)) of broadcasting stacks, in
    [0, 1]. Each operand is rooted at its own shape, so a single reference
    state is rooted once and the matmul broadcasts it."""
    a, b = _state_stacks(rhos, sigmas)
    val = np.trace(_sqrtm_batch(a) @ _sqrtm_batch(b), axis1=-2, axis2=-1).real
    return np.clip(val, 0.0, 1.0)


def geodesic_batch(rhos, sigmas, metric: MetricKind) -> np.ndarray:
    """Geodesic distances between broadcasting stacks: 2 arccos of the fidelity
    (SLD) or of the affinity (WY). The HM metric has no closed-form geodesic."""
    if metric is MetricKind.SLD:
        return 2.0 * np.arccos(fidelity_batch(rhos, sigmas))
    if metric is MetricKind.WY:
        return 2.0 * np.arccos(affinity_batch(rhos, sigmas))
    raise UnsupportedMetricError("harmonic-mean metric has no closed-form geodesic")


def uhlmann_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    return float(fidelity_batch(_as_matrix(rho)[None], _as_matrix(sigma)[None])[0])


def fidelity_general(rho, sigma) -> float:
    """General matrix-square-root fidelity path, any dimension (incl. 2).

    Kept separate from uhlmann_fidelity so the dim-2 fast path can be
    cross-validated against it.
    """
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    sa = _sqrtm_psd(a)
    inner = sa @ b @ sa
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    f = float(np.sum(np.sqrt(np.clip(evals, 0.0, None))))
    return min(max(f, 0.0), 1.0)


def affinity(rho, sigma) -> float:
    """Quantum affinity A = Tr(sqrt(rho) sqrt(sigma)), in [0, 1]."""
    return float(affinity_batch(_as_matrix(rho)[None], _as_matrix(sigma)[None])[0])


def geodesic_distance(rho, sigma, metric: MetricKind) -> float:
    """Geodesic distance between two states (see geodesic_batch)."""
    return float(geodesic_batch(_as_matrix(rho)[None], _as_matrix(sigma)[None], metric)[0])


def bloch_to_density(r) -> np.ndarray:
    """Bloch vectors (..., 3) -> density matrices (..., 2, 2), (1/2)(I + r . sigma)."""
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 or r.shape[-1] != 3:
        raise ValueError(f"expected 3-vectors, got shape {r.shape}")
    norm = float(np.max(np.linalg.norm(r, axis=-1), initial=0.0))
    if norm > 1.0 + 1e-12:
        raise MetricDomainError(f"|r| = {norm:.12f} exceeds 1")
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    rho = np.empty(r.shape[:-1] + (2, 2), dtype=complex)
    rho[..., 0, 0] = 1.0 + z
    rho[..., 0, 1] = x - 1j * y
    rho[..., 1, 0] = x + 1j * y
    rho[..., 1, 1] = 1.0 - z
    return 0.5 * rho


def density_to_bloch(rho) -> np.ndarray:
    """2x2 density matrix -> Bloch vector (x, y, z)."""
    mat = _as_matrix(rho)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    x = 2.0 * mat[1, 0].real
    y = 2.0 * mat[1, 0].imag
    z = (mat[0, 0] - mat[1, 1]).real
    return np.array([x, y, z])


# Bloch-vector front ends used by the Markov engine.

def bloch_fidelity(r1, r2) -> np.ndarray:
    """Uhlmann fidelity between qubit states given as Bloch vectors (..., 3),
    broadcast over leading axes (fidelity_batch on the density matrices)."""
    return fidelity_batch(bloch_to_density(r1), bloch_to_density(r2))


def bloch_affinity(r1, r2) -> np.ndarray:
    """Quantum affinity between qubit Bloch states, broadcast over leading axes
    (affinity_batch on the density matrices)."""
    return affinity_batch(bloch_to_density(r1), bloch_to_density(r2))


def bloch_speed(r, rdot, metric: MetricKind) -> np.ndarray:
    """Vectorized qubit Petz speed from the Bloch vector and its velocity;
    broadcasts over leading axes.

    With a = radial velocity component and b = |transverse component|, the
    eigenbasis sum reduces to a^2/(1-|r|^2) + b^2 (SLD), (a^2 + b^2)/(1-|r|^2)
    (HM) and a^2/(1-|r|^2) + 2 b^2/(1+sqrt(1-|r|^2)) (WY). petz_speed is the
    independent oracle.
    """
    r = np.asarray(r, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    rr = np.sum(r * r, axis=-1)
    v2 = np.sum(rdot * rdot, axis=-1)
    rv = np.sum(r * rdot, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a2 = np.where(rr > 0.0, rv ** 2 / np.where(rr > 0.0, rr, 1.0), 0.0)
    b2 = np.clip(v2 - a2, 0.0, None)
    one_minus = np.clip(1.0 - rr, 1e-300, None)
    if metric is MetricKind.SLD:
        return a2 / one_minus + b2
    if metric is MetricKind.HM:
        return (a2 + b2) / one_minus
    return a2 / one_minus + 2.0 * b2 / (1.0 + np.sqrt(np.clip(1.0 - rr, 0.0, None)))
