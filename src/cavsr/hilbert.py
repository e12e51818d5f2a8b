"""Truncated Fock-space states of a single cavity mode and the exact loss channel.

Conventions used throughout the package:
  - A mixed field state is the matrix Q with Q[n, m] = <n|rho|m>, n, m = 0..n_max.
  - A pure field state, as the trajectory solver carries it, is a plain 1-D
    complex array of Fock amplitudes c_n, n = 0..n_max.
  - gamma_c is the field amplitude decay rate in rad/s; photon number therefore
    decays at 2*gamma_c.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import check_magnitude, check_range, check_tail

__all__ = [
    "FieldState",
    "vacuum",
    "coherent",
    "coherent_amplitudes",
    "mean_photon",
    "photon_distribution",
    "fidelity_to_coherent",
    "apply_decay",
]

# FieldState.validate: largest asymmetry, trace error and negative eigenvalue accepted
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-9
_PSD_TOL = 1e-9


def _log_factorials(count: int) -> np.ndarray:
    """log(n!) for n = 0..count-1."""
    return np.array([math.lgamma(n + 1.0) for n in range(count)])


@dataclasses.dataclass(frozen=True)
class FieldState:
    """Density matrix of the cavity mode on the Fock levels 0..n_max.

    The array is owned by the state and must not be mutated; operations
    return new instances.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=complex)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
            raise ValueError(f"field state needs a square matrix, got shape {q.shape}")
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    @property
    def n_max(self) -> int:
        return self.q.shape[0] - 1

    def validate(self) -> None:
        """Check Hermiticity, unit trace, and positivity; raise ValueError if violated."""
        herm = np.max(np.abs(self.q - self.q.conj().T))
        if not herm <= _HERM_TOL:
            raise ValueError(f"not Hermitian: max asymmetry {herm:.3e}")
        tr = float(np.real(np.trace(self.q)))
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1")
        w_min = float(np.linalg.eigvalsh(self.q)[0])
        if not w_min >= -_PSD_TOL:
            raise ValueError(f"negative eigenvalue {w_min:.3e}")


def vacuum(n_max: int) -> FieldState:
    check_range("n_max", n_max, 1, integer=True)
    q = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    q[0, 0] = 1.0
    return FieldState(q)


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes of |alpha> on levels 0..n_max, without renormalization.

    Computed in the log domain so large |alpha| does not overflow n! factors.
    """
    a = check_magnitude("alpha", alpha)
    check_range("n_max", n_max, 0, integer=True)
    n = np.arange(n_max + 1)
    if a == 0.0:
        c = np.zeros(n_max + 1, dtype=complex)
        c[0] = 1.0
        return c
    log_mag = -0.5 * a * a + n * math.log(a) - 0.5 * _log_factorials(n_max + 1)
    return np.exp(log_mag + 1j * n * np.angle(complex(alpha)))


def _mass_above(c: np.ndarray) -> float:
    """Poisson mass above n_max: what |alpha> keeps past its amplitudes c on 0..n_max."""
    return 1.0 - float(np.vdot(c, c).real)


def coherent(alpha: complex, n_max: int) -> FieldState:
    """Coherent state truncated to n_max and renormalized to unit trace.

    Raises TruncationError when the Poisson mass above n_max fails
    errors.check_tail.
    """
    c = coherent_amplitudes(alpha, n_max)
    tail = _mass_above(c)
    check_tail(f"coherent state |alpha|={abs(alpha):.4g} keeps", tail, n_max)
    c = c / np.linalg.norm(c)
    return FieldState(np.outer(c, c.conj()))


def mean_photon(s: FieldState) -> float:
    n = np.arange(s.dim)
    return float(np.real(n @ np.diag(s.q)))


def photon_distribution(s: FieldState) -> np.ndarray:
    return np.real(np.diag(s.q)).copy()


def fidelity_to_coherent(s: FieldState, alpha: complex) -> float:
    """<alpha|rho|alpha> against the exact (untruncated) coherent state."""
    c = coherent_amplitudes(alpha, s.n_max)
    tail = _mass_above(c)
    check_tail(f"coherent target |alpha|={abs(alpha):.4g} keeps", tail, s.n_max)
    f = float(np.real(c.conj() @ s.q @ c))
    return max(f, 0.0)


def apply_decay(s: FieldState, gamma_c: float, dt: float) -> FieldState:
    """Exact amplitude-damping channel for a decay interval dt.

    Energy survival probability is eta = exp(-2*gamma_c*dt):

        Q'[n, m] = sum_k sqrt(binom(n+k, k) binom(m+k, k))
                   * eta^((n+m)/2) * (1-eta)^k * Q[n+k, m+k]

    The k-th term factorizes as c_k[n] * c_k[m] * Q[n+k, m+k], which keeps the
    update at one rank-1 style product per lost-photon count k.
    """
    check_range("gamma_c", gamma_c, 0.0)
    if dt != math.inf:  # an infinite dt decays the field to the vacuum
        check_range("dt", dt, 0.0)
    eta = math.exp(-2.0 * gamma_c * dt) if gamma_c > 0.0 else 1.0
    if eta == 1.0:
        # no decay, or less than double precision resolves (log(1 - eta) fails)
        return s
    dim = s.dim
    if eta == 0.0:
        # everything decayed; all population lands in the vacuum
        q = np.zeros_like(s.q)
        q[0, 0] = np.trace(s.q)
        return FieldState(q)
    log_eta = math.log(eta)
    log_loss = math.log1p(-eta)
    n = np.arange(dim, dtype=float)
    log_fact = _log_factorials(dim)
    out = np.zeros_like(s.q)
    for k in range(dim):
        nn = n[: dim - k]
        log_c = (
            0.5 * (log_fact[k:] - log_fact[: dim - k] - log_fact[k])
            + 0.5 * nn * log_eta
            + 0.5 * k * log_loss
        )
        c = np.exp(log_c)
        out[: dim - k, : dim - k] += np.outer(c, c) * s.q[k:, k:]
    return FieldState(out)
