"""Single-transit atom-field interaction on resonance.

One atom crosses the cavity for a time tau, so the field picks up a rotation
by the vacuum Rabi angle g_tau = g*tau. The closed-form field update after
tracing out the atom ("the kick") is, with C_n = cos(sqrt(n+1)*g_tau),
S_n = sin(sqrt(n+1)*g_tau), and the boundary values C_{-1} = 1, S_{-1} = 0:

    Q'[n,m] = ree C_n C_m Q[n,m] + rgg C_{n-1} C_{m-1} Q[n,m]
            + rgg S_n S_m Q[n+1,m+1] + ree S_{n-1} S_{m-1} Q[n-1,m-1]
            + i ( reg C_n S_m Q[n,m+1] - rge S_n C_m Q[n+1,m]
                + rge C_{n-1} S_{m-1} Q[n,m-1] - reg S_{n-1} C_{m-1} Q[n-1,m] )

with ree = rho_ee, rgg = 1 - rho_ee, reg = rho_eg, rge = conj(rho_eg). The
same seven-band stencil feeds the master-equation generator, so it lives
here once, as coefficient arrays keyed by the index offset (dn, dm).
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np
import scipy.linalg

from .atom import AtomState
from .dicke import EnsembleSpec, decompose_product_state, ensemble_rate
from .errors import DegenerateBranchError, TruncationError
from .hilbert import FieldState, PureFieldState, mean_photon, vacuum

__all__ = [
    "KickParams",
    "JointState",
    "jc_kick",
    "jc_kick_pure",
    "measure_atom",
    "lossless_sequence",
    "bunched_mean_n",
    "kick_stencil",
    "rabi_tables",
]

# trace loss tolerated before the cutoff is declared too small
_LEAK_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class KickParams:
    """Vacuum Rabi angle g_tau accumulated during one transit."""

    g_tau: float

    def __post_init__(self) -> None:
        if self.g_tau < 0.0:
            raise ValueError(f"g_tau must be non-negative, got {self.g_tau}")


@functools.lru_cache(maxsize=64)
def rabi_tables(dim: int, g_tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectors C, S plus their versions shifted down one index (Cm, Sm).

    C[n] = cos(sqrt(n+1)*g_tau) and Cm[n] = C[n-1] with Cm[0] = 1; same for S.
    Built once per (dim, g_tau) and shared by every caller, so the arrays
    are read-only.
    """
    n = np.arange(dim, dtype=float)
    angles = np.sqrt(n + 1.0) * g_tau
    c = np.cos(angles)
    s = np.sin(angles)
    cm = np.concatenate(([1.0], c[:-1]))
    sm = np.concatenate(([0.0], s[:-1]))
    for table in (c, s, cm, sm):
        table.flags.writeable = False
    return c, s, cm, sm


def kick_stencil(dim: int, a: AtomState, k: KickParams) -> dict[tuple[int, int], np.ndarray]:
    """Coefficient arrays of the kick map, keyed by source offset (dn, dm).

    Entry (dn, dm) holds the dim x dim coefficient multiplying Q[n+dn, m+dm]
    in the update of Q'[n, m]; rows whose source index leaves 0..dim-1
    contribute nothing regardless of the stored coefficient.
    """
    c, s, cm, sm = rabi_tables(dim, k.g_tau)
    ree = a.rho_ee
    rgg = a.rho_gg
    reg = a.rho_eg
    rge = a.rho_ge
    return {
        (0, 0): (ree * np.outer(c, c) + rgg * np.outer(cm, cm)).astype(complex),
        (1, 1): (rgg * np.outer(s, s)).astype(complex),
        (-1, -1): (ree * np.outer(sm, sm)).astype(complex),
        (0, 1): 1j * reg * np.outer(c, s),
        (1, 0): -1j * rge * np.outer(s, c),
        (0, -1): 1j * rge * np.outer(cm, sm),
        (-1, 0): -1j * reg * np.outer(sm, cm),
    }


def apply_stencil(q: np.ndarray, stencil: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    out = np.zeros_like(q)
    dim = q.shape[0]
    for (dn, dm), coef in stencil.items():
        n0, n1 = max(0, -dn), min(dim, dim - dn)
        m0, m1 = max(0, -dm), min(dim, dim - dm)
        out[n0:n1, m0:m1] += coef[n0:n1, m0:m1] * q[n0 + dn : n1 + dn, m0 + dm : m1 + dm]
    return out


def jc_kick(s: FieldState, a: AtomState, k: KickParams) -> FieldState:
    """Field state after one atom transit, atom traced out.

    Raises TruncationError when population would be pushed past the cutoff:
    on the truncated space that shows up as a trace deficit, because the
    branch |e, n_max> -> |g, n_max + 1> has nowhere to land.
    """
    out = apply_stencil(s.q, kick_stencil(s.dim, a, k))
    leak = abs(float(np.real(np.trace(s.q) - np.trace(out))))
    if leak > _LEAK_TOL:
        raise TruncationError(
            f"kick leaks {leak:.3e} trace past n_max={s.n_max}; enlarge the basis"
        )
    return FieldState(out)


@dataclasses.dataclass(frozen=True)
class JointState:
    """Pure atom+field state: amplitudes of |e, n> and |g, n>."""

    e: np.ndarray
    g: np.ndarray
    # unnormalized branch weights (||e||^2, ||g||^2), computed once
    weights: tuple[float, float] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        e = np.asarray(self.e, dtype=complex)
        g = np.asarray(self.g, dtype=complex)
        if e.shape != g.shape or e.ndim != 1:
            raise ValueError("e and g amplitude vectors must share one shape")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "weights", (np.vdot(e, e).real, np.vdot(g, g).real))

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    def norm(self) -> float:
        w_e, w_g = self.weights
        return math.sqrt(w_e + w_g)


def jc_kick_pure(
    psi: PureFieldState, a_pure: tuple[float, float, float], k: KickParams
) -> JointState:
    """Exact resonant evolution of (pure atom) x (pure field) for angle g_tau.

    a_pure = (c_e, c_g, phase) describes the atom c_e|e> + c_g e^{i phase}|g>.
    Level maps: |e,n> -> C_n|e,n> - i S_n|g,n+1> and
    |g,n> -> C_{n-1}|g,n> - i S_{n-1}|e,n-1>.
    """
    c_e, c_g, phase = a_pure
    ce = complex(c_e)
    cg = complex(c_g) * cmath.exp(1j * phase)
    nrm = abs(ce) ** 2 + abs(cg) ** 2
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"atom amplitudes have norm {nrm:.6g}, expected 1")
    c, s, cm, sm = rabi_tables(psi.dim, k.g_tau)
    e0 = ce * psi.amp
    g0 = cg * psi.amp
    e1 = c * e0
    e1[:-1] -= 1j * s[:-1] * g0[1:]
    g1 = cm * g0
    g1[1:] -= 1j * sm[1:] * e0[:-1]
    joint = JointState(e1, g1)
    w_e, w_g = joint.weights
    leak = abs(nrm * np.vdot(psi.amp, psi.amp).real - (w_e + w_g))
    if leak > _LEAK_TOL:
        raise TruncationError(
            f"pure kick leaks {leak:.3e} norm past n_max={psi.n_max}; enlarge the basis"
        )
    return joint


def measure_atom(joint: JointState, u: float) -> tuple[str, PureFieldState, float]:
    """Project the atom in the energy basis using one uniform draw u in [0,1).

    Returns the outcome label, the collapsed renormalized field, and the
    probability of the branch taken.
    """
    w_e, w_g = joint.weights
    total = w_e + w_g
    if total <= 1e-300:
        # both branches underflowed; renormalizing would divide by zero
        raise DegenerateBranchError("joint state norm vanished before measurement")
    p_e = float(w_e / total)
    if u < p_e:
        outcome, amp, weight, prob = "e", joint.e, w_e, p_e
    else:
        outcome, amp, weight, prob = "g", joint.g, w_g, 1.0 - p_e
    nrm = math.sqrt(weight)
    if nrm <= 1e-150:
        raise DegenerateBranchError(
            f"measurement branch '{outcome}' has vanishing probability {prob:.3e}"
        )
    return outcome, PureFieldState(amp / nrm), prob


def lossless_sequence(atoms: list[AtomState], k: KickParams) -> list[float]:
    """Mean photon number after each of a sequence of kicks with no decay.

    Starting from vacuum, N kicks can populate at most Fock level N, so the
    cutoff n_max = N + 1 is exact and no truncation is possible.
    """
    n = len(atoms)
    if n == 0:
        return []
    state = vacuum(n + 1)
    trace: list[float] = []
    for a in atoms:
        state = jc_kick(state, a, k)
        trace.append(mean_photon(state))
    return trace


def _tavis_cummings_mean_n(spec: EnsembleSpec, g_tau: float) -> float:
    """<n> after N atoms cross together, by exact joint evolution.

    Identically prepared product atoms stay in the fully symmetric collective
    sector, so the joint space is (collective level kg = number of ground
    atoms) x (photon number), of size (N+1)^2. The coupling Hamiltonian in
    units of g is h = a sigma_+ + a^dagger sigma_-, with matrix elements

        <kg-1, n-1| h |kg, n> = sqrt(n * kg * (N - kg + 1))
        <kg+1, n+1| h |kg, n> = sqrt((n+1) * (N - kg) * (kg + 1))

    Evolving for angle g_tau and weighing by photon number gives the result.
    """
    n_atoms = spec.n_atoms
    levels = n_atoms + 1
    size = levels * levels

    def idx(kg: int, n: int) -> int:
        return kg * levels + n

    h = np.zeros((size, size))
    for kg in range(levels):
        for n in range(levels):
            if n + 1 < levels and kg + 1 < levels:
                v = math.sqrt((n + 1.0) * (n_atoms - kg) * (kg + 1.0))
                h[idx(kg + 1, n + 1), idx(kg, n)] = v
                h[idx(kg, n), idx(kg + 1, n + 1)] = v
    w, vec = scipy.linalg.eigh(h)
    psi0 = np.zeros(size, dtype=complex)
    psi0[::levels] = decompose_product_state(spec)  # the vacuum times the atoms
    psi = (vec * np.exp(-1j * w * g_tau)) @ (vec.conj().T @ psi0)
    weights = np.abs(psi) ** 2
    photon = np.tile(np.arange(levels, dtype=float), levels)
    return float(photon @ weights)


def bunched_mean_n(n_atoms: int, theta: float, phi: float, k: KickParams) -> float:
    """<n> emitted when n_atoms cross the lossless cavity simultaneously.

    Exact joint evolution up to 6 atoms; beyond that the collective
    second-order emission (g_tau)^2 times the collective rate of
    dicke.ensemble_rate, which is what the exact result reduces to for small
    g_tau*sqrt(N).
    """
    spec = EnsembleSpec.from_pulse(n_atoms, theta, phi)
    if n_atoms <= 6:
        return _tavis_cummings_mean_n(spec, k.g_tau)
    return k.g_tau**2 * ensemble_rate(n_atoms, spec.atom_state())
