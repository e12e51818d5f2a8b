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
here once: kick_stencil takes the absolute levels (n, m) to evaluate at
and returns coefficient arrays keyed by the index offset (dn, dm).

kick_sequence kicks one atom after another, the field decaying for a fixed
gap before each: a regular beam, or with no gap the lossless cavity.
The trajectory solver's transit works on plain amplitude arrays instead,
one row per trajectory of a batch: jc_kick_pure maps the field amplitudes
to the two atom branches (e, g), and measure_atom picks one by the Born
rule and renormalizes it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.linalg

from .atom import AtomState
from .dicke import EnsembleSpec, decompose_product_state
from .errors import DegenerateBranchError, check_range, check_tail
from .hilbert import FieldState, apply_decay, mean_photon, vacuum

__all__ = [
    "KickParams",
    "jc_kick",
    "jc_kick_pure",
    "measure_atom",
    "kick_sequence",
    "lossless_sequence",
    "bunched_mean_n",
    "kick_stencil",
    "rabi_tables",
]


@dataclasses.dataclass(frozen=True)
class KickParams:
    """Vacuum Rabi angle g_tau accumulated during one transit."""

    g_tau: float

    def __post_init__(self) -> None:
        check_range("g_tau", self.g_tau, 0.0)


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


def kick_stencil(
    a: AtomState, k: KickParams, n: np.ndarray, m: np.ndarray
) -> dict[tuple[int, int], np.ndarray]:
    """Coefficients of the kick map at the levels (n, m), keyed by source offset (dn, dm).

    n and m are broadcastable integer arrays of absolute Fock levels; entry
    (dn, dm) holds the coefficient multiplying Q[n+dn, m+dm] in the update of
    Q'[n, m]. Sources outside the caller's lattice contribute nothing whatever
    the stored coefficient. A window above the vacuum gets the full basis's
    coefficients: its lower edge n_lo carries C_{n_lo-1} = cos(sqrt(n_lo) g_tau).
    """
    c, s, cm, sm = rabi_tables(int(max(np.max(n), np.max(m))) + 1, k.g_tau)
    ree = a.rho_ee
    rgg = a.rho_gg
    reg = a.rho_eg
    rge = a.rho_ge
    return {
        (0, 0): (ree * (c[n] * c[m]) + rgg * (cm[n] * cm[m])).astype(complex),
        (1, 1): (rgg * (s[n] * s[m])).astype(complex),
        (-1, -1): (ree * (sm[n] * sm[m])).astype(complex),
        (0, 1): 1j * reg * (c[n] * s[m]),
        (1, 0): -1j * rge * (s[n] * c[m]),
        (0, -1): 1j * rge * (cm[n] * sm[m]),
        (-1, 0): -1j * reg * (sm[n] * cm[m]),
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
    out = apply_stencil(s.q, kick_stencil(a, k, *np.ogrid[: s.dim, : s.dim]))
    check_tail("kick leaks", abs(float(np.real(np.trace(s.q) - np.trace(out)))), s.n_max)
    return FieldState(out)


def jc_kick_pure(
    amp: np.ndarray, a_pure: tuple[complex, complex, float | np.ndarray], k: KickParams
) -> tuple[np.ndarray, np.ndarray]:
    """Exact resonant evolution of (pure atom) x (pure field) for angle g_tau.

    amp holds the field's Fock amplitudes, one field per row of a 2-D
    stack (a vector is one field), and a_pure = (c_e, c_g, phase) the atom
    c_e|e> + c_g e^{i phase}|g>; phase may hold one angle per row. Returns
    the unnormalized branches (e, g), the amplitudes of |e, n> and |g, n>,
    shaped as amp. Level maps:
    |e,n> -> C_n|e,n> - i S_n|g,n+1> and |g,n> -> C_{n-1}|g,n> - i S_{n-1}|e,n-1>.
    The one branch the basis cannot hold, |e, n_max> -> |g, n_max + 1>,
    carries |c_e amp[n_max] S_{n_max}|^2 away: the leak checked per field.
    """
    amp = np.asarray(amp, dtype=complex)
    if amp.ndim not in (1, 2) or amp.size == 0:
        raise ValueError(
            f"amplitudes must form a nonempty vector or a stack of them, got shape {amp.shape}")
    c_e, c_g, phase = a_pure
    ce = complex(c_e)
    nrm = abs(ce) ** 2 + abs(complex(c_g)) ** 2
    if not abs(nrm - 1.0) <= 1e-8:
        raise ValueError(f"atom amplitudes have norm {nrm:.6g}, expected 1")
    phase = np.asarray(phase, dtype=float)
    if not np.isfinite(phase).all():
        raise ValueError(f"atom phase must be finite, got {phase}")
    cg = complex(c_g) * np.exp(1j * phase)[..., None]
    c, s, cm, sm, s_top2 = _pure_tables(amp.shape[-1], k.g_tau)
    e0 = ce * amp
    g0 = cg * amp
    e = c * e0
    e[..., :-1] += s * g0[..., 1:]
    g = cm * g0
    g[..., 1:] += sm * e0[..., :-1]
    leak = float(np.max(np.abs(e0[..., -1]))) ** 2 * s_top2
    check_tail("pure kick leaks", leak, amp.shape[-1] - 1)
    return e, g


@functools.lru_cache(maxsize=64)
def _pure_tables(
    dim: int, g_tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """rabi_tables as jc_kick_pure applies them: C, -i S[:-1], Cm, -i Sm[1:] and S[-1]^2."""
    c, s, cm, sm = rabi_tables(dim, g_tau)
    tables = (c, -1j * s[:-1], cm, -1j * sm[1:])
    for table in tables[1::2]:
        table.flags.writeable = False
    return *tables, float(s[-1]) ** 2


_OUTCOMES = np.array(["g", "e"])  # measure_atom's labels, indexed by the excited flag


def measure_atom(
    e: np.ndarray, g: np.ndarray, u: float | np.ndarray
) -> tuple[str | np.ndarray, np.ndarray, float | np.ndarray]:
    """Project the atom in the energy basis using one uniform draw u in [0,1) per field.

    e and g are the branches jc_kick_pure returns, a vector or a stack of
    rows with one draw each. Returns the outcome label, the collapsed
    renormalized field amplitudes, and the probability of the branch
    taken; for a stack, an array of each, row by row.
    """
    e = np.asarray(e, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if e.shape != g.shape or e.ndim not in (1, 2):
        raise ValueError("e and g amplitude vectors must share one shape")
    stack = e.ndim == 2
    if not stack:
        e, g = e[None], g[None]
    w_e = (np.abs(e) ** 2).sum(axis=1)
    w_g = (np.abs(g) ** 2).sum(axis=1)
    total = w_e + w_g
    if not (total > 1e-300).all():
        # both branches underflowed; renormalizing would divide by zero
        raise DegenerateBranchError("joint state norm vanished before measurement")
    p_e = w_e / total
    excited = u < p_e
    prob = np.where(excited, p_e, 1.0 - p_e)
    nrm = np.sqrt(np.where(excited, w_e, w_g))
    outcome = _OUTCOMES[excited.view(np.int8)]
    if not (nrm > 1e-150).all():
        bad = np.flatnonzero(~(nrm > 1e-150))[0]
        raise DegenerateBranchError(
            f"measurement branch '{outcome[bad]}' has vanishing probability {prob[bad]:.3e}"
        )
    field = np.where(excited[:, None], e, g) / nrm[:, None]
    if stack:
        return outcome, field, prob
    return str(outcome[0]), field[0], float(prob[0])


def kick_sequence(
    q0: FieldState, atoms: list[AtomState], k: KickParams, gap: float = 0.0
) -> list[float]:
    """Mean photon number after each atom of a queue, starting from q0.

    Before each kick the field decays for the time gap (units of
    1/gamma_c), so gap = 1/n_c is a regularly spaced beam and gap = 0 the
    lossless cavity. Any q0 is accepted.
    """
    state = q0
    trace: list[float] = []
    for a in atoms:
        state = jc_kick(apply_decay(state, 1.0, gap), a, k)
        trace.append(mean_photon(state))
    return trace


def lossless_sequence(atoms: list[AtomState], k: KickParams) -> list[float]:
    """Mean photon number after each of a sequence of kicks with no decay.

    Starting from vacuum, N kicks can populate at most Fock level N, so the
    cutoff n_max = N + 1 is exact and no truncation is possible.
    """
    return kick_sequence(vacuum(len(atoms) + 1), atoms, k)


def _tavis_cummings_mean_n(spec: EnsembleSpec, g_tau: float) -> float:
    """<n> after N atoms cross together, by exact joint evolution.

    Identically prepared product atoms stay in the fully symmetric collective
    sector, spanned by (kg ground atoms) x (n photons). The coupling
    h = a sigma_+ + a^dagger sigma_- (units of g) conserves n + N - kg, so
    the part of the product state on collective level k evolves on its own
    in the block of states (k + j ground atoms, j photons), j = 0..N-k,
    where h is tridiagonal:

        <k+j+1, j+1| h |k+j, j> = sqrt((j+1) * (N-k-j) * (k+j+1))

    Blocks never mix, so <n> is the sum over k of |amplitude_k|^2 times the
    block's <n> after evolving for angle g_tau.
    """
    n_atoms = spec.n_atoms
    weights = np.abs(decompose_product_state(spec)) ** 2
    total = 0.0
    for k in range(n_atoms):  # k = N, every atom in the ground state, emits nothing
        j = np.arange(n_atoms - k + 1.0)
        off = np.sqrt((j[:-1] + 1.0) * (n_atoms - k - j[:-1]) * (k + j[:-1] + 1.0))
        w, vec = scipy.linalg.eigh_tridiagonal(np.zeros(j.size), off)
        psi = vec @ (np.exp(-1j * w * g_tau) * vec[0])
        total += weights[k] * float(j @ np.abs(psi) ** 2)
    return total


def bunched_mean_n(n_atoms: int, theta: float, phi: float, k: KickParams) -> float:
    """<n> emitted when n_atoms cross the lossless cavity simultaneously.

    Exact joint evolution in the Tavis-Cummings blocks, up to
    decompose_product_state's atom limit.
    """
    return _tavis_cummings_mean_n(EnsembleSpec.from_pulse(n_atoms, theta, phi), k.g_tau)
