"""Coarse-grained master equation of the beam-pumped lossy cavity.

Time is measured in units of 1/gamma_c throughout this module. With n_c
atoms crossing per decay time, the field obeys

    dQ/dt = n_c * (kick(Q) - Q) + D(Q) + P(Q)

where kick is the single-transit update from the interaction module, D is
the photon-loss dissipator, D(Q)[n,m] = 2 sqrt((n+1)(m+1)) Q[n+1,m+1]
- (n+m) Q[n,m], and P(Q)[n,m] = -(1/2) Gamma_phi (n-m)^2 Q[n,m] is the
phase diffusion of a pump whose phase walks with variance 2 pi linewidth
per second, Gamma_phi = 2 pi linewidth / gamma_c (Gardiner & Zoller,
Quantum Noise). Q is the field in the frame that turns with the pump phase,
on which p_n and <n> do not depend. All three pieces are seven-band
stencils on the index lattice. The solvers build the real, folded matrix
of the gauged stencil directly and check their results by applying the
complex stencil matrix-free; build_generator assembles the complex matrix
as a reference. A regular beam's exact decay-and-kick map is
interaction.kick_sequence instead.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import scipy.integrate
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from .analytic import mean_n_noncollective
from .atom import AtomState
from .errors import ConvergenceError, DivergenceError, ResourceError, TruncationError
from .hilbert import FieldState
from .interaction import KickParams, apply_stencil, kick_stencil

__all__ = [
    "MasterParams",
    "build_generator",
    "steady_state",
    "steady_state_auto",
    "suggest_n_max",
    "evolve",
]

# Direct sparse-LU factorization of the real dim(dim+1)/2 system is the whole
# strategy; fill-in grows fast, and at dim 1040 it peaks at about 1.6 GB and
# takes about 18 s on 2 cores. Past the guard we refuse rather than thrash.
# Every solver reads the guard when called, so raising it here raises it for all.
DEFAULT_MAX_DIM = 1100

_TAIL_TOL = 1e-8
_RESIDUAL_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class MasterParams:
    """Pump and basis parameters: atoms per decay time, kick angle, atom state.

    The basis is the Fock window of levels n_lo..n_max; n_lo = 0 is the full
    basis. A window above the vacuum treats every level below n_lo as empty.
    dephasing is Gamma_phi, the pump's phase noise, in units of gamma_c.
    """

    n_c: float
    k: KickParams
    a: AtomState
    n_max: int
    n_lo: int = 0
    dephasing: float = 0.0

    def __post_init__(self) -> None:
        if self.n_c <= 0.0:
            raise ValueError(f"n_c must be positive, got {self.n_c}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if not 0 <= self.n_lo < self.n_max:
            raise ValueError(f"n_lo must lie in 0..n_max-1, got {self.n_lo}")
        if self.dephasing < 0.0:
            raise ValueError(f"dephasing must be non-negative, got {self.dephasing}")

    @property
    def dim(self) -> int:
        """Dimension of the field state on levels 0..n_max."""
        return self.n_max + 1

    @property
    def width(self) -> int:
        """Number of levels in the window, the side of the solved Q."""
        return self.n_max - self.n_lo + 1


def _generator_stencil(p: MasterParams) -> dict[tuple[int, int], np.ndarray]:
    """The one description of L on the window, laid out as kick_stencil.

    The guard is checked here, before anything sized by the window exists.
    """
    if p.dim > DEFAULT_MAX_DIM:
        raise ResourceError(
            f"generator dimension {p.dim}^2 exceeds the solver guard ({DEFAULT_MAX_DIM}^2); "
            "the direct factorization would not fit"
        )
    st = {off: p.n_c * coef for off, coef in kick_stencil(p.width, p.a, p.k, p.n_lo).items()}
    n = np.arange(p.n_lo, p.n_max + 1, dtype=float)
    nn, mm = np.meshgrid(n, n, indexing="ij")
    st[(0, 0)] = st[(0, 0)] - p.n_c - (nn + mm) - 0.5 * p.dephasing * (nn - mm) ** 2
    st[(1, 1)] = st[(1, 1)] + 2.0 * np.sqrt((nn + 1.0) * (mm + 1.0))
    return st


def _triplets(stencil: dict, dim: int, rows: np.ndarray, col: np.ndarray) -> list[np.ndarray]:
    """COO (row, column, value) arrays of a stencil on the dim x dim lattice.

    rows holds the row-major indices n * dim + m of the rows to build, and
    row i of the result is rows[i]; col maps each row-major index to its
    column. Sources outside the lattice contribute nothing.
    """
    n, m = np.divmod(rows, dim)
    parts = []
    for (dn, dm), coef in stencil.items():
        ok = (n + dn >= 0) & (n + dn < dim) & (m + dm >= 0) & (m + dm < dim)
        parts.append((np.flatnonzero(ok), col[rows[ok] + dn * dim + dm], coef.ravel()[rows[ok]]))
    return [np.concatenate(x) for x in zip(*parts)]


def build_generator(p: MasterParams) -> scipy.sparse.csc_matrix:
    """Sparse generator L acting on vec(Q), row-major vectorization.

    Q is the window's width x width block, levels n_lo..n_max, and L is the
    full basis's generator restricted to those rows and columns. On the full
    basis L annihilates the trace: summing the rows that correspond to
    diagonal entries (n, n) gives zero, because the kick is trace preserving
    and the loss terms cancel in pairs. The solvers never assemble L; it is
    the reference their results are checked against.
    """
    size = p.width * p.width
    rows, cols, vals = _triplets(_generator_stencil(p), p.width, np.arange(size), np.arange(size))
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsc()


def _gauge_angle(a: AtomState) -> float:
    return cmath.phase(a.rho_eg) - 0.5 * math.pi


def _gauge(p: MasterParams) -> np.ndarray:
    """Phases u[n, m] = exp(i beta (n - m)) that make the generator real.

    A field rotation commutes with photon loss and only shifts the atom
    phase, so with beta = arg(rho_eg) - pi/2 every coherence term of the
    kick stencil turns into +-|rho_eg| and U^dagger L U is real, where U
    multiplies vec(Q) by u. The steady state is then Q = u * R with R real
    symmetric. Any beta works when rho_eg = 0. The phases depend on n - m
    only, so on a window they are the full basis's restricted to it.
    """
    n = np.arange(p.width)
    return np.exp(1j * _gauge_angle(p.a) * (n[:, None] - n[None, :]))


def _folded_generator(p: MasterParams) -> tuple[scipy.sparse.coo_matrix, np.ndarray]:
    """Real generator on the upper triangle n <= m of R, where Q = u * R.

    Returns the matrix, acting on the dim(dim+1)/2 unknowns R[n, m] with
    n <= m in triu order, and the map from each full index (n, m) to its
    unknown, (m, n) for n > m. In the gauge, offset (dn, dm) of the stencil
    only picks up the phase exp(i beta (dn - dm)). The gauged generator maps
    real symmetric R to real symmetric R, so only the rows n <= m are built,
    and the columns of (n, m) and (m, n) fold into one: two COO entries that
    a conversion sums.
    """
    beta = _gauge_angle(p.a)
    # imaginary parts are roundoff in the right gauge; steady_state's residual
    # on the ungauged stencil would show a wrong one
    st = {
        (dn, dm): (coef * np.exp(1j * beta * (dn - dm))).real
        for (dn, dm), coef in _generator_stencil(p).items()
    }
    dim = p.width
    upper_n, upper_m = np.triu_indices(dim)
    red = np.empty((dim, dim), dtype=np.int64)
    red[upper_n, upper_m] = np.arange(upper_n.size)
    red[upper_m, upper_n] = red[upper_n, upper_m]
    red = red.ravel()
    rows, cols, vals = _triplets(st, dim, upper_n * dim + upper_m, red)
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(upper_n.size,) * 2), red


def steady_state(p: MasterParams) -> FieldState:
    """Unique steady state of the generator on the window n_lo..n_max.

    Solves L vec(Q) = 0 in the real gauge of _gauge, on the dim(dim+1)/2
    unknowns of the symmetric R (dim the window's width), with one row
    traded for the trace constraint, via sparse LU. Every check applies the
    ungauged complex stencil, matrix-free, to the state padded with zeros
    one level below n_lo > 0, so a wrong gauge shows. In the window this
    flow is the residual, refined while that helps; its entry (n_lo, n_lo),
    the traded row, is the rate at which probability leaks out. Row and
    column n_lo - 1 are the flow out of the lower edge through loss and
    absorption, which the trace row sees only in part. The upper edge holds
    at most _TAIL_TOL population. The result is padded with zeros to levels
    0..n_max.
    """
    g, red = _folded_generator(p)
    dim = p.width
    # row (0, 0) is redundant because the generator annihilates the trace
    # (up to the edge leaks a window must keep small anyway); trade it for
    # the trace constraint
    keep = g.row != 0
    a = scipy.sparse.coo_matrix(
        (
            np.concatenate((g.data[keep], np.ones(dim))),
            (np.concatenate((g.row[keep], np.zeros(dim, dtype=np.int64))),
             np.concatenate((g.col[keep], red[np.arange(dim) * (dim + 1)]))),
        ),
        shape=g.shape,
    ).tocsc()
    del g  # the factorization below sets the peak memory; free the fold first
    b = np.zeros(a.shape[0])
    b[0] = 1.0
    # of SuperLU's orderings, minimum degree on A^T A factors this lattice
    # fastest (at 420 levels 1.1 s against 1.45 s for COLAMD, with 20% less fill)
    lu = scipy.sparse.linalg.splu(a, permc_spec="MMD_ATA")
    x = lu.solve(b)

    # built after the factorization, not shared with the fold: held across
    # it, the stencil would raise the solve's peak memory
    wider = dataclasses.replace(p, n_lo=max(p.n_lo - 1, 0))
    pad = p.n_lo - wider.n_lo
    stencil = _generator_stencil(wider)
    u = _gauge(p)
    padded = np.zeros((wider.width, wider.width), dtype=complex)

    def flow(sol: np.ndarray) -> tuple[np.ndarray, float]:
        padded[pad:, pad:] = sol[red].reshape(dim, dim) * u
        f = apply_stencil(padded, stencil)
        return f, float(np.abs(f[pad:, pad:]).max())

    # one LU pass is condition-limited at large n_c; refine while it helps
    f, best = flow(x)
    for _ in range(5):
        if best <= 0.1 * _RESIDUAL_TOL:
            break
        x_new = x + lu.solve(b - a @ x)
        f_new, best_new = flow(x_new)
        if best_new >= best:
            break
        x, f, best = x_new, f_new, best_new
    if best > _RESIDUAL_TOL:
        # a residual confined to the replaced trace row is the rate at which
        # probability escapes past the window's edges: a basis problem, not a
        # solver one, so report it as such and let callers enlarge the basis
        if float(np.abs(f[pad:, pad:]).ravel()[1:].max()) <= _RESIDUAL_TOL:
            raise TruncationError(
                f"trace leaks out of levels {p.n_lo}..{p.n_max} at rate {best:.3e}; "
                "enlarge the basis"
            )
        raise ConvergenceError(
            f"steady-state residual {best:.3e} above {_RESIDUAL_TOL:.0e}"
        )
    r = x[red].reshape(dim, dim)
    q = np.zeros((p.dim, p.dim), dtype=complex)
    q[p.n_lo :, p.n_lo :] = r * u / float(np.trace(r))
    tail = float(q[p.n_max, p.n_max].real)
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"steady state keeps {tail:.3e} population at n_max={p.n_max}; "
            "enlarge the basis"
        )
    edge = max(np.abs(f[:pad]).max(initial=0.0), np.abs(f[:, :pad]).max(initial=0.0))
    if edge > _RESIDUAL_TOL:
        raise TruncationError(
            f"steady state flows out of level n_lo={p.n_lo} at rate {edge:.3e}; "
            "lower the window's edge"
        )
    return FieldState(q)


def _balance_angle(n_c: float, a: AtomState, g_tau: float) -> float:
    """Root of the semiclassical gain-loss balance, as a Rabi angle.

    An atom crossing a quasi-classical field of mean photon number nb
    precesses by chi = 2 sqrt(nb) g_tau and deposits
    (1/2)[z (1 - cos chi) + s sin chi] photons, with z = 2 rho_ee - 1 and
    s = 2|rho_eg|. Equating the beam gain n_c * deposit with the loss 2 nb
    gives F(chi) = kappa [z (1 - cos chi) + s sin chi] - chi^2 = 0, with
    kappa = n_c g_tau^2. Returns 0 when no positive root exists (no
    self-sustained field).

    1 - cos chi is evaluated as 2 sin^2(chi/2): at the grid's first point
    the former rounds to 0, which would hide the small-angle gain
    (kappa z / 2 - 1) chi^2 of a dephased beam above threshold.
    """
    kappa = n_c * g_tau * g_tau
    z = 2.0 * a.rho_ee - 1.0
    s = 2.0 * abs(a.rho_eg)

    def f(chi):
        return kappa * (2.0 * z * np.sin(0.5 * chi) ** 2 + s * np.sin(chi)) - chi * chi

    grid = np.linspace(1e-8, 2.0 * math.pi, 2049)
    vals = f(grid)
    if vals[0] <= 0.0:
        return 0.0
    crossings = np.nonzero(vals <= 0.0)[0]
    i = int(crossings[0])
    return float(scipy.optimize.brentq(f, grid[i - 1], grid[i], xtol=1e-12))


def _predicted_mean(n_c: float, a: AtomState, g_tau: float) -> float:
    """Predicted <n>: the semiclassical balance plus the noncollective mean.

    The noncollective mean counts only where it is finite. The balance is
    what caps the field in the saturated and lasing regimes where the
    small-angle formula blows up.
    """
    if g_tau <= 0.0:
        raise ValueError(f"g_tau must be positive, got {g_tau}")
    chi = _balance_angle(n_c, a, g_tau)
    est = (0.5 * chi / g_tau) ** 2
    try:
        est += mean_n_noncollective(n_c * g_tau * g_tau, a.rho_ee)
    except DivergenceError:
        pass  # lasing regime: the balance root already carries the saturated value
    return est


def _window_edges(est: float) -> tuple[int, int]:
    """Window n_lo..n_max around a predicted mean: ten sigma and ten on each side."""
    margin = 10.0 * math.sqrt(est) + 10.0
    return max(0, math.floor(est - margin)), math.ceil(est + margin)


def suggest_n_max(n_c: float, a: AtomState, g_tau: float) -> int:
    """Fock cutoff estimate: predicted <n> plus a ten-sigma-and-ten margin."""
    return _window_edges(_predicted_mean(n_c, a, g_tau))[1]


def steady_state_auto(
    n_c: float,
    a: AtomState,
    k: KickParams,
    n_max: int | None = None,
    dephasing: float = 0.0,
) -> FieldState:
    """steady_state with automatic window choice and doubling on tail failure.

    Without n_max, the window runs from ten sigma and ten below the
    predicted mean (or from the vacuum, when that reaches it) up to
    suggest_n_max's cutoff; a given n_max is solved on the full basis. A
    truncation on a window above the vacuum re-solves once on the full
    basis at the same cutoff, since either edge may have failed; on the
    full basis a truncation doubles the cutoff. Doubling is clipped to the
    largest cutoff the guard allows, n_max = DEFAULT_MAX_DIM - 1, so the
    search gives up only once that cutoff has failed. dephasing is
    MasterParams'; the window estimate does not read it.
    """
    if n_max is None:
        lo, cur = _window_edges(_predicted_mean(n_c, a, k.g_tau))
    else:
        lo, cur = 0, max(n_max, 2)
    while True:
        try:
            return steady_state(MasterParams(n_c, k, a, cur, lo, dephasing))
        except TruncationError:
            if lo > 0:
                lo = 0
            elif cur >= DEFAULT_MAX_DIM - 1:
                raise
            else:
                cur = min(2 * cur, DEFAULT_MAX_DIM - 1)


def evolve(
    p: MasterParams, q0: FieldState, t_end: float
) -> tuple[np.ndarray, list[FieldState]]:
    """Transient of the master equation from q0 for a time t_end (1/gamma_c).

    Integrates the generator with an adaptive high-order scheme, on the
    same real state as steady_state: the dim(dim+1)/2 entries R[n, m],
    n <= m, of the real symmetric R with Q = u * R in the gauge of _gauge.
    The generator preserves that form, so q0 must have it too (the vacuum,
    any Fock mixture, a steady state of the same atoms); any other q0
    raises ValueError. Returns 81 evenly spaced times and the state at
    each, renormalized to unit trace, and raises TruncationError if any
    sample keeps more than _TAIL_TOL population on the top level, the rule
    steady_state applies.
    """
    if p.n_lo != 0:
        raise ValueError(f"evolve runs on the full basis, got n_lo={p.n_lo}")
    if q0.dim != p.dim:
        raise ValueError(f"q0 has dim {q0.dim}, params expect {p.dim}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if t_end == 0.0:
        return np.zeros(1), [q0]
    g, red = _folded_generator(p)
    u = _gauge(p)
    r0 = q0.q * u.conj()
    off = max(float(np.abs(r0.imag).max()), float(np.abs(r0 - r0.T).max()))
    if off > 1e-12 * abs(np.trace(q0.q)):
        raise ValueError(
            f"q0 is not real symmetric in the gauge of the generator (off by "
            f"{off:.3e}); interaction.kick_sequence takes any state"
        )
    g = g.tocsr()
    times = np.linspace(0.0, t_end, 81)
    sol = scipy.integrate.solve_ivp(
        lambda _t, y: g @ y, (0.0, t_end), r0.real[np.triu_indices(p.dim)],
        method="DOP853", t_eval=times, rtol=1e-8, atol=1e-12,
    )
    if not sol.success:
        raise ConvergenceError(f"transient integration failed: {sol.message}")
    states = []
    for y in sol.y.T:
        r = y[red].reshape(p.dim, p.dim)
        states.append(FieldState(r * u / float(np.trace(r))))
    top = max(float(s.q[-1, -1].real) for s in states)
    if top > _TAIL_TOL:
        raise TruncationError(
            f"transient reaches {top:.3e} population at n_max={p.n_max}; "
            "enlarge the basis"
        )
    return times, states
