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
stencils, one function of the absolute levels (n, m) that each consumer
evaluates where it reads it: the solvers fold the gauged stencil's rows
n <= m into a real matrix and check their results by applying the complex
stencil matrix-free; build_generator assembles the complex matrix on all
rows as a reference. A phase-averaged atom (rho_eg = 0) keeps Q diagonal,
and steady_state_auto takes its steady state from the exact detailed-balance
recursion, analytic.pn_random_phase, instead of the LU. A regular beam's
exact decay-and-kick map is interaction.kick_sequence instead.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ._roots import _brentq
from .analytic import mean_n_noncollective, pn_random_phase
from .atom import AtomState
from .errors import ConvergenceError, DivergenceError, ResourceError, TruncationError
from .errors import TAIL_TOL, check_range, check_tail
from .hilbert import FieldState, photon_distribution
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
# strategy; fill-in grows fast, and a full-basis solve at dim 1040 peaks at
# about 0.94 GB in a fresh process and takes about 2.7 s on 2 cores. Past the
# guard we refuse rather than thrash.
# Every solver reads the guard when called, so raising it here raises it for all.
DEFAULT_MAX_DIM = 1100

_RESIDUAL_TOL = 1e-9

# Leaves of the nested-dissection order hold at most this many unknowns:
# smaller leaves cost more Python per solve, larger ones more LU fill.
_DISSECTION_LEAF = 16

# SuperLU's threshold partial pivoting: a diagonal entry is kept as the pivot
# unless its column holds an entry more than 1/_PIVOT_THRESHOLD times larger,
# so each elimination step grows entries by at most 1 + 1/_PIVOT_THRESHOLD
# (Duff, Erisman & Reid, Direct Methods for Sparse Matrices, sec. 5.4) while
# the dissection order's diagonal, and with it its fill, is mostly kept.
_PIVOT_THRESHOLD = 0.1


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
        check_range("n_c", self.n_c, 0.0, open_lo=True)
        check_range("n_max", self.n_max, 1, integer=True)
        check_range("n_lo", self.n_lo, 0, self.n_max - 1, integer=True)
        check_range("dephasing", self.dephasing, 0.0)

    @property
    def dim(self) -> int:
        """Dimension of the field state on levels 0..n_max."""
        return self.n_max + 1

    @property
    def width(self) -> int:
        """Number of levels in the window, the side of the solved Q."""
        return self.n_max - self.n_lo + 1


def _check_guard(p: MasterParams) -> None:
    """Refuse a basis past DEFAULT_MAX_DIM, before anything sized by the window exists."""
    if not p.dim <= DEFAULT_MAX_DIM:
        raise ResourceError(
            f"generator dimension {p.dim}^2 exceeds the solver guard ({DEFAULT_MAX_DIM}^2); "
            "the direct factorization would not fit"
        )


def _generator_stencil(p: MasterParams, n: np.ndarray, m: np.ndarray) -> dict:
    """The one description of L, at the absolute levels (n, m) as in kick_stencil."""
    st = {off: p.n_c * coef for off, coef in kick_stencil(p.a, p.k, n, m).items()}
    st[(0, 0)] = st[(0, 0)] - p.n_c - (n + m) - 0.5 * p.dephasing * (n - m) ** 2
    st[(1, 1)] = st[(1, 1)] + 2.0 * np.sqrt((n + 1.0) * (m + 1.0))
    return st


def _triplets(coefs: dict, dim: int, n: np.ndarray, m: np.ndarray, col: np.ndarray) -> list:
    """COO (row, column, value) arrays of a stencil on the dim x dim lattice.

    Row i of the result is the local entry (n[i], m[i]), coefs holds the
    coefficients at those rows, and col maps each row-major index n * dim + m
    to its column. Sources outside the lattice contribute nothing.
    """
    parts = []
    for (dn, dm), coef in coefs.items():
        ok = (n + dn >= 0) & (n + dn < dim) & (m + dm >= 0) & (m + dm < dim)
        parts.append((np.flatnonzero(ok), col[(n[ok] + dn) * dim + m[ok] + dm], coef[ok]))
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
    _check_guard(p)
    size = p.width * p.width
    n, m = np.divmod(np.arange(size), p.width)
    coefs = _generator_stencil(p, n + p.n_lo, m + p.n_lo)
    rows, cols, vals = _triplets(coefs, p.width, n, m, np.arange(size))
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
    _check_guard(p)
    beta = _gauge_angle(p.a)
    dim = p.width
    upper_n, upper_m = np.triu_indices(dim)
    # imaginary parts are roundoff in the right gauge; steady_state's residual
    # on the ungauged stencil would show a wrong one
    st = {
        (dn, dm): (coef * np.exp(1j * beta * (dn - dm))).real
        for (dn, dm), coef in _generator_stencil(p, upper_n + p.n_lo, upper_m + p.n_lo).items()
    }
    red = np.empty((dim, dim), dtype=np.int64)
    red[upper_n, upper_m] = np.arange(upper_n.size)
    red[upper_m, upper_n] = red[upper_n, upper_m]
    red = red.ravel()
    rows, cols, vals = _triplets(st, dim, upper_n, upper_m, red)
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(upper_n.size,) * 2), red


def _halves(box: tuple[int, int, int, int]) -> tuple[tuple, tuple, tuple] | None:
    """Nested-dissection split of a box of unknowns: (first half, second half, separator).

    The box holds the R[n, m] with n0 <= n <= n1, m0 <= m <= m1 and n <= m.
    A line of unknowns across the middle of its longer side separates the
    two halves, because the stencil only reaches levels one step away, and
    folding (m, n) onto (n, m) keeps that true. Returns None for a leaf, a box
    of at most _DISSECTION_LEAF unknowns.
    """
    n0, n1, m0, m1 = box
    n1, m0 = min(n1, m1), max(m0, n0)
    # rows n <= m0 hold all of m0..m1; each row past m0 starts on the diagonal, one shorter
    full, cut = max(0, min(n1, m0) - n0 + 1), max(0, n1 - m0)
    if full * (m1 - m0 + 1) + cut * (2 * m1 - m0 - n1 + 1) // 2 <= _DISSECTION_LEAF:
        return None
    if n1 - n0 >= m1 - m0:
        mid = (n0 + n1 + 1) // 2
        return (n0, mid - 1, m0, m1), (mid + 1, n1, m0, m1), (mid, mid, m0, m1)
    mid = (m0 + m1 + 1) // 2
    return (n0, n1, m0, mid - 1), (n0, n1, mid + 1, m1), (n0, n1, mid, mid)


def _dissection_rank(width: int) -> np.ndarray:
    """Elimination rank of each folded unknown, in triu order, by nested dissection.

    The triangle n <= m of a window width levels wide is bisected
    recursively by _halves; each box ranks its two halves first and its
    separator after them (A. George, SIAM J. Numer. Anal. 10, 345 (1973)).
    Each leaf and separator paints its rectangle of a width x width key
    with its visit number; the rectangles do not overlap, so a stable sort
    of the triangle's keys ranks the unknowns box by box, each box's in
    triu order. Unknown 0, R[n_lo, n_lo], whose row steady_state trades for
    the dense trace row, ranks last.
    """
    boxes = []

    def visit(box):
        split = _halves(box)
        if split is None:
            boxes.append(box)
            return
        visit(split[0])
        visit(split[1])
        boxes.append(split[2])

    visit((0, width - 1, 0, width - 1))
    key = np.empty((width, width), dtype=np.int64)
    for i, (n0, n1, m0, m1) in enumerate(boxes):
        key[n0 : n1 + 1, m0 : m1 + 1] = i
    key[0, 0] = len(boxes)
    order = np.argsort(key[np.triu_indices(width)], kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank


def steady_state(p: MasterParams) -> FieldState:
    """Unique steady state of the generator on the window n_lo..n_max.

    Solves L vec(Q) = 0 in the real gauge of _gauge, on the dim(dim+1)/2
    unknowns of the symmetric R (dim the window's width), with one row
    traded for the trace constraint, via sparse LU in the nested-dissection
    order of _dissection_rank. Every check applies the ungauged complex
    stencil, matrix-free, to the state padded with zeros one level below
    n_lo > 0, so a wrong gauge shows. In the window this
    flow is the residual of the one LU solve; its entry (n_lo, n_lo), the
    traded row, is the rate at which probability leaks out. Row and column
    n_lo - 1 are the flow out of the lower edge through loss and absorption,
    which the trace row sees only in part. The result is padded with zeros
    to levels 0..n_max. The checks raise in this order: a residual off the
    trace row (ConvergenceError), then _check_edges' top population (by
    errors.check_tail), trace leak and lower edge (each TruncationError).
    """
    g, red = _folded_generator(p)
    dim = p.width
    # row (0, 0) is redundant because the generator annihilates the trace
    # (up to the edge leaks a window must keep small anyway); trade it for
    # the trace constraint. Unknowns and rows are relabelled by their
    # nested-dissection rank, and SuperLU factors in that column order.
    rank = _dissection_rank(dim)
    keep = g.row != 0
    a = scipy.sparse.coo_matrix(
        (
            np.concatenate((g.data[keep], np.ones(dim))),
            (rank[np.concatenate((g.row[keep], np.zeros(dim, dtype=np.int64)))],
             rank[np.concatenate((g.col[keep], red[np.arange(dim) * (dim + 1)]))]),
        ),
        shape=g.shape,
    ).tocsc()
    del g  # the factorization below sets the peak memory; free the fold first
    b = np.zeros(a.shape[0])
    b[rank[0]] = 1.0
    x = scipy.sparse.linalg.splu(
        a, permc_spec="NATURAL", diag_pivot_thresh=_PIVOT_THRESHOLD
    ).solve(b)

    r = x[rank[red]].reshape(dim, dim)
    q = np.zeros((p.dim, p.dim), dtype=complex)
    q[p.n_lo :, p.n_lo :] = r * _gauge(p)
    lo = max(p.n_lo - 1, 0)  # the checks read the window padded one level below
    pad = p.n_lo - lo
    stencil = _generator_stencil(p, *np.ogrid[lo : p.n_max + 1, lo : p.n_max + 1])
    f = apply_stencil(q[lo:, lo:], stencil)
    inner = np.abs(f[pad:, pad:])
    best = float(inner.max())
    # a residual off the replaced trace row is the solver's; one confined to it is the rate
    # at which probability escapes past the edges, a basis problem that _check_edges reports
    if not best <= _RESIDUAL_TOL and not float(inner.ravel()[1:].max()) <= _RESIDUAL_TOL:
        raise ConvergenceError(f"steady-state residual {best:.3e} above {_RESIDUAL_TOL:.0e}")
    q[p.n_lo :, p.n_lo :] /= float(np.trace(r))
    edge = max(np.abs(f[:pad]).max(initial=0.0), np.abs(f[:, :pad]).max(initial=0.0))
    _check_edges(p, "steady state keeps", float(q[p.n_max, p.n_max].real), best, edge)
    return FieldState(q)


def _trace_leak(p: MasterParams, pn: np.ndarray) -> np.ndarray:
    """Rate n_c rho_ee sin^2(g_tau sqrt(l + 1)) pn[l] at which a cutoff at level l leaks trace."""
    return p.n_c * p.a.rho_ee * np.sin(p.k.g_tau * np.sqrt(np.arange(1.0, pn.size + 1))) ** 2 * pn


def _check_edges(p: MasterParams, what: str, top: float, leak: float, floor: float = 0.0) -> None:
    """The one place a basis is refused by its edges, each by TruncationError, in this order.

    top, the population at n_max, must pass errors.check_tail (its message starts with what),
    and leak, the trace's escape rate, and floor, the flow out of n_lo, stay in _RESIDUAL_TOL.
    """
    check_tail(what, top, p.n_max)
    if not leak <= _RESIDUAL_TOL:
        raise TruncationError(
            f"trace leaks out of levels {p.n_lo}..{p.n_max} at rate {leak:.3e}; enlarge the basis"
        )
    if not floor <= _RESIDUAL_TOL:
        raise TruncationError(
            f"steady state flows out of level n_lo={p.n_lo} at rate {floor:.3e}; "
            "lower the window's edge"
        )


def _balance(n_c: float, a: AtomState, g_tau: float, dephasing: float):
    """F(chi) of the semiclassical gain-loss balance, whose first root _balance_angle finds.

    An atom crossing a quasi-classical field of mean photon number nb
    precesses by chi = 2 sqrt(nb) g_tau and deposits
    (1/2)[z (1 - cos chi) + s c sin chi] photons, with z = 2 rho_ee - 1,
    s = 2|rho_eg| and c = <cos phi> the phase lock of the field to the
    atoms. Equating the beam gain n_c * deposit with the loss 2 nb gives
    F(chi) = kappa [z (1 - cos chi) + s c sin chi] - chi^2, with
    kappa = n_c g_tau^2. The coherent deposit pulls the field's phase phi
    back at the rate k = kappa s sin chi / chi^2 while the pump's phase
    noise spreads it at Gamma_phi / 2, so phi's variance is
    Gamma_phi / (2 k) and c = exp(-Gamma_phi / (4 k)), 1 without dephasing.

    1 - cos chi is evaluated as 2 sin^2(chi/2): at the grid's first point
    the former rounds to 0, which would hide the small-angle gain
    (kappa z / 2 - 1) chi^2 of a dephased beam above threshold.
    """
    kappa = n_c * g_tau * g_tau
    z = 2.0 * a.rho_ee - 1.0
    s = 2.0 * abs(a.rho_eg)

    def f(chi):
        coherent = s * np.sin(chi)
        if dephasing:
            # no coherent deposit, no lock: the exponent is infinite and c is 0
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                c = np.exp(-dephasing * chi * chi / (4.0 * kappa * np.abs(coherent)))
            coherent = coherent * np.nan_to_num(c)
        return kappa * (2.0 * z * np.sin(0.5 * chi) ** 2 + coherent) - chi * chi

    return f


def _balance_angle(n_c: float, a: AtomState, g_tau: float, dephasing: float = 0.0) -> float:
    """Root of the semiclassical gain-loss balance _balance, as a Rabi angle.

    Returns 0 when no positive root exists (no self-sustained field), and
    2 pi when the gain beats the loss up to that angle.
    """
    f = _balance(n_c, a, g_tau, dephasing)
    grid = np.linspace(1e-8, 2.0 * math.pi, 2049)
    vals = f(grid)
    if vals[0] <= 0.0:
        return 0.0
    crossings = np.nonzero(vals <= 0.0)[0]
    if not crossings.size:  # the gain beats the loss at every angle scanned
        return float(grid[-1])
    i = int(crossings[0])
    return _brentq(f, grid[i - 1], grid[i], xtol=1e-12)


# a window's margins, in predicted standard deviations at a Gaussian tail's
# depth and in levels. At the phase-locked field of n_c 1000, g_tau 0.05,
# <n> 250, steady_state's edge-flux rule holds from 8.1 sigma below the
# predicted mean and its tail and leak rules up to 7.2 sigma above it; the
# phase wander's lower tail, a squared Gaussian phase's, is the heavier
_LOWER_SIGMAS = 8.0
_UPPER_SIGMAS = 7.0
_WANDER_SIGMAS = 13.0
_WINDOW_PAD = 10.0
# the restoring rate below which the linear-noise spread is not trusted
_LEAST_RESTORING = 0.04
# the largest n_c g_tau^2 the balance takes
_KAPPA_MAX = 1e300


def _photon_spread(
    n_c: float, a: AtomState, g_tau: float, dephasing: float
) -> tuple[float, float, float]:
    """Predicted <n>, its linear-noise variance, and the variance the pump's phase noise adds.

    The mean is the balance root's photon number plus the noncollective
    mean where that is finite: the balance is what caps the field in the
    saturated and lasing regimes where the small-angle formula blows up.
    The variance is van Kampen's linear-noise result (N. G. van Kampen,
    Stochastic Processes in Physics and Chemistry, ch. X),
    D / (2 |A'|), where A(n) = n_c G(n) - 2n is the drift, G the deposit
    of _balance, so that A'(n) = F'(chi) / chi, and D = 2n + n_c [rho_ee
    sin^2(g_tau sqrt(n + 1)) + rho_gg sin^2(g_tau sqrt n)] counts each
    photon lost and each photon an atom emits or absorbs. That gives the
    thermal field's n(n + 1) below threshold and about n, a Poisson
    field's, where the phase-locked field saturates. It is never below
    the mean, and |A'| never below _LEAST_RESTORING, where the linear
    theory breaks down at threshold. Where _balance's locking rate k is
    positive, the phase noise makes the coherent gain 2 k n cos(phi)
    wander: cos(phi) has the variance (1 - c^2)^2 / 2 of a Gaussian phi,
    c = <cos phi>, and relaxes at 2 k, so the field follows it with the
    variance 2 (k n (1 - c^2))^2 / (|A'| (|A'| + 2 k)).
    """
    check_range("n_c", n_c, 0.0)
    check_range("g_tau", g_tau, 0.0, open_lo=True)
    # _balance's F is n_c g_tau^2 times a deposit of at most 3 in size; past
    # _KAPPA_MAX its scan would overflow, and no beam comes near it
    check_range("n_c * g_tau**2", n_c * g_tau * g_tau, 0.0, _KAPPA_MAX)
    check_range("dephasing", dephasing, 0.0)
    chi = _balance_angle(n_c, a, g_tau, dephasing)
    est = (0.5 * chi / g_tau) ** 2
    try:
        est += mean_n_noncollective(n_c * g_tau * g_tau, a.rho_ee)
    except DivergenceError:
        pass  # lasing regime: the balance root already carries the saturated value
    chi = 2.0 * g_tau * math.sqrt(est)
    h = 1e-6 * chi
    if not 0.0 < h * chi < math.inf:  # no field, or one too weak or strong for the quotient
        return est, est, 0.0
    f = _balance(n_c, a, g_tau, dephasing)
    restoring = max(-float(f(chi + h) - f(chi - h)) / (2.0 * h * chi), _LEAST_RESTORING)
    flips = a.rho_ee * math.sin(g_tau * math.sqrt(est + 1.0)) ** 2
    flips += a.rho_gg * math.sin(g_tau * math.sqrt(est)) ** 2
    var = max(est, (2.0 * est + n_c * flips) / (2.0 * restoring))
    lock = n_c * g_tau * g_tau * 2.0 * abs(a.rho_eg) * math.sin(chi) / (chi * chi)
    if not (dephasing and lock > 0.0):
        return est, var, 0.0
    swing = lock * est * (1.0 - math.exp(-0.5 * dephasing / lock))
    return est, var, 2.0 * swing * swing / (restoring * (restoring + 2.0 * lock))


def _upper_edge(est: float, var: float) -> float:
    """Level above a field of mean est and variance var by _UPPER_SIGMAS of a skewed law.

    A Poisson field's (var = est) is Gaussian. Past that, the law is the
    gamma law with the skewness 2 (var / est - 1) / sqrt(var) a negative
    binomial's super-Poissonian part has, capped at the exponential law's
    2, a thermal field's. Its quantile at the Gaussian tail of
    _UPPER_SIGMAS is Wilson and Hilferty's cube (Proc. Natl. Acad. Sci.
    17, 684 (1931)). _WINDOW_PAD levels are added.
    """
    sd = math.sqrt(var)
    top = est + _UPPER_SIGMAS * sd + _WINDOW_PAD
    if var > est:
        root = max(sd / (var / est - 1.0), 1.0)  # the square root of the gamma law's shape
        cube = (1.0 - 1.0 / (9.0 * root * root) + _UPPER_SIGMAS / (3.0 * root)) ** 3
        top = est + sd * root * (cube - 1.0) + _WINDOW_PAD
    if not top < 2.0**53:  # a level no float resolves, or no number at all
        raise ResourceError(f"window top {top:.3e} lies past float resolution; no basis holds it")
    return top


def _window_edges(n_c: float, a: AtomState, g_tau: float, dephasing: float) -> tuple[int, int]:
    """Window n_lo..n_max sized by the photon-number spread _photon_spread predicts.

    The lower edge lies _LOWER_SIGMAS standard deviations of the linear
    noise and _WANDER_SIGMAS of the phase wander, added in quadrature, and
    _WINDOW_PAD levels below the predicted mean; the upper one is
    _upper_edge's. Where the coherent deposit is a gain, the pump's phase
    noise only takes gain away, so the field it spreads reaches no higher
    than the undephased field: the upper edge leaves the wander out and is
    at least the undephased field's. Where that deposit absorbs, sin chi
    < 0, the phase noise takes absorption away, and the field can rise as
    far as the random-phase field of rho_eg = 0: the edge is at least that
    field's too.
    """
    est, var, wander = _photon_spread(n_c, a, g_tau, dephasing)
    top = _upper_edge(est, var)
    if dephasing:
        top = max(top, suggest_n_max(n_c, a, g_tau))
        if math.sin(2.0 * g_tau * math.sqrt(est)) < 0.0:
            top = max(top, suggest_n_max(n_c, AtomState(a.rho_ee, 0.0), g_tau))
    spread = math.hypot(_LOWER_SIGMAS * math.sqrt(var), _WANDER_SIGMAS * math.sqrt(wander))
    return math.floor(max(0.0, est - spread - _WINDOW_PAD)), math.ceil(top)


def suggest_n_max(n_c: float, a: AtomState, g_tau: float) -> int:
    """Fock cutoff estimate without pump phase noise: the top of _window_edges' window.

    It reaches about seven standard deviations of the predicted photon
    number above its mean, more for a super-Poissonian field, and ten levels.
    """
    return math.ceil(_upper_edge(*_photon_spread(n_c, a, g_tau, 0.0)[:2]))


def steady_state_auto(
    n_c: float,
    a: AtomState,
    k: KickParams,
    n_max: int | None = None,
    dephasing: float = 0.0,
) -> FieldState:
    """Steady state with automatic window choice and doubling on tail failure.

    A phase-averaged atom (rho_eg = 0) leaves the steady state diagonal,
    where detailed balance gives it exactly: each attempt is
    analytic.pn_random_phase on the full basis, and it must pass that
    recursion's estimate of the mass past the cutoff and _check_edges'
    upper-edge rules, the top level's population and the trace-leak rate,
    so steady_state accepts the same cutoff. dephasing has no effect,
    since (n - m)^2 vanishes on the diagonal, and without n_max such an
    atom starts at suggest_n_max, clipped to the guard's largest cutoff.
    Any other atom is solved by steady_state's LU on _window_edges' window,
    sized by the photon-number spread predicted at this dephasing: from
    about eight standard deviations below the predicted mean (or from the
    vacuum, when that reaches it) to about seven above it. A given n_max,
    at least 1, is solved on the full basis. A truncation on a window
    above the vacuum re-solves once on the full basis at the same cutoff,
    since either edge may have failed; on the full basis a truncation
    doubles the cutoff. Doubling is clipped to the largest cutoff the guard
    allows, n_max = DEFAULT_MAX_DIM - 1, so the search gives up only once
    that cutoff has failed. dephasing is MasterParams'.
    """
    if n_max is not None:
        check_range("n_max", n_max, 1, integer=True)
        lo, cur = 0, max(n_max, 2)
    elif a.rho_eg != 0:
        lo, cur = _window_edges(n_c, a, k.g_tau, dephasing)
    else:  # the recursion runs up from the vacuum; clip its start as doubling is
        lo, cur = 0, min(suggest_n_max(n_c, a, k.g_tau), DEFAULT_MAX_DIM - 1)
    while True:
        try:
            p = MasterParams(n_c, k, a, cur, lo, dephasing)
            if a.rho_eg != 0:
                return steady_state(p)
            _check_guard(p)
            pn = pn_random_phase(n_c, a.rho_ee, k.g_tau, cur)
            _check_edges(p, "steady state keeps", float(pn[-1]), float(_trace_leak(p, pn)[-1]))
            return FieldState(np.diag(pn))
        except TruncationError:
            if lo > 0:
                lo = 0
            elif cur < DEFAULT_MAX_DIM - 1:
                cur = min(2 * cur, DEFAULT_MAX_DIM - 1)
            else:
                raise


def _held_cutoff(p: MasterParams, s: FieldState) -> int:
    """Smallest cutoff whose levels up to s's hold s by steady_state's upper-edge rules.

    Returns the least L such that every level l from L to s.n_max keeps
    the steady population s[l, l] within errors.TAIL_TOL and its trace-leak
    rate n_c rho_ee sin^2(g_tau sqrt(l + 1)) s[l, l] within _RESIDUAL_TOL:
    each is what steady_state checks at its top level, and checking every
    level above L keeps a non-monotone tail from passing one level only.
    p supplies the pump; L is clipped to s.n_max.
    """
    pn = photon_distribution(s)
    refused = np.flatnonzero(~((pn <= TAIL_TOL) & (_trace_leak(p, pn) <= _RESIDUAL_TOL)))
    # a unit-trace state keeps more than TAIL_TOL on some level, so one is refused
    return min(int(refused[-1]) + 1, s.n_max)


# DOP853's step and its two error terms as polynomials in z = h G, for
# y' = G y (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10). On a
# linear autonomous system each stage h k_i of the tableau is P_i(z) y, with
# P_i = z (1 + sum_j A[i, j] P_j), so P_i has degree i + 1. Row 0 is the step
# y_new = R(z) y, R = 1 + sum_i B[i] P_i, of degree 12 and equal to exp(z)
# through z^8; rows 1 and 2 are the embedded error terms h err5 and h err3,
# sums over the stages and the first-same-as-last stage z R(z), which the
# tableau weights 0, so they have degree 12 too. Column j holds the
# coefficient of z^j, j = 0..13: the next step's derivative z R(z) y reads
# the basis up to z^13. The literals are the shortest reprs of the doubles
# this recursion gives on the tableau of scipy's DOP853 class;
# tests/test_steady.py derives them again from that tableau and compares
# them exactly.
_DOP853 = np.array([
    [1.0, 1.0000000000000004, 0.49999999999999956, 0.16666666666666724,
     0.04166666666666692, 0.008333333333333576, 0.0013888888888889156,
     0.00019841269841269895, 2.480158730158748e-05, 2.6916922001691e-06,
     2.3413451082097818e-07, 1.4947364854591543e-08, 3.613324578128244e-10, 0.0],
    [0.0, -1.1796119636642288e-16, 5.898059818321144e-17, -7.294512216482474e-16,
     1.1615057873837209e-15, 3.5453411040275995e-17, -1.3495284686596729e-05,
     1.9334654633240663e-08, 2.425572283573909e-07, -3.986199671840648e-08,
     -2.4840232758051564e-08, -5.179991027569355e-09, -1.806662289064122e-10, 0.0],
    [0.0, 2.7755575615628914e-16, 3.0531133177191805e-16, 4.2327252813834093e-16,
     0.004202279202280007, 0.0019128497333627474, 0.0004618663214840214,
     9.203663915338108e-05, 1.4960035021054483e-05, 1.9783991013752843e-06,
     1.6968469610869003e-07, 8.82069232633511e-09, 1.8306229103919414e-10, 0.0],
])

# the tolerances and step-size controller of scipy's DOP853 class
_RTOL, _ATOL = 1e-8, 1e-12
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


def _power_basis(g: scipy.sparse.csr_matrix, y: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """Rows W[j] = (h g)^j y, j = 0..13, for y with g y = f: one matvec per power past the first."""
    w = np.empty((_DOP853.shape[1], y.size))
    w[0], w[1] = y, h * f
    for j in range(2, w.shape[0]):
        w[j] = g @ w[j - 1]
        w[j] *= h
    return w


def _error_norm(e5: np.ndarray, e3: np.ndarray) -> float:
    """DOP853's error norm of a step from its error terms h err5, h err3 over the tolerance scale."""
    n5, n3 = float(e5 @ e5), float(e3 @ e3)
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return n5 / math.sqrt((n5 + 0.01 * n3) * e5.size)


def _dop853(g: scipy.sparse.csr_matrix, y: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Solution of y' = g y at the increasing times from times[0] = 0, one row per time.

    DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10) under
    the controller of scipy's DOP853 class: its tolerances, error norm and
    step factors. On the constant g a step of size h is the polynomial
    _DOP853[0] in z = h g, whose literal coefficients a test derives again
    from scipy's tableau, so each step builds the basis W[j] = z^j y once
    and takes every trial as a small weighted sum of its rows. A rejected
    trial at h' = rho h only weights W[j] by rho^j, at no matvec, so the
    first trial is the whole span and no initial-step estimate is needed;
    each time sampled inside an accepted step is the same step polynomial
    at the partial step, again at no matvec; and the next step's g y_new is
    sum_j R_j rho^j W[j + 1] / h, so an accepted step costs the 12 matvecs
    of W[2..13] and the first one a further g y: 1 + 12 per accepted step
    in all. A step-size underflow or a non-finite error norm raises
    ConvergenceError.
    """
    powers = np.arange(_DOP853.shape[1])
    out = np.empty((times.size, y.size))
    out[0] = y
    t, t_end, i = 0.0, float(times[-1]), 1
    f = g @ y
    h = t_end
    while t < t_end:
        min_step = 10.0 * (np.nextafter(t, math.inf) - t)
        h = max(h, min_step)
        t_new = min(t + h, t_end)
        h = built = t_new - t
        w = _power_basis(g, y, f, h)
        rejected = False
        while True:
            c = _DOP853 * (h / built) ** powers
            y_new, e5, e3 = c @ w
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            err = _error_norm(e5 / scale, e3 / scale)
            if not math.isfinite(err):
                raise ConvergenceError(f"transient integration failed: error norm {err} at t={t}")
            if err < 1.0:
                break
            h *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            rejected = True
            if not h >= min_step:
                raise ConvergenceError(
                    f"transient integration failed: step {h:.3e} below {min_step:.3e} at t={t}"
                )
            t_new = t + h
            h = t_new - t
        end = int(np.searchsorted(times, t_new, side="right"))
        rho = (times[i:end] - t) / built
        out[i:end] = (_DOP853[0] * rho[:, None] ** powers) @ w
        i = end
        f = c[0, :-1] @ w[1:] / built
        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
        h *= min(1.0, factor) if rejected else factor
        t, y = t_new, y_new
    return out


def evolve(
    p: MasterParams, q0: FieldState, t_end: float
) -> tuple[np.ndarray, list[FieldState]]:
    """Transient of the master equation from q0 for a time t_end (1/gamma_c).

    Integrates the generator on the same real state as steady_state: the
    dim(dim+1)/2 entries R[n, m], n <= m, of the real symmetric R with
    Q = u * R in the gauge of _gauge. The generator preserves that form, so
    q0 must have it too (the vacuum, any Fock mixture, a steady state of
    the same atoms); any other q0 raises ValueError. The scheme is
    _dop853: DOP853 with scipy's step control, rtol 1e-8 and atol 1e-12,
    taken as its step polynomial on powers of the constant generator. An
    accepted step costs 12 sparse matvecs (the first 13), a rejected trial
    and a sample none, and each sample is a full-order step to its time,
    not an interpolant. Returns 81 evenly spaced times and the state at
    each, renormalized to unit trace. It raises TruncationError if the
    largest population each level reaches over the samples fails
    _check_edges' top-population or trace-leak rule, and ConvergenceError
    if the integration fails.
    """
    if p.n_lo != 0:
        raise ValueError(f"evolve runs on the full basis, got n_lo={p.n_lo}")
    if q0.dim != p.dim:
        raise ValueError(f"q0 has dim {q0.dim}, params expect {p.dim}")
    check_range("t_end", t_end, 0.0)
    if t_end == 0.0:
        return np.zeros(1), [q0]
    g, red = _folded_generator(p)
    u = _gauge(p)
    r0 = q0.q * u.conj()
    off = max(float(np.abs(r0.imag).max()), float(np.abs(r0 - r0.T).max()))
    if not off <= 1e-12 * abs(np.trace(q0.q)):
        raise ValueError(
            f"q0 is not real symmetric in the gauge of the generator (off by "
            f"{off:.3e}); interaction.kick_sequence takes any state"
        )
    times = np.linspace(0.0, t_end, 81)
    states = []
    for y in _dop853(g.tocsr(), r0.real[np.triu_indices(p.dim)], times):
        r = y[red].reshape(p.dim, p.dim)
        states.append(FieldState(r * u / float(np.trace(r))))
    top = np.max([photon_distribution(s) for s in states], axis=0)
    _check_edges(p, "transient reaches", float(top[-1]), float(_trace_leak(p, top)[-1]))
    return times, states
