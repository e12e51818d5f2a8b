"""Run configurations, parameter sweeps, the pipeline behind each CLI command,
figure presets, and file output.

This is the only module that touches physical units end to end: a RunConfig
carries rates in rad/s and times in seconds, and every derived quantity
(n_c, g_tau, mean intracavity atom number) is computed here once. Sweep
outputs go to CSV files with the fixed column set

    axis, mean_n, collective_part, baseline

plus a sibling .meta.json carrying full parameter provenance. Files contain
no timestamps, so a rerun with the same configuration is byte identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from ._version import __version__
from . import analytic, dicke, steady
from .atom import AtomState, dephase, prepare
from .errors import CavsrError, ResourceError, TruncationError, check_range
from .hilbert import FieldState, coherent_amplitudes, fidelity_to_coherent, mean_photon
from .hilbert import photon_distribution, vacuum
from .interaction import KickParams, bunched_mean_n, kick_sequence, lossless_sequence
from .steady import MasterParams, evolve, steady_state_auto, suggest_n_max
from .trajectory import INJECTIONS, TrajectoryConfig, run_ensemble

__all__ = [
    "RunConfig",
    "SweepResult",
    "load_config",
    "load_json_object",
    "config_dict",
    "sweep_pump",
    "sweep_atoms",
    "fit_loglog_slope",
    "write_sweep",
    "read_sweep",
    "steady_distribution",
    "pump_response",
    "atom_scaling",
    "lossless_emission",
    "transient_buildup",
    "trajectory_ensemble",
    "collective_rates",
    "closed_forms",
    "predicted_alpha",
    "preset",
    "PRESET_NAMES",
]

_FLUX = ("r", "n_mean", "n_c")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One experiment's physical parameters.

    Exactly one of r (atoms/s), n_mean (mean atoms inside the cavity), or
    n_c (atoms per field decay time) fixes the beam flux; the other two
    follow from n_c = n_mean / (gamma_c * tau) = r / gamma_c. t_end is in
    units of 1/gamma_c. Every kind and range is checked here, so no command
    runs on a value another would refuse.
    """

    g: float
    gamma_c: float
    tau: float
    theta: float
    phi: float = 0.0
    transit_dephase: float = 1.0
    r: float | None = None
    n_mean: float | None = None
    n_c: float | None = None
    injection: str = "poisson"
    linewidth: float = 0.0
    n_max: int | None = None
    t_end: float | None = None
    seed: int = 0
    n_trajectories: int = 500

    def __post_init__(self) -> None:
        given = [n for n in _FLUX if getattr(self, n) is not None]
        if len(given) != 1:
            raise ValueError(
                f"exactly one of r, n_mean, n_c must be given, got {given or 'none'}"
            )
        # JSON and argparse both read NaN and infinities as floats
        for name in ("g", "gamma_c", "tau", given[0]):
            check_range(name, getattr(self, name), 0.0, open_lo=True)
        check_range("transit_dephase", self.transit_dephase, 0.0, 1.0)
        if self.injection not in INJECTIONS:
            raise ValueError(f"injection must be one of {INJECTIONS}, got {self.injection!r}")
        for name, least in (("theta", 0), ("phi", -math.inf), ("linewidth", 0)):
            check_range(name, getattr(self, name), least)
        for name, least in (("n_trajectories", 2), ("seed", 0)):
            check_range(name, getattr(self, name), least, integer=True)
        # None leaves these unset
        if self.t_end is not None:
            check_range("t_end", self.t_end, 0.0)
        if self.n_max is not None:
            check_range("n_max", self.n_max, 1, integer=True)

    @property
    def g_tau(self) -> float:
        return self.g * self.tau

    @property
    def derived_n_c(self) -> float:
        if self.n_c is not None:
            return self.n_c
        if self.n_mean is not None:
            return self.n_mean / (self.gamma_c * self.tau)
        return self.r / self.gamma_c

    @property
    def derived_r(self) -> float:
        return self.derived_n_c * self.gamma_c

    @property
    def derived_n_mean(self) -> float:
        return self.derived_n_c * self.gamma_c * self.tau

    @property
    def duration(self) -> float:
        """t_end, or 8 field decay times when it is unset."""
        return self.t_end if self.t_end is not None else 8.0

    @property
    def dephasing(self) -> float:
        """Field phase-diffusion rate of a pump of FWHM linewidth Hz, in units of gamma_c."""
        return 2.0 * math.pi * self.linewidth / self.gamma_c

    def atom(self) -> AtomState:
        return dephase(prepare(self.theta, self.phi), self.transit_dephase)

    def kick(self) -> KickParams:
        return KickParams(self.g_tau)


def _replace(cfg: RunConfig, changes: dict) -> RunConfig:
    """cfg with changes; a flux among them replaces, not joins, cfg's."""
    if changes.keys() & set(_FLUX):
        changes = {**dict.fromkeys(_FLUX), **changes}
    return dataclasses.replace(cfg, **changes)


def config_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_json_object(path: str) -> dict:
    """The JSON object in the file at path: a config, or a preset's overrides."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(raw).__name__}")
    return raw


def load_config(path: str) -> RunConfig:
    raw = load_json_object(path)
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {', '.join(unknown)}")
    try:
        return RunConfig(**raw)
    except TypeError as exc:
        raise ValueError(f"bad config {path}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class SweepResult:
    axis: np.ndarray
    mean_n: np.ndarray
    baseline: np.ndarray
    metadata: dict
    # what the curve adds over its baseline
    collective_part: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        object.__setattr__(self, "axis", axis)
        for name in ("mean_n", "baseline"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != axis.shape:
                raise ValueError(f"{name} length {v.shape} does not match axis {axis.shape}")
            object.__setattr__(self, name, v)
        if axis.size == 0:
            raise ValueError("sweep axis is empty")
        if not np.all(np.diff(axis) > 0.0):
            raise ValueError("sweep axis must be strictly increasing")
        object.__setattr__(self, "collective_part", self.mean_n - self.baseline)


def _base_metadata(cfg: RunConfig, axis_label: str, swept: str | None = None) -> dict:
    """One curve's provenance.

    Overlapping transits (mean intracavity atom number above 1) are noted
    once, unless the swept field sets the flux: then the sweep notes each
    such point.
    """
    notes = []
    if swept not in _FLUX and cfg.derived_n_mean > 1.0:
        notes.append(f"mean intracavity atom number {cfg.derived_n_mean:.3g} exceeds 1")
    return {
        "axis": axis_label,
        "code_version": __version__,
        "config": config_dict(cfg),
        "derived": {
            "g_tau": cfg.g_tau,
            "n_c": cfg.derived_n_c,
            "n_mean": cfg.derived_n_mean,
            "r": cfg.derived_r,
        },
        "seed": cfg.seed,
        "annotations": notes,
    }


def _steady(cfg: RunConfig) -> FieldState:
    """The config's master-equation steady state, pump phase noise included."""
    # through this module's global, so that a wrapper set there sees every solve
    return steady_state_auto(
        cfg.derived_n_c, cfg.atom(), cfg.kick(), n_max=cfg.n_max, dephasing=cfg.dephasing
    )


def _steady_mean(cfg: RunConfig) -> tuple[float, int | None, str | None]:
    """Steady <n> for one parameter point; failures become annotations."""
    try:
        s = _steady(cfg)
        return mean_photon(s), s.n_max, None
    except CavsrError as exc:
        return math.nan, None, f"{type(exc).__name__}: {exc}"


def _solve_curve(
    cfg: RunConfig, axis_label: str, name: str, values: np.ndarray, axis: np.ndarray | None = None
) -> SweepResult:
    """Steady <n> plus its random-phase baseline with cfg's field `name` at each value.

    The curve is plotted against axis, the values themselves unless given.
    The baseline is the same point with transit_dephase = 0, the
    random-phase pump, whose diagonal steady state steady_state_auto takes
    from the detailed-balance recursion, on a cutoff that steady_state's LU
    accepts too. Failures are annotated under the point's label.
    """
    meta = _base_metadata(cfg, axis_label, swept=name)
    meta["baseline"] = "random-phase (rho_eg = 0) steady state at matching rho_ee"
    mean, base = np.empty((2, len(values)))
    used = []
    for i, v in enumerate(values):
        point = _replace(cfg, {name: float(v)})
        label = f"{name}={v:.6g}"
        mean[i], n_used, err = _steady_mean(point)
        base[i], _, err0 = _steady_mean(dataclasses.replace(point, transit_dephase=0.0))
        used.append(n_used)
        for e in (err, err0):
            if e:
                meta["annotations"].append(f"{label}: {e}")
        if name in _FLUX and point.derived_n_mean > 1.0:
            meta["annotations"].append(
                f"{label}: mean intracavity atom number "
                f"{point.derived_n_mean:.3g} exceeds 1; transits overlap"
            )
    meta["n_max_used"] = used
    return SweepResult(values if axis is None else axis, mean, base, meta)


def sweep_pump(cfg: RunConfig, theta_grid: np.ndarray) -> SweepResult:
    """Steady <n> versus pump pulse area, with the random-phase baseline.

    The baseline is the same master equation's steady state with the
    coherence zeroed at matching excited population, exact by detailed
    balance (analytic.pn_random_phase), so collective_part isolates what
    atomic phase alignment adds.
    """
    return _solve_curve(cfg, "pump pulse area theta [rad]", "theta", np.asarray(theta_grid, float))


def sweep_atoms(cfg: RunConfig, n_grid: np.ndarray) -> SweepResult:
    """Steady <n> versus excited-state atom number n_mean * rho_ee.

    The grid values are excited-atom numbers; beam flux for each point
    follows from n_c = n_mean / (gamma_c tau). collective_part subtracts the
    random-phase baseline, the quantity whose growth turns quadratic.
    """
    grid = np.asarray(n_grid, dtype=float)
    if not np.all(grid > 0.0):
        raise ValueError("atom-number grid must be positive")
    rho_ee = cfg.atom().rho_ee
    if not rho_ee > 0.0:
        raise ValueError("excited-atom axis undefined for rho_ee = 0")
    nc_values = grid / rho_ee / (cfg.gamma_c * cfg.tau)
    return _solve_curve(cfg, "excited-state atom number n_mean * rho_ee", "n_c", nc_values, grid)


def fit_loglog_slope(
    x: np.ndarray, y: np.ndarray, window: tuple[int, int] | slice
) -> tuple[float, float]:
    """Least-squares slope of log y against log x over an index window."""
    if isinstance(window, tuple):
        window = slice(*window)
    xs = np.asarray(x, dtype=float)[window]
    ys = np.asarray(y, dtype=float)[window]
    if not xs.size >= 3:
        raise ValueError(f"need at least 3 points in the window, got {xs.size}")
    if not (np.all(xs > 0.0) and np.all(ys > 0.0)):
        raise ValueError("log-log fit needs strictly positive data in the window")
    lx = np.log(xs)
    ly = np.log(ys)
    lx_c = lx - np.mean(lx)
    sxx = float(lx_c @ lx_c)
    if not sxx > 0.0:
        raise ValueError("window has no x spread")
    slope = float(lx_c @ (ly - np.mean(ly))) / sxx
    resid = ly - np.mean(ly) - slope * lx_c
    dof = xs.size - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def write_sweep(res: SweepResult, out_dir: str, stem: str) -> tuple[str, str]:
    """Emit stem.csv and stem.meta.json; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    meta_path = os.path.join(out_dir, f"{stem}.meta.json")
    lines = ["axis,mean_n,collective_part,baseline"]
    for i in range(res.axis.size):
        lines.append(
            f"{res.axis[i]:.17g},{res.mean_n[i]:.17g},"
            f"{res.collective_part[i]:.17g},{res.baseline[i]:.17g}"
        )
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(res.metadata, indent=2, sort_keys=True) + "\n")
    return csv_path, meta_path


def read_sweep(csv_path: str) -> SweepResult:
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    meta_path = csv_path.rsplit(".", 1)[0] + ".meta.json"
    meta = load_json_object(meta_path) if os.path.exists(meta_path) else {}
    return SweepResult(data[:, 0], data[:, 1], data[:, 3], meta)


# ---------------------------------------------------------------------------
# command pipelines shared by presets and the CLI: each returns the sweep to
# write and the summary numbers to print, or the summary alone


def steady_distribution(cfg: RunConfig) -> tuple[SweepResult, dict]:
    """Steady photon distribution p_n against the Poisson law at the predicted amplitude."""
    s = _steady(cfg)
    alpha = predicted_alpha(cfg)
    p_n = photon_distribution(s)
    pois = np.abs(coherent_amplitudes(alpha, s.n_max)) ** 2
    meta = _base_metadata(cfg, "photon number n")
    meta["baseline"] = "Poisson distribution at the predicted coherent amplitude"
    meta["n_max_used"] = s.n_max
    summary = {
        "mean_n": mean_photon(s),
        "purity": float(np.vdot(s.q, s.q).real),
        "predicted_alpha": alpha,
        "n_max_used": s.n_max,
    }
    try:
        summary["fidelity_to_predicted_alpha"] = fidelity_to_coherent(s, alpha)
    except CavsrError as exc:
        # the linear coherent prediction can exceed the basis when the real
        # state saturates far below it; report that instead of failing
        summary["fidelity_to_predicted_alpha"] = None
        summary["fidelity_note"] = f"{type(exc).__name__}: {exc}"
    return SweepResult(np.arange(float(s.dim)), p_n, pois, meta), summary


def pump_response(
    cfg: RunConfig, theta_max: float = 1.25 * math.pi, points: int = 51
) -> tuple[SweepResult, dict]:
    """sweep_pump on `points` pulse areas from 0 to theta_max, and where <n> and its baseline peak.

    A grid past theta = pi is annotated: there the measured curves leave
    the ideal pump this model keeps.
    """
    check_range("theta_max", theta_max)
    check_range("points", points, 1, integer=True)
    res = sweep_pump(cfg, np.linspace(0.0, float(theta_max), points))
    if res.axis[-1] > math.pi:
        res.metadata["annotations"].append(
            "beyond theta = pi the model keeps the ideal pump; measured curves "
            "are known to deviate there from stray-pump effects not modeled here"
        )
    i_peak = int(np.nanargmax(res.mean_n))
    return res, {
        "points": int(res.axis.size),
        "theta_peak": float(res.axis[i_peak]),
        "mean_n_peak": float(res.mean_n[i_peak]),
        "theta_peak_baseline": float(res.axis[int(np.nanargmax(res.baseline))]),
    }


def atom_scaling(
    cfg: RunConfig,
    grid_min: float = 0.02,
    grid_max: float = 2.5,
    points: int = 25,
    linear: bool = False,
) -> tuple[SweepResult, dict]:
    """sweep_atoms on `points` excited-atom numbers from grid_min to grid_max, and its power law.

    The grid is logarithmic unless linear is set. collective_slope is the
    log-log slope of collective_part over its positive points, 2 for the
    paper's N^2 growth, with its standard error; both are NaN with fewer
    than three such points.
    """
    # refused here, before np.geomspace warns on a logarithm of a non-positive edge
    check_range("grid_min", grid_min, 0.0, open_lo=True)
    check_range("grid_max", grid_max, 0.0, open_lo=True)
    check_range("points", points, 1, integer=True)
    space = np.linspace if linear else np.geomspace
    res = sweep_atoms(cfg, space(float(grid_min), float(grid_max), points))
    good = np.isfinite(res.collective_part) & (res.collective_part > 0.0)
    slope = stderr = math.nan
    if np.count_nonzero(good) >= 3:
        slope, stderr = fit_loglog_slope(res.axis[good], res.collective_part[good], slice(None))
    return res, {
        "points": int(res.axis.size),
        "mean_n_final": float(res.mean_n[-1]),
        "collective_final": float(res.collective_part[-1]),
        "collective_slope": slope,
        "slope_stderr": stderr,
    }


def lossless_emission(cfg: RunConfig, atoms: int = 20) -> tuple[SweepResult, dict]:
    """<n> after each of `atoms` sequential atoms with no cavity loss.

    The baseline is the same number of atoms crossing the cavity together.
    last_increment_over_average, the last atom's <n> increment over the mean
    per atom, is 2 for N^2 growth, 1 for one atom, NaN when nothing is emitted.
    """
    check_range("atoms", atoms, 1, integer=True)
    k = cfg.kick()
    # the bunched baseline refuses too many atoms before the queue runs
    bunched = np.array([bunched_mean_n(j, cfg.theta, cfg.phi, k) for j in range(1, atoms + 1)])
    trace = np.array(lossless_sequence([cfg.atom()] * atoms, k))
    meta = _base_metadata(cfg, "atom index")
    meta["baseline"] = "same number of atoms crossing the lossless cavity together"
    res = SweepResult(np.arange(1.0, atoms + 1.0), trace, bunched, meta)
    last = np.diff(trace, prepend=0.0)[-1]
    return res, {
        "atoms": atoms,
        "final_mean_n": float(trace[-1]),
        "final_bunched": float(bunched[-1]),
        "last_increment_over_average": float(last / (trace[-1] / atoms))
        if trace[-1] > 0.0
        else math.nan,
    }


def transient_buildup(cfg: RunConfig) -> tuple[SweepResult, dict]:
    """<n>(t) from the vacuum over cfg.duration (1/gamma_c), for cfg's injection.

    A Poisson beam integrates the master equation, against the steady <n>,
    on the fewest levels that hold that steady state by steady_state's
    upper-edge rules (steady._held_cutoff), not on the steady search's
    cutoff: the Krylov basis a sample interval needs grows with the
    generator's spectral radius, which the top levels set. The field rises
    from the vacuum towards that state, so those levels hold the buildup
    too; where evolve's tail check says otherwise, the integration runs
    once more on the steady cutoff. The sidecar records the cutoff used as n_max_used, and as
    evolve_work that run's Krylov runs and matvecs.

    A regular beam sends atoms 1/n_c apart through the exact map, one point
    per atom, against the lossless stepwise emission after the same number
    of atoms; that map has no pump phase noise, so it refuses a linewidth,
    and it has no steady state of its own to report. It runs on the Poisson
    beam's steady cutoff, which its sidecar records as n_max_used too.
    """
    a, k, n_c = cfg.atom(), cfg.kick(), cfg.derived_n_c
    t_end = cfg.duration
    meta = _base_metadata(cfg, "time [1/gamma_c]")
    if cfg.injection == "regular":
        if cfg.linewidth != 0.0:
            raise ValueError(f"linewidth must be 0 for a regular beam, got {cfg.linewidth}")
        delta = 1.0 / n_c
        atoms = [a] * math.floor(t_end / delta + 1e-9)
        # the lossless baseline's basis holds levels 0..N+1; read the guard
        # at call time, so that a caller's change to it holds
        if not len(atoms) + 2 <= steady.DEFAULT_MAX_DIM:
            raise ResourceError(
                f"{len(atoms)} atoms need a {len(atoms) + 2}-level lossless baseline, "
                f"past the solver guard ({steady.DEFAULT_MAX_DIM})"
            )
        # the Poisson beam's cutoff, not suggest_n_max's: the search can
        # double past the suggestion, and the regular beam's <n> stays below
        # the Poisson beam's, so this basis holds it where the suggestion may not
        q0 = vacuum(_steady(cfg).n_max)
        times = np.arange(len(atoms) + 1) * delta
        mean = np.array([0.0] + kick_sequence(q0, atoms, k, delta))
        baseline = np.array([0.0] + lossless_sequence(atoms, k))
        meta["baseline"] = "lossless stepwise emission after the same number of atoms"
        meta["n_max_used"] = q0.n_max
        summary = {"mode": "discrete-regular"}
    else:
        s_ss = _steady(cfg)
        p = MasterParams(n_c, k, a, s_ss.n_max, dephasing=cfg.dephasing)
        # the levels that hold the steady state, and once more on the steady
        # cutoff if the transient overshoots them on its way up
        for n_max in (steady._held_cutoff(p, s_ss), s_ss.n_max):
            try:
                times, states = evolve(dataclasses.replace(p, n_max=n_max), vacuum(n_max), t_end)
                break
            except TruncationError:
                if n_max == s_ss.n_max:
                    raise
        mean = states.populations() @ np.arange(n_max + 1)
        baseline = np.full(mean.shape, mean_photon(s_ss))
        meta["baseline"] = "steady-state mean photon number"
        meta["n_max_used"] = n_max
        meta["evolve_work"] = states.work
        summary = {"mode": "coarse-ode", "steady_mean_n": mean_photon(s_ss)}
    summary |= {"t_end": t_end, "final_mean_n": float(mean[-1])}
    return SweepResult(times, mean, baseline, meta), summary


def trajectory_ensemble(cfg: RunConfig) -> tuple[SweepResult, dict]:
    """Ensemble-mean <n>(t) of the quantum-jump engine against the master-equation floor.

    Both run on the cutoff the floor's search from cfg.n_max accepted, recorded as n_max_used.
    """
    s = _steady(cfg)
    ens = run_ensemble(TrajectoryConfig(  # in seconds
        r=cfg.derived_r, gamma_c=cfg.gamma_c, g=cfg.g, tau=cfg.tau, theta=cfg.theta, n_max=s.n_max,
        injection=cfg.injection, linewidth=cfg.linewidth, transit_dephase=cfg.transit_dephase,
        t_end=cfg.duration / cfg.gamma_c, seed=cfg.seed, n_trajectories=cfg.n_trajectories,
    ))
    floor = mean_photon(s)
    meta = _base_metadata(cfg, "time [1/gamma_c]")
    meta["baseline"] = "master-equation steady state"
    meta["n_max_used"] = s.n_max
    meta["trajectory"] = ens.metadata
    res = SweepResult(ens.times * cfg.gamma_c, ens.mean_n, np.full(ens.mean_n.shape, floor), meta)
    summary = {
        "steady_mean_n": ens.steady_mean_n,
        "steady_stderr": ens.steady_stderr,
        "jump_rate": ens.jump_rate,
        "jump_rate_stderr": ens.jump_rate_stderr,
        "master_steady_mean_n": floor,
        "n_trajectories": cfg.n_trajectories,
    }
    return res, summary


def collective_rates(cfg: RunConfig, atoms: int, m: float | None = None) -> dict:
    """Emission rates of `atoms` product atoms prepared by the config's pulse.

    With m, also the rate of the symmetric level |J = atoms/2, M = m>. The
    direct 2^N check is skipped, with a note, above MAX_BRUTE_FORCE_ATOMS.
    """
    spec = dicke.EnsembleSpec.from_pulse(atoms, cfg.theta, cfg.phi)
    a = spec.atom_state()
    out = {
        "atoms": atoms,
        "ensemble_rate": dicke.ensemble_rate(atoms, a),
        "independent_rate": atoms * a.rho_ee,
        "weights": np.abs(dicke.decompose_product_state(spec)) ** 2,
    }
    if m is not None:
        out["dicke_rate"] = dicke.dicke_rate(atoms, m)
        out["m"] = m
    try:
        out["brute_force_rate"] = dicke.brute_force_rate(spec)
    except ResourceError:
        out["brute_force_rate"] = None
        out["note"] = f"direct 2^N check skipped above {dicke.MAX_BRUTE_FORCE_ATOMS} atoms"
    return out


def _value_or_error(closed_form, *args):
    """closed_form(*args), or the error's text where it has no value."""
    try:
        return closed_form(*args)
    except (CavsrError, ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def closed_forms(cfg: RunConfig) -> dict:
    """Every closed-form prediction at the config's point.

    One with no value there (divergent, or outside its range) is reported
    as its error's text, so the others still come back.
    """
    a, n_c, g_tau = cfg.atom(), cfg.derived_n_c, cfg.g_tau
    n_eff = analytic.n_eff(cfg.injection, n_c)
    return {
        "n_c": n_c,
        "g_tau": g_tau,
        "rho_ee": a.rho_ee,
        "rho_eg": a.rho_eg,
        "predicted_alpha": predicted_alpha(cfg),
        "n_eff": n_eff,
        "emission_rate_per_atom": analytic.emission_rate_per_atom(n_eff, a, cfg.g, cfg.tau),
        "beta_factors": _value_or_error(analytic.beta_factors, n_c, a, g_tau),
        "mean_n_total": _value_or_error(analytic.mean_n_total, n_c, a, g_tau),
        "mean_n_noncollective": _value_or_error(
            analytic.mean_n_noncollective, n_c * g_tau**2, a.rho_ee
        ),
        "dominance_threshold": _value_or_error(analytic.dominance_threshold, a),
        "saturation_nc": _value_or_error(analytic.saturation_nc, g_tau, cfg.theta),
    }


# ---------------------------------------------------------------------------
# figure presets


def _apply_overrides(
    base: RunConfig, overrides: dict | None, reads: tuple[str, ...]
) -> tuple[RunConfig, dict]:
    """base with the overrides that name config fields, and the rest, those named in reads.

    Each read is checked where the preset uses it, as a count or a number.
    """
    known = {f.name for f in dataclasses.fields(RunConfig)}
    extras, cfg_kw = {}, {}
    for key, value in (overrides or {}).items():
        if key in reads:
            extras[key] = value
        elif key in known:
            cfg_kw[key] = value
        else:
            also = ", ".join(sorted(reads)) or "none"
            raise ValueError(f"unknown preset override {key!r}; this preset also reads {also}")
    return _replace(base, cfg_kw), extras


def _figure(pipeline, stem: str, base: RunConfig, reads: tuple[str, ...]):
    """The preset that runs a command's pipeline at base with the overrides it reads.

    It writes stem.csv and its sidecar and returns the command's summary with both paths.
    """
    def run(overrides: dict | None, out_dir: str) -> dict:
        cfg, extras = _apply_overrides(base, overrides, reads)
        res, summary = pipeline(cfg, **extras)
        return {**summary, "files": list(write_sweep(res, out_dir, stem))}

    return run


# the reference experiment: (g, gamma_c) = 2*pi*(290, 75) kHz, tau = 101 ns, a pi/2 pulse,
# one atom per field decay time
_REFERENCE = RunConfig(
    g=2.0 * math.pi * 290e3, gamma_c=2.0 * math.pi * 75e3, tau=101e-9, theta=0.5 * math.pi, n_c=1.0
)
# its transit time for g_tau = 0.01
_SHORT_TRANSIT = 0.01 / _REFERENCE.g
# the grid overrides of the presets that sweep the flux
_GRID_READS = ("points", "grid_min", "grid_max")


def _preset_figs3(overrides: dict | None, out_dir: str) -> dict:
    base = _replace(_REFERENCE, {"n_mean": 0.57})
    cfg, extras = _apply_overrides(base, overrides, ("points", "grid_max"))
    grid = np.array([0.0, 25e3, 50e3, 100e3, 200e3, 400e3, 800e3])
    points = extras.get("points", grid.size)
    check_range("points", points, 1, integer=True)
    if "grid_max" in extras:
        check_range("grid_max", extras["grid_max"], 0.0)
        grid = grid[grid <= extras["grid_max"]]
    grid = grid[:points]
    # the random-phase baseline is the infinite-linewidth limit
    res = _solve_curve(cfg, "pump FWHM linewidth [Hz]", "linewidth", grid)
    return {"files": list(write_sweep(res, out_dir, "figS3")), "mean_n": res.mean_n.tolist()}


def _dim_limited_nc(a: AtomState, g_tau: float, nc_target: float, dim_cap: int) -> float:
    """Largest n_c (up to nc_target) whose suggested cutoff fits the solver."""
    if suggest_n_max(nc_target, a, g_tau) <= dim_cap:
        return nc_target
    lo, hi = 1.0, nc_target
    while hi / lo > 1.02:
        mid = math.sqrt(lo * hi)
        if suggest_n_max(mid, a, g_tau) <= dim_cap:
            lo = mid
        else:
            hi = mid
    return lo


def _preset_figs5(overrides: dict | None, out_dir: str) -> dict:
    cfg, extras = _apply_overrides(_REFERENCE, overrides, _GRID_READS)
    points = extras.get("points", 21)
    check_range("points", points, 1, integer=True)
    nc_min = extras.get("grid_min", 0.1)
    # refused before np.geomspace warns, as atom_scaling does
    check_range("grid_min", nc_min, 0.0, open_lo=True)
    out: dict = {"files": [], "curves": {}}
    for g_tau in (0.01, 0.03, 0.1):
        cfg_i = dataclasses.replace(cfg, tau=g_tau / cfg.g)
        a = cfg_i.atom()
        sat = 3.3 / g_tau**2
        target = extras.get("grid_max", sat)
        check_range("grid_max", target, 0.0, open_lo=True)
        nc_hi = _dim_limited_nc(a, g_tau, target, dim_cap=steady.DEFAULT_MAX_DIM - 30)
        nc_values = np.geomspace(nc_min, nc_hi, points)
        res = _solve_curve(cfg_i, "atoms per cavity decay time n_c", "n_c", nc_values)
        if nc_hi < target:
            res.metadata["annotations"].insert(
                0,
                f"curve stops at n_c={nc_hi:.4g}, short of the requested "
                f"{target:.4g}: larger fields exceed the direct-solver guard",
            )
        stem = f"figS5_gtau_{g_tau:g}".replace(".", "p")
        csv_path, meta_path = write_sweep(res, out_dir, stem)
        out["files"] += [csv_path, meta_path]
        out["curves"][f"{g_tau:g}"] = {"nc_max": float(nc_hi)}
    return out


def _preset_figs6(overrides: dict | None, out_dir: str) -> dict:
    beam = {"tau": _SHORT_TRANSIT, "n_c": 10.0, "injection": "regular", "t_end": 6.0}
    cfg, _ = _apply_overrides(_replace(_REFERENCE, beam), overrides, ())
    res, _ = transient_buildup(cfg)
    # baseline[j] is the lossless <n> after j atoms
    k_ref = max(int(round(cfg.derived_n_c)), 1)
    tail = res.mean_n[int(0.75 * res.mean_n.size) :]
    return {
        "files": list(write_sweep(res, out_dir, "figS6")),
        "steady_mean_n": float(np.mean(tail)),
        "lossless_at_nc_atoms": float(res.baseline[k_ref]) if k_ref < res.axis.size else math.nan,
    }


_PRESETS = {
    # a command's pipeline, the stem it writes, its base config, the overrides it reads
    "fig2": _figure(pump_response, "fig2", _replace(_REFERENCE, {"n_mean": 1.0}),
                    ("points", "theta_max")),
    "fig3": _figure(atom_scaling, "fig3", _REFERENCE, _GRID_READS),
    "figS1": _figure(lossless_emission, "figS1",
                     _replace(_REFERENCE, {"tau": _SHORT_TRANSIT, "n_c": 20.0}), ("atoms",)),
    "figS3": _preset_figs3,
    "figS5": _preset_figs5,
    "figS6": _preset_figs6,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, overrides: dict | None = None, out_dir: str = ".") -> dict:
    """Run a named figure pipeline; returns file paths and summary numbers."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name](overrides, out_dir)


def predicted_alpha(cfg: RunConfig) -> complex:
    """Coherent amplitude the phased beam drives the cavity toward."""
    return analytic.coherent_alpha(cfg.derived_n_c, cfg.atom().rho_eg, cfg.g_tau)
