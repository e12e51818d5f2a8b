"""Command-line entry point.

Every subcommand reads one JSON config (except `preset`, where the config
holds overrides), writes CSV/JSON outputs under --out, and prints a summary
JSON object to stdout. Failures print {"error": {...}} to stderr and exit 1,
so scripts never have to parse tracebacks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__, analytic
from .dicke import (
    MAX_BRUTE_FORCE_ATOMS,
    EnsembleSpec,
    brute_force_rate,
    decompose_product_state,
    dicke_rate,
    ensemble_rate,
)
from .errors import CavsrError, ResourceError
from .experiments import (
    PRESET_NAMES,
    RunConfig,
    load_config,
    lossless_emission,
    preset,
    steady_distribution,
    sweep_atoms,
    sweep_pump,
    trajectory_ensemble,
    transient_buildup,
    write_sweep,
)

# not called here: perfbench's traced run wraps cli.steady_state_auto and cli.evolve by name
from .steady import evolve, steady_state_auto  # noqa: F401

__all__ = ["main"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))


def _flag_overrides(args) -> dict:
    """The config fields set on the command line."""
    # --t-end exists only on the subcommands that run for a duration
    flags = {"seed": args.seed, "n_max": args.n_max, "t_end": getattr(args, "t_end", None)}
    return {k: v for k, v in flags.items() if v is not None}


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ValueError("this subcommand needs --config pointing at a JSON file")
    return dataclasses.replace(load_config(args.config), **_flag_overrides(args))


def _cmd_steady(args) -> None:
    res, summary = steady_distribution(_require_config(args))
    _emit({**summary, "files": write_sweep(res, args.out, "steady_pn")})


def _cmd_sweep_pump(args) -> None:
    cfg = _require_config(args)
    grid = np.linspace(0.0, args.theta_max, args.points)
    res = sweep_pump(cfg, grid)
    csv_path, meta_path = write_sweep(res, args.out, "sweep_pump")
    i_peak = int(np.nanargmax(res.mean_n))
    _emit(
        {
            "files": [csv_path, meta_path],
            "points": int(res.axis.size),
            "theta_peak": float(res.axis[i_peak]),
            "mean_n_peak": float(res.mean_n[i_peak]),
        }
    )


def _cmd_sweep_atoms(args) -> None:
    cfg = _require_config(args)
    if args.linear:
        grid = np.linspace(args.grid_min, args.grid_max, args.points)
    else:
        grid = np.geomspace(args.grid_min, args.grid_max, args.points)
    res = sweep_atoms(cfg, grid)
    csv_path, meta_path = write_sweep(res, args.out, "sweep_atoms")
    _emit(
        {
            "files": [csv_path, meta_path],
            "points": int(res.axis.size),
            "mean_n_final": float(res.mean_n[-1]),
            "collective_final": float(res.collective_part[-1]),
        }
    )


def _cmd_lossless(args) -> None:
    res, summary = lossless_emission(_require_config(args), args.atoms)
    _emit({**summary, "files": write_sweep(res, args.out, "lossless")})


def _cmd_transient(args) -> None:
    res, summary = transient_buildup(_require_config(args), args.mode)
    _emit({**summary, "files": write_sweep(res, args.out, "transient")})


def _cmd_trajectory(args) -> None:
    cfg = _require_config(args)
    if args.trajectories is not None:
        cfg = dataclasses.replace(cfg, n_trajectories=args.trajectories)
    res, summary = trajectory_ensemble(cfg)
    _emit({**summary, "files": write_sweep(res, args.out, "trajectory")})


def _cmd_dicke(args) -> None:
    cfg = _require_config(args)
    spec = EnsembleSpec.from_pulse(args.atoms, cfg.theta, cfg.phi)
    a = spec.atom_state()
    out = {
        "atoms": args.atoms,
        "ensemble_rate": ensemble_rate(args.atoms, a),
        "independent_rate": args.atoms * a.rho_ee,
        "weights": np.abs(decompose_product_state(spec)) ** 2,
    }
    if args.m is not None:
        out["dicke_rate"] = dicke_rate(args.atoms, args.m)
        out["m"] = args.m
    try:
        out["brute_force_rate"] = brute_force_rate(spec)
    except ResourceError:
        out["brute_force_rate"] = None
        out["note"] = f"direct 2^N check skipped above {MAX_BRUTE_FORCE_ATOMS} atoms"
    _emit(out)


def _cmd_analytic(args) -> None:
    cfg = _require_config(args)
    a = cfg.atom()
    n_c = cfg.derived_n_c
    g_tau = cfg.g_tau
    out: dict = {
        "n_c": n_c,
        "g_tau": g_tau,
        "rho_ee": a.rho_ee,
        "rho_eg": a.rho_eg,
        "predicted_alpha": analytic.coherent_alpha(n_c, a.rho_eg, g_tau),
        "n_eff": analytic.n_eff(cfg.injection, n_c),
    }
    for key, call in (
        ("beta_factors", lambda: analytic.beta_factors(n_c, a, g_tau)),
        ("mean_n_total", lambda: analytic.mean_n_total(n_c, a, g_tau)),
        (
            "mean_n_noncollective",
            lambda: analytic.mean_n_noncollective(n_c * g_tau**2, a.rho_ee),
        ),
        ("dominance_threshold", lambda: analytic.dominance_threshold(a)),
        ("saturation_nc", lambda: analytic.saturation_nc(g_tau, cfg.theta)),
    ):
        try:
            out[key] = call()
        except (CavsrError, ValueError, ZeroDivisionError) as exc:
            out[key] = f"{type(exc).__name__}: {exc}"
    out["emission_rate_per_atom"] = analytic.emission_rate_per_atom(
        out["n_eff"], a, cfg.g, cfg.tau
    )
    _emit(out)


def _cmd_preset(args) -> None:
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("preset overrides file must hold a JSON object")
    _emit(preset(args.name, {**overrides, **_flag_overrides(args)}, args.out))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", "-c", help="JSON run configuration")
    common.add_argument("--out", "-o", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override RNG seed")
    common.add_argument("--n-max", type=int, default=None, help="override Fock cutoff")

    parser = argparse.ArgumentParser(
        prog="cavsr",
        description="Single-atom superradiance in a lossy cavity: steady states, "
        "sweeps, and stochastic trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", parents=[common], help="steady-state photon statistics")
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("sweep-pump", parents=[common], help="mean n versus pump pulse area")
    p.add_argument("--theta-max", type=float, default=1.25 * math.pi)
    p.add_argument("--points", type=int, default=51)
    p.set_defaults(func=_cmd_sweep_pump)

    p = sub.add_parser("sweep-atoms", parents=[common], help="mean n versus excited atom number")
    p.add_argument("--grid-min", type=float, default=0.02)
    p.add_argument("--grid-max", type=float, default=2.5)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--linear", action="store_true", help="linear instead of log grid")
    p.set_defaults(func=_cmd_sweep_atoms)

    p = sub.add_parser("lossless", parents=[common], help="sequential emission, no cavity loss")
    p.add_argument("--atoms", type=int, default=20)
    p.set_defaults(func=_cmd_lossless)

    p = sub.add_parser("transient", parents=[common], help="buildup from vacuum")
    p.add_argument("--t-end", type=float, default=None, help="duration in units of 1/gamma_c")
    p.add_argument(
        "--mode", choices=("discrete-regular", "coarse-ode"), default="coarse-ode"
    )
    p.set_defaults(func=_cmd_transient)

    p = sub.add_parser("trajectory", parents=[common], help="stochastic trajectory ensemble")
    p.add_argument("--t-end", type=float, default=None, help="duration in units of 1/gamma_c")
    p.add_argument("--trajectories", type=int, default=None)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("dicke", parents=[common], help="collective emission rates")
    p.add_argument("--atoms", type=int, required=True)
    # half-integer M values are legal whenever the atom number is odd
    p.add_argument("--m", type=float, default=None, help="ladder quantum number for (J, M) rate")
    p.set_defaults(func=_cmd_dicke)

    p = sub.add_parser("analytic", parents=[common], help="closed-form predictions")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("preset", parents=[common], help="run a named figure pipeline")
    p.add_argument("name", choices=PRESET_NAMES)
    p.set_defaults(func=_cmd_preset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CavsrError, ValueError, OSError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, indent=2, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
