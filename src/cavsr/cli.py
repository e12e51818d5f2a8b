"""Command-line entry point.

Every subcommand reads one JSON config (except `preset`, where the config
holds overrides), makes one call into experiments, writes CSV/JSON outputs
under --out, and prints the summary JSON object to stdout. Failures print {"error": {...}} to stderr and exit 1,
so scripts never have to parse tracebacks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import CavsrError
from .experiments import (
    PRESET_NAMES,
    RunConfig,
    atom_scaling,
    closed_forms,
    collective_rates,
    load_config,
    load_json_object,
    lossless_emission,
    preset,
    pump_response,
    steady_distribution,
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


def _given(args, *names: str) -> dict:
    """The named options set on the command line; the pipeline defaults the rest."""
    # an option a subcommand does not have is unset
    return {k: v for k in names if (v := getattr(args, k, None)) is not None}


# --mode names the beam a transient runs: a Poisson beam's master equation or a regular beam's map
_INJECTION_OF_MODE = {"coarse-ode": "poisson", "discrete-regular": "regular"}


def _flag_overrides(args) -> dict:
    """The config fields set on the command line."""
    given = _given(args, "seed", "n_max", "t_end", "n_trajectories")
    if mode := getattr(args, "mode", None):
        given["injection"] = _INJECTION_OF_MODE[mode]
    return given


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ValueError("this subcommand needs --config pointing at a JSON file")
    return dataclasses.replace(load_config(args.config), **_flag_overrides(args))


def _curve(pipeline, stem: str, *grid: str):
    """The subcommand that runs pipeline on the config and the named grid flags.

    It writes stem.csv and its sidecar and prints the summary with both paths.
    """
    def run(args) -> None:
        res, summary = pipeline(_require_config(args), **_given(args, *grid))
        # a global at call time: perfbench's traced run wraps cli.write_sweep
        _emit({**summary, "files": write_sweep(res, args.out, stem)})

    return run


def _cmd_dicke(args) -> None:
    _emit(collective_rates(_require_config(args), args.atoms, args.m))


def _cmd_analytic(args) -> None:
    _emit(closed_forms(_require_config(args)))


def _cmd_preset(args) -> None:
    overrides = load_json_object(args.config) if args.config else {}
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
    p.set_defaults(func=_curve(steady_distribution, "steady_pn"))

    p = sub.add_parser("sweep-pump", parents=[common], help="mean n versus pump pulse area")
    p.add_argument("--theta-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=_curve(pump_response, "sweep_pump", "theta_max", "points"))

    p = sub.add_parser("sweep-atoms", parents=[common], help="mean n versus excited atom number")
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--linear", action="store_true", help="linear instead of log grid")
    p.set_defaults(
        func=_curve(atom_scaling, "sweep_atoms", "grid_min", "grid_max", "points", "linear")
    )

    p = sub.add_parser("lossless", parents=[common], help="sequential emission, no cavity loss")
    p.add_argument("--atoms", type=int, default=None)
    p.set_defaults(func=_curve(lossless_emission, "lossless", "atoms"))

    p = sub.add_parser("transient", parents=[common], help="buildup from vacuum")
    p.add_argument("--t-end", type=float, default=None, help="duration in units of 1/gamma_c")
    p.add_argument(
        "--mode", choices=tuple(_INJECTION_OF_MODE), default=None,
        help="override injection: coarse-ode for poisson, discrete-regular for regular",
    )
    p.set_defaults(func=_curve(transient_buildup, "transient"))

    p = sub.add_parser("trajectory", parents=[common], help="stochastic trajectory ensemble")
    p.add_argument("--t-end", type=float, default=None, help="duration in units of 1/gamma_c")
    p.add_argument("--trajectories", dest="n_trajectories", type=int, default=None)
    p.set_defaults(func=_curve(trajectory_ensemble, "trajectory"))

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
