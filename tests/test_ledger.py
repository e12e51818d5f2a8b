"""The output ledger: every preset and CLI command's outputs, checked against tests/ledger.json.

Each entry runs one command line through cli.main and records its printed
summary, every column of each CSV it writes and every field of each
sidecar, leaving out file paths and code_version. The test reruns each
entry and compares: integers and strings exactly, floats to 1e-12 of the
largest magnitude in their column (a CSV column, a list, or the float
itself), so a roundoff move in a small difference such as collective_part
passes where a real one does not. figS5 runs at grid_max 300 to keep it
short.

A change that moves an output rewrites the ledger, and the diff lists what
moved:

    PYTHONPATH=src python tests/test_ledger.py --rewrite
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from cavsr.cli import main

LEDGER = Path(__file__).with_name("ledger.json")
RTOL = 1e-12

_SMALL = {"g": 1e5, "gamma_c": 1.0, "tau": 1e-6, "theta": 0.5 * math.pi, "n_c": 3.0}
# the config files the entries read, tests/test_cli.py's
CONFIGS = {
    "small": _SMALL,
    "coherent": {"g": 1e4, "gamma_c": 1.0, "tau": 1e-6, "theta": 0.5 * math.pi, "n_c": 100.0},
    "scaling": {"g": 2.0 * math.pi * 290e3, "gamma_c": 2.0 * math.pi * 75e3,
                "tau": 101e-9, "theta": 0.5 * math.pi, "n_c": 1.0},
    "noisy": {**_SMALL, "linewidth": 0.5},
    "regular": {**_SMALL, "injection": "regular"},
    "figS5_short": {"grid_max": 300.0},
    # the transient benchmark's point: 106 held levels
    "buildup": {"g": 0.05 / 1e-6, "gamma_c": 1.0, "tau": 1e-6, "theta": 0.5 * math.pi,
                "n_c": 300.0},
    # a transient whose spectrum the pump's phase diffusion sets: Gamma_phi (n - m)^2 / 2
    # reaches about 1500 on levels 0..22, against about 150 from n_c and the loss
    "dephased": {"g": 0.05 / 1e-6, "gamma_c": 1.0, "tau": 1e-6, "theta": 0.5 * math.pi,
                 "n_c": 100.0, "linewidth": 1.0},
}

# entry name -> argv, where "@name" is the path of CONFIGS[name]
ENTRIES = {
    "preset fig2": ["preset", "fig2"],
    "preset fig3": ["preset", "fig3"],
    "preset figS1": ["preset", "figS1"],
    "preset figS3": ["preset", "figS3"],
    "preset figS5 grid_max 300": ["preset", "figS5", "-c", "@figS5_short"],
    "preset figS6": ["preset", "figS6"],
    "steady coherent": ["steady", "-c", "@coherent"],
    "steady noisy": ["steady", "-c", "@noisy"],
    "sweep-pump small": ["sweep-pump", "-c", "@small", "--points", "7",
                         "--theta-max", repr(1.25 * math.pi)],
    "sweep-atoms scaling log": ["sweep-atoms", "-c", "@scaling", "--points", "4",
                                "--grid-min", "0.05", "--grid-max", "1.0"],
    "sweep-atoms scaling linear": ["sweep-atoms", "-c", "@scaling", "--points", "4",
                                   "--grid-min", "0.1", "--grid-max", "1.0", "--linear"],
    "lossless small": ["lossless", "-c", "@small", "--atoms", "6"],
    "transient small": ["transient", "-c", "@small", "--t-end", "6.0"],
    "transient noisy": ["transient", "-c", "@noisy", "--t-end", "2.0"],
    "transient buildup": ["transient", "-c", "@buildup"],
    "transient dephased": ["transient", "-c", "@dephased"],
    "transient regular": ["transient", "-c", "@regular", "--t-end", "2.0"],
    "trajectory small": ["trajectory", "-c", "@small", "--t-end", "4.0",
                         "--trajectories", "10", "--seed", "2"],
    "dicke small": ["dicke", "-c", "@small", "--atoms", "4"],
    "dicke small m 0.5": ["dicke", "-c", "@small", "--atoms", "3", "--m", "0.5"],
    "analytic coherent": ["analytic", "-c", "@coherent"],
}


def _without_paths(meta: dict) -> dict:
    return {k: v for k, v in meta.items() if k not in ("code_version", "files")}


def run_entry(name: str) -> dict:
    """Summary and written files of one entry, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = []
        for arg in ENTRIES[name]:
            if arg.startswith("@"):
                path = tmp / f"{arg[1:]}.json"
                path.write_text(json.dumps(CONFIGS[arg[1:]]), encoding="utf-8")
                arg = str(path)
            argv.append(arg)
        out_dir = tmp / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main([*argv, "-o", str(out_dir)])
        assert rc == 0, f"{name}: exit {rc}"
        files = {}
        for path in sorted(out_dir.glob("*")) if out_dir.exists() else ():
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".csv":
                rows = list(csv.reader(io.StringIO(text)))
                files[path.name] = {
                    col: [float(row[j]) for row in rows[1:]] for j, col in enumerate(rows[0])
                }
            else:
                files[path.name] = _without_paths(json.loads(text))
        return {"summary": _without_paths(json.loads(stdout.getvalue())), "files": files}


def _scale(values: list) -> float:
    return max((abs(v) for v in values if isinstance(v, float) and math.isfinite(v)), default=0.0)


def mismatches(where: str, want, got, scale: float | None = None) -> list[str]:
    """Every field of got that differs from want, each named with both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in mismatches(f"{where}.{k}", want[k], got[k])]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        col = _scale(want)
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(f"{where}[{i}]", w, g, col)]
    if type(want) is float and type(got) is float:
        tol = RTOL * (abs(want) if scale is None else scale)
        if math.isnan(want) and math.isnan(got) or want == got or abs(got - want) <= tol:
            return []
        return [f"{where}: ledger {want!r}, now {got!r} (tolerance {tol:.3e})"]
    if type(want) is not type(got) or want != got:
        return [f"{where}: ledger {want!r}, now {got!r}"]
    return []


def _ledger() -> dict:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def test_the_ledger_holds_every_entry():
    assert sorted(_ledger()) == sorted(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_outputs_match_the_ledger(name):
    want = _ledger()[name]
    assert want["argv"] == ENTRIES[name]
    got = run_entry(name)
    bad = mismatches(name, {"summary": want["summary"], "files": want["files"]}, got)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize(
    "want, got, moved",
    [
        # a column's tolerance is its largest magnitude's, so a small entry may move by more
        ([100.0, 1e-3], [100.0, 1e-3 + 5e-11], False),
        ([100.0, 1e-3], [100.0, 1e-3 + 5e-10], True),
        (3, 3.0, True),
        (3, 4, True),
        ({"a": 1.0}, {"a": 1.0, "b": 2.0}, True),
        ([math.nan], [math.nan], False),
    ],
)
def test_the_comparison_scales_by_the_column(want, got, moved):
    assert bool(mismatches("x", want, got)) == moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    entries = {name: {"argv": argv, **run_entry(name)} for name, argv in ENTRIES.items()}
    LEDGER.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
