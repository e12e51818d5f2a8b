"""Cavity-mediated superradiance from sequentially injected single atoms.

A beam of prepared two-level atoms crosses a lossy single-mode cavity one
atom at a time. Each transit applies a short resonant Jaynes-Cummings kick;
photon loss acts between transits. When the atoms share a phase reference,
their coherences add up in the field and the cavity output grows with the
square of the atom flux, even though the atoms never overlap.

The package covers four complementary calculations: closed-form limits
(analytic), coarse-grained master-equation steady states and transients
(steady), quantum-jump trajectories resolving individual transits
(trajectory), and collective-rate comparisons for bunched ensembles (dicke,
interaction). experiments and cli wire these into reproducible sweeps.
"""

from ._version import __version__
from . import analytic, atom, dicke, errors, experiments, hilbert, interaction, steady, trajectory
from .analytic import *  # noqa: F403
from .atom import *  # noqa: F403
from .dicke import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .hilbert import *  # noqa: F403
from .interaction import *  # noqa: F403
from .steady import *  # noqa: F403
from .trajectory import *  # noqa: F403

# each module's __all__ is its public API; the package re-exports all of them
__all__ = ["__version__"]
for _module in (errors, hilbert, atom, interaction, dicke, analytic, steady, trajectory, experiments):
    __all__ += _module.__all__
del _module
