import cavsr
from cavsr import (
    analytic,
    atom,
    dicke,
    errors,
    experiments,
    hilbert,
    interaction,
    steady,
    trajectory,
)

MODULES = (analytic, atom, dicke, errors, experiments, hilbert, interaction, steady, trajectory)


def test_package_exports_exactly_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a public name is listed by two modules"
    assert set(cavsr.__all__) == {"__version__", *listed}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cavsr, name) is getattr(module, name), f"{module.__name__}.{name}"
