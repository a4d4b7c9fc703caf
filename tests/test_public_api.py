"""Tests for the public API surface."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


#: Every package that exports names, each through its lazy table.
SUBPACKAGES = [
    "repro.sim",
    "repro.bus",
    "repro.arbiters",
    "repro.core",
    "repro.traffic",
    "repro.metrics",
    "repro.faults",
    "repro.atm",
    "repro.experiments",
    "repro.service",
    "repro.analytic",
    "repro.vector",
    "repro.chaos",
    "repro.analysis",
    "repro.analysis.flow",
]


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_subpackage_all_names_resolve(module):
    package = importlib.import_module(module)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), "{}.{}".format(module, name)


@pytest.mark.parametrize("module", ["repro"] + SUBPACKAGES)
def test_dir_lists_every_exported_name(module):
    package = importlib.import_module(module)
    assert package.__all__
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("module", ["repro"] + SUBPACKAGES)
def test_star_import_binds_every_exported_name(module):
    package = importlib.import_module(module)
    namespace = {}
    exec("from {} import *".format(module), namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(package.__all__)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name), name


def test_unknown_names_raise_attribute_error():
    import repro.experiments

    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.experiments.nonexistent
    assert not hasattr(repro, "nonexistent")
    # Submodules are still imported by name, not exported.
    from repro.experiments import system

    assert system.Point is repro.experiments.Point


def test_docstring_coverage_of_public_modules():
    # Every public module and every public class/function it exports
    # carries a docstring — the README's "doc comments on every public
    # item" claim, enforced.
    import inspect

    packages = [
        "repro.sim", "repro.bus", "repro.arbiters", "repro.core",
        "repro.traffic", "repro.metrics", "repro.faults", "repro.atm",
        "repro.experiments",
    ]
    for module_name in packages:
        package = importlib.import_module(module_name)
        assert package.__doc__, module_name
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, "{}.{}".format(module_name, name)


def test_quickstart_snippet_from_readme():
    from repro import StaticLotteryArbiter, build_single_bus_system
    from repro.traffic import get_traffic_class

    arbiter = StaticLotteryArbiter(tickets=[1, 2, 3, 4])
    system, bus = build_single_bus_system(
        4, arbiter, get_traffic_class("T8").generator_factory(seed=1)
    )
    system.run(20_000)
    shares = bus.metrics.bandwidth_shares()
    assert shares[0] < shares[1] < shares[2] < shares[3]
