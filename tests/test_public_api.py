"""Tests for the public API surface."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.bus",
        "repro.arbiters",
        "repro.core",
        "repro.traffic",
        "repro.metrics",
        "repro.faults",
        "repro.atm",
        "repro.experiments",
    ],
)
def test_subpackage_all_names_resolve(module):
    package = importlib.import_module(module)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), "{}.{}".format(module, name)


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
