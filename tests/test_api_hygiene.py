"""API hygiene meta-tests: every public item is documented and exported
names actually exist (deliverable: doc comments on every public item)."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.sparse",
    "repro.ordering",
    "repro.symbolic",
    "repro.kernels",
    "repro.pgas",
    "repro.machine",
    "repro.core",
    "repro.baselines",
    "repro.variants",
    "repro.bench",
    "repro.cli",
]


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
class TestPublicApi:
    def test_module_docstring(self, modname):
        mod = importlib.import_module(modname)
        assert mod.__doc__ and mod.__doc__.strip(), f"{modname} undocumented"

    def test_all_exports_resolve(self, modname):
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{modname}.__all__ lists missing {name}"

    def test_public_callables_documented(self, modname):
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{modname}.{name} lacks a docstring"
                )

    def test_public_methods_documented(self, modname):
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if not inspect.isclass(obj):
                continue
            for meth_name, meth in inspect.getmembers(obj,
                                                      inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                assert meth.__doc__ and meth.__doc__.strip(), (
                    f"{modname}.{name}.{meth_name} lacks a docstring"
                )


def _all_repro_modules():
    """Every importable ``repro`` module (``__main__`` entry points excluded)."""
    import pkgutil

    import repro

    return [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith("__main__")]


def test_no_reference_twins_exported():
    # Retained bit-identity oracles live in tests/oracles/, not in the
    # package: no ``*_reference`` name may come back into any __all__.
    offenders = []
    for modname in ["repro", *_all_repro_modules()]:
        mod = importlib.import_module(modname)
        offenders += [f"{modname}.{name}" for name in getattr(mod, "__all__", [])
                      if "_reference" in name]
    assert not offenders, offenders


def test_no_reference_ordering_registered():
    from repro.ordering import ORDERINGS

    assert not [name for name in ORDERINGS if "_reference" in name]
