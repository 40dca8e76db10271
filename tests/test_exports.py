"""The public surface: every exported name exists, and the package
namespace holds only names that some module exports."""

import importlib
import pkgutil
import types

import cauchybench

MODULES = [
    importlib.import_module(f"cauchybench.{info.name}")
    for info in pkgutil.iter_modules(cauchybench.__path__)
    if not info.name.startswith("_")
]


def test_every_all_name_resolves():
    for mod in MODULES:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_package_names_come_from_module_all():
    exported = {name for mod in MODULES for name in mod.__all__}
    public = {
        name
        for name, value in vars(cauchybench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - exported == set()
