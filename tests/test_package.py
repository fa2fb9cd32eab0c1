"""The package's export surface: ``mfsar.__all__`` is the submodules' own."""

import importlib
import pkgutil

import mfsar

# Every library module; the command-line front end exports nothing.
SUBMODULES = [importlib.import_module(f"mfsar.{info.name}")
              for info in pkgutil.iter_modules(mfsar.__path__) if info.name != "cli"]


def test_all_is_the_union_of_the_submodules_all():
    union = {name for module in SUBMODULES for name in module.__all__}
    assert len(set(mfsar.__all__)) == len(mfsar.__all__)
    assert set(mfsar.__all__) == union | {"__version__"}


def test_every_export_resolves_to_its_submodules_object():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(mfsar, name) is getattr(module, name), f"{module.__name__}.{name}"
