"""Each library module's ``__all__`` states its public surface exactly."""
from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import lstsc

# the command driver's surface is its commands, not its names
_LIBRARY = sorted(info.name for info in pkgutil.iter_modules(lstsc.__path__) if info.name != "cli")


@pytest.mark.parametrize("name", _LIBRARY)
def test_all_names_exactly_the_public_definitions(name):
    module = importlib.import_module(f"lstsc.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []
    defined = {
        item for item, value in vars(module).items()
        if not item.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(exported)) == []
