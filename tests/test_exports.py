"""Every name a ``poiskit`` module lists in ``__all__`` exists in it."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import poiskit

# ``__main__`` runs the command line when imported, and has no ``__all__``
_MODULES = sorted(["poiskit", *(info.name for info in pkgutil.walk_packages(
    poiskit.__path__, prefix="poiskit.") if not info.name.endswith(".__main__"))])


def test_the_walk_finds_the_public_modules():
    assert {"poiskit.poisson", "poiskit.report", "poiskit.modcalc",
            "poiskit.polyalg"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
