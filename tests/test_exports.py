"""Every exported name of the package resolves."""

import importlib

import pytest

import thermofield

# every module with an __all__ (errors has none: its two classes are re-exported)
MODULES = ("bipartite", "cli", "linalg", "models", "serialize", "thermal")


def test_package_exports_resolve():
    missing = [name for name in thermofield.__all__ if not hasattr(thermofield, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"thermofield.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
