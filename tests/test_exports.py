"""The export surface: every name a ``repro`` package lists in ``__all__``
resolves, so no deletion leaves a dangling export behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
