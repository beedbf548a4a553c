"""Every name a glmmkit module lists in ``__all__`` exists.

Tracing tools resolve each exported name with ``getattr``, so a stale
entry left behind by a deletion fails here first.
"""

import importlib
import pkgutil

import pytest

import glmmkit

MODULES = ["glmmkit"] + [f"glmmkit.{info.name}"
                         for info in pkgutil.iter_modules(glmmkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing
