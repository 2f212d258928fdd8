import importlib

import pytest

MODULES = [
    "mbrr",
    "mbrr.gf",
    "mbrr.layout",
    "mbrr.linalg",
    "mbrr.encode",
    "mbrr.reconstruct",
    "mbrr.repair",
    "mbrr.systematic",
    "mbrr.slab",
    "mbrr.cluster",
    "mbrr.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    """Every ``__all__`` entry resolves, so ``from <module> import *`` works."""
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
