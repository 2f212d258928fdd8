import importlib
import importlib.util
import os

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


def test_benchmark_trace_targets_resolve():
    """Every name the benchmark's tracer wraps still exists in the program."""
    for name in MODULES:
        importlib.import_module(name)  # the tracer wraps names in loaded modules
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(root, "perfbench", "layers.py")
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
