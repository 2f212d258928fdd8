import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

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
    "mbrr.shardfile",
    "mbrr.check",
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


def test_readme_python_block_runs():
    """The README's library tour is code that runs as written."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_no_unused_imports():
    """No module under src/mbrr/ except the package's re-exporting
    ``__init__`` imports a name it never uses."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mbrr")
    unused = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items() if bound not in used]
    assert unused == []


def test_runtime_imports_only_the_standard_library():
    """Importing the package and its CLI loads no third-party module. The
    check diffs ``sys.modules`` around the import in a fresh interpreter,
    because site hooks may preload other modules before it starts."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys; before = set(sys.modules); import mbrr, mbrr.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    top = {name.split(".")[0] for name in out}
    assert "mbrr" in top
    assert sorted(top - set(sys.stdlib_module_names) - {"mbrr"}) == []


def test_generator_rows_are_built_in_one_place():
    """Outside ``layout``, only ``encode.encode`` and ``encode.encode_rows``
    read the encoding matrix or the fill plan; every other path takes its
    generator rows from ``encode_rows``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mbrr")
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "layout.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if name == "encode.py" and func.name in ("encode", "encode_rows"):
                continue
            found += [
                f"{name}:{node.lineno} {func.name}"
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and node.id in ("encoding_matrix", "fill_plan")
            ]
    assert found == []


def test_decoder_passes_are_written_once():
    """In ``reconstruct``, only ``Decoder._two_passes`` applies a map, so
    ``decode_slabs`` and ``rebuild_slabs`` run the two passes one way."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mbrr", "reconstruct.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            found |= {
                f"{func.name} {node.func.attr}"
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("apply", "apply_groups")
            }
    assert found == {"_two_passes apply_groups"}


def test_shards_are_listed_and_files_replaced_in_one_place():
    """Only ``shardfile._shard_paths`` lists a directory and only
    ``shardfile._write_atomic`` renames a file into place, so decode and repair
    find shards by one rule and every file is written by one writer."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mbrr")
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [
                    f"{name} {func.name} os.{node.func.attr}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "os"
                    and node.func.attr in ("listdir", "replace")
                ]
    assert sorted(found) == [
        "shardfile.py _shard_paths os.listdir",
        "shardfile.py _write_atomic os.replace",
    ]


def test_shard_format_rules_live_in_the_shard_module():
    """Only ``shardfile`` builds or unpacks a ``ShardHeader`` and splits or
    joins slabs of a file or a payload: a node's header comes from
    ``node_shards`` alone and the payload layout from ``split_payload`` and
    ``join_payload`` alone. ``cli.py`` does none of these; ``cluster.py``
    keeps its node shards as slabs in memory."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mbrr")

    def rule(call):
        owner = getattr(call.func, "value", None)
        if getattr(call.func, "id", None) in ("ShardHeader", "replace"):
            return call.func.id
        if getattr(call.func, "attr", None) == "unpack" and getattr(owner, "id", None) == "ShardHeader":
            return "ShardHeader.unpack"
        if getattr(call.func, "attr", None) in ("split", "join") and "kernel" in (
            getattr(owner, "id", None),
            getattr(owner, "attr", None),
        ):
            return f"kernel.{call.func.attr}"
        return None

    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found |= {
                    f"{name} {func.name} {rule(node)}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and rule(node)
                }
    assert not [entry for entry in found if entry.startswith("cli.py")]
    assert found == {
        "cluster.py node_shard kernel.join",
        "cluster.py read_data kernel.join",
        "cluster.py store_stripes kernel.split",
        "shardfile.py _decode_admitted kernel.join",  # the B data slabs
        "shardfile.py encode_file ShardHeader",
        "shardfile.py encode_file kernel.split",  # the B data slabs
        "shardfile.py join_payload kernel.join",
        "shardfile.py node_shards replace",
        "shardfile.py open_shard ShardHeader.unpack",
        "shardfile.py split_payload kernel.split",
    }


def test_admission_script_errors_and_node_state_are_written_once():
    """Only ``shardfile._admit`` says a header disagrees with the first
    shard's or names a node off its rack grid, so ``mbrr decode``, ``mbrr
    repair`` and ``decode_shards`` admit shards by one rule; only ``cli.cmd_simulate`` builds a ``script line`` error; and
    ``Cluster`` keeps node state in its shard map alone, so no method of it
    assigns an attribute besides these four."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mbrr")
    texts = {
        "header disagrees with the first shard's": set(),
        "outside the rack grid of": set(),
        "script line": set(),
    }
    assigned = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Constant) and id(node) not in docstrings:
                    for text, where in texts.items():
                        if isinstance(node.value, str) and text in node.value:
                            where.add(f"{name} {func.name}")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Cluster":
                assigned |= {
                    node.attr
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                }
    assert texts == {
        "header disagrees with the first shard's": {"shardfile.py _admit"},
        "outside the rack grid of": {"shardfile.py _admit"},
        "script line": {"cli.py cmd_simulate"},
    }
    assert assigned == {"params", "systematic", "_shards", "_stripes"}


def test_slab_kernels_are_built_in_one_place():
    """``make_params`` builds the one kernel each params own; only
    ``shardfile.file_kernel`` builds another, for the symbol-list shims, which
    have no params. No slab entry point takes a kernel, and ``read_slabs``
    takes its nodes from its column map."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mbrr")
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                found += [
                    f"{name} {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SlabKernel"
                ]
    assert found == ["layout.py make_params", "shardfile.py file_kernel"]

    from mbrr.encode import encode_slabs
    from mbrr.reconstruct import Decoder
    from mbrr.repair import Repairer
    from mbrr.systematic import read_slabs, systematic_encode_slabs, systematic_slabs

    entry_points = (
        encode_slabs,
        systematic_slabs,
        systematic_encode_slabs,
        read_slabs,
        Decoder.decode_slabs,
        Repairer.repair_slabs,
    )
    for fn in entry_points:
        assert "kernel" not in inspect.signature(fn).parameters, fn.__qualname__
    assert list(inspect.signature(read_slabs).parameters) == ["p", "columns", "systematic"]
