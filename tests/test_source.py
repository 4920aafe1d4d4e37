"""Rules on the package source itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "yangbaxter"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_found():
    assert "verify.py" in {path.name for path in MODULES}


# ROADMAP item 6's ceiling: the package may not grow past this
MAX_NONBLANK_LINES = 2693


def test_package_fits_its_line_ceiling():
    lines = sum(
        1 for path in MODULES for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    assert lines <= MAX_NONBLANK_LINES, f"{lines} non-blank lines in src/yangbaxter"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert, so no check may rely on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


def _outside_imports(tree):
    """Modules imported by tree that are neither relative nor standard library."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_outside_imports_rule_flags_third_party_modules():
    tree = ast.parse("import os.path\nfrom . import x\nfrom .y import z\nimport numpy as np\n"
                     "from scipy.linalg import lu\n")
    assert _outside_imports(tree) == ["numpy", "scipy.linalg"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_relative_or_standard_library(path):
    # the package promises no runtime dependencies beyond the standard library
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _outside_imports(tree) == [], f"{path.name} imports outside the standard library"


def test_cli_import_leaves_out_the_introspection_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize: a
    # start-up cost every CLI call and benchmark worker would pay
    code = ("import sys, yangbaxter, yangbaxter.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# Imported names a package module keeps without using them, and why.
UNUSED_IMPORTS_ALLOWED = {
    # perfbench's alias test rebinds verify.build_r_ts; ROADMAP item 1 points
    # that test at an alias the package uses, and then this import can go
    ("verify", "build_r_ts"),
}


def _unused_imports(module, tree):
    """(module, name) of each name that tree imports and never loads.

    An import binds its alias, or a dotted module's first part; a load is
    a plain name read, also as the base of an attribute.  __future__
    imports bind no name.
    """
    imported = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(module, name) for name in dict.fromkeys(imported) if name not in loaded]


def test_unused_imports_rule_flags_dead_imports():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from .a import used, dead\nfrom . import b as c\n\n"
        "def f():\n    import sys\n    return os.sep, used(c.x)\n"
    )
    assert _unused_imports("m", tree) == [("m", "j"), ("m", "dead"), ("m", "sys")]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py is left out: its imports are the package's public names
    unused = [
        pair for path in MODULES if path.name != "__init__.py"
        for pair in _unused_imports(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert set(unused) == UNUSED_IMPORTS_ALLOWED


# Public names kept with no caller in the package, and why.
UNCALLED_ALLOWED = {
    # both wait to be wired into verify suites (ROADMAP open item 4)
    ("verify", "pr_limit_check"),
    ("verify", "qybe_spectral_residual"),
}


def _uncalled_public_names(trees):
    """(module, name) of each public module-level function or class that no module loads.

    trees maps module names to parsed sources.  A name is loaded by a
    ``from .module import name`` elsewhere, by a ``module.name`` attribute,
    or by a plain name load in its own module; a store, such as a
    class-body ``substitute = _inexact``, is not a load.
    """
    loaded = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                loaded.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                loaded.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add((module, node.id))
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (module, node.name) not in loaded
    ]


def test_uncalled_names_rule_flags_dead_functions():
    trees = {name: ast.parse(text) for name, text in {
        "a": "def used():\n    pass\ndef called():\n    pass\ndef dead():\n    pass\n"
             "def _private():\n    pass\nclass Stored:\n    dead = _private\n",
        "b": "from .a import used\nfrom . import a\nx = a.called\nStored = 1\n",
    }.items()}
    assert _uncalled_public_names(trees) == [("a", "dead"), ("a", "Stored")]


def test_every_public_name_is_loaded_by_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES if path.name != "__init__.py"
    }
    assert set(_uncalled_public_names(trees)) == UNCALLED_ALLOWED


# Names the benchmark reads that the package no longer has, and why.
BENCHMARK_NAMES_MISSING_ALLOWED = {
    # stale since the uncalled Tensor2.embed was deleted; ROADMAP item 1
    # drops the tensors.embed metric with the next change to the benchmark
    "tensors.Tensor2.embed",
    # numeric mode evaluates a compiled input's distinct scalars
    # (CompiledTensor2.at) since Tensor2.evaluate was deleted; ROADMAP item 1
    # points the tensors.evaluate metric there with the next benchmark change
    "tensors.Tensor2.evaluate",
}


def _dotted(node):
    """The dotted name of an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if parts and isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _benchmark_names(groups, worker_source):
    """Package names the benchmark reads.

    These are the span names of the tracer's groups, and every attribute
    chain on builders, triples or verify in the worker's source.
    """
    names = {name for spans in groups.values() for name in spans}
    for node in ast.walk(ast.parse(worker_source)):
        dotted = _dotted(node)
        if dotted and dotted.partition(".")[0] in ("builders", "triples", "verify"):
            names.add(dotted)
    return names


def _missing_names(names):
    """The names, sorted, that do not resolve in the yangbaxter package.

    A class member must be defined by the class itself, as the tracer
    names each wrapped method after the class that defines it.  The walk
    stops at the first attribute that does not resolve.
    """
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"yangbaxter.{module}")
        for attr in attrs:
            obj = vars(obj).get(attr, missing) if isinstance(obj, type) else getattr(
                obj, attr, missing)
            if obj is missing:
                break
        if obj is missing:
            missing.append(name)
    return missing


def test_benchmark_names_rule_flags_missing_names():
    groups = {"triples.walk": ("triples.t_orbit", "triples.no_such_walk"),
              "tensors.mul": ("tensors.Tensor2.mul", "tensors.Tensor2.no_such_method"),
              # inherited from ValueError, so the tracer never wraps it under this name
              "scalars.init": ("scalars.PoleOrderError.__init__",),
              # the class is missing; its member must not resolve through the sentinel
              "scalars.gone": ("scalars.NoSuchClass.__init__",)}
    worker = "t = triples.BDTriple.make(2, {})\nbuilders.gone(t)\npackage.cli.main()\nx.y\n"
    names = _benchmark_names(groups, worker)
    assert names == {
        "triples.t_orbit", "triples.no_such_walk", "tensors.Tensor2.mul",
        "tensors.Tensor2.no_such_method", "triples.BDTriple", "triples.BDTriple.make",
        "builders.gone", "scalars.PoleOrderError.__init__", "scalars.NoSuchClass.__init__",
    }
    assert _missing_names(names) == [
        "builders.gone", "scalars.NoSuchClass.__init__", "scalars.PoleOrderError.__init__",
        "tensors.Tensor2.no_such_method", "triples.no_such_walk",
    ]


def test_every_name_the_benchmark_reads_exists():
    # a renamed traced name would otherwise show only as a failed traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = _benchmark_names(tracer.GROUPS, (PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    assert set(_missing_names(names)) == BENCHMARK_NAMES_MISSING_ALLOWED
