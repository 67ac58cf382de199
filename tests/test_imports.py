"""Every name a library module imports is used in that module."""

import ast
import importlib.util
from pathlib import Path

from conftest import run_in_small_address_space

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def traced_names():
    """(module, name) pairs that bench/tracing.py rebinds for its spans.
    A module may import such a name only to keep it bound; once the
    tracer is gone, no name is excused."""
    if not TRACING.exists():
        return set()
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(mod, attr) for mod, attr, _, _ in tracing.TARGETS}


def unused_imports(source):
    """Names bound by an import in `source` that no expression reads and
    no `__all__` re-exports, in sorted order."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_dead_names():
    source = ("import os.path\nimport sys\nfrom a import b, c as d\n"
              "from e import f\n__all__ = ['f']\nsys.exit(d)\n")
    assert unused_imports(source) == ["b", "os"]


def test_every_imported_name_is_used():
    excused = traced_names()
    dead = [f"{path.name}: {name}"
            for path in sorted((ROOT / "src" / "lattice_equiv").glob("*.py"))
            for name in unused_imports(path.read_text())
            if (path.stem, name) not in excused]
    assert dead == []


def test_only_geometry_builds_the_fractions_of_a_map():
    # The modules that solve for a map hand its integer numerators and
    # denominator to geometry._map_over, so they import nothing from
    # fractions; a Fraction built here would be a second seam.
    for name in ("equivalence.py", "lattices.py"):
        tree = ast.parse((ROOT / "src" / "lattice_equiv" / name).read_text())
        modules = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)}
        modules.update(alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import) for alias in node.names)
        assert "fractions" not in modules, name


def test_only_geometry_reads_the_facets():
    # invariants.facets has one caller, geometry._hull_of, whose record
    # every reader of a polytope's facets shares; a call anywhere else
    # would be a second facet routine.
    callers = []
    for path in sorted((ROOT / "src" / "lattice_equiv").glob("*.py")):
        tree = ast.parse(path.read_text())
        local = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "invariants"
                 for alias in node.names if alias.name == "facets"}
        callers += [path.stem for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and (
                        isinstance(node.func, ast.Name)
                        and node.func.id in local
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr == "facets"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "invariants")]
    assert callers == ["geometry"]


def module_level_imports(source):
    """Top-level package names that `source` imports when it is loaded:
    every import outside a function body (class bodies and module-level
    blocks run on import), in sorted order."""
    names = set()
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return sorted(names)


def test_module_level_imports_skip_function_bodies():
    source = ("import os.path\nfrom . import linalg\n"
              "class C:\n    from concurrent import futures\n"
              "try:\n    import multiprocessing as mp\nexcept ImportError:\n"
              "    pass\n"
              "def f():\n    from concurrent.futures import ProcessPoolExecutor\n")
    assert module_level_imports(source) == [
        "concurrent", "multiprocessing", "os"]


def test_no_module_loads_the_pool_on_import():
    # concurrent.futures.process and multiprocessing cost about 2.4 MB of
    # peak RSS and 15-35 ms in every process that loads them; only a
    # pooled census uses them, so census._form_counts imports them in
    # its pool branch.
    loaded = [f"{path.name}: {name}"
              for path in sorted((ROOT / "src" / "lattice_equiv").glob("*.py"))
              for name in module_level_imports(path.read_text())
              if name in ("concurrent", "multiprocessing")]
    assert loaded == []


def test_no_module_imports_dataclasses():
    # The value classes derive their methods from geometry._Value; the
    # dataclasses module, with the inspect it loads, cost about 25 ms of
    # every process's start-up.
    importers = []
    for path in sorted((ROOT / "src" / "lattice_equiv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []


def test_no_process_loads_dataclasses_or_inspect():
    # A fresh interpreter that imports the package and its CLI, runs a one-
    # and a two-worker census, decides a 2d and a 3d pair and builds the
    # volume representatives has loaded neither module.
    result = run_in_small_address_space(
        "import sys\n"
        "import lattice_equiv.cli\n"
        "from lattice_equiv import (LatticePolytope, Region,"
        " affine_equivalent, build_volume_representatives, census)\n"
        "assert census(Region.box(2), workers=1).h == 168\n"
        "cube = tuple((x, y, z) for x in (0, 1) for y in (0, 1)"
        " for z in (0, 1))\n"
        "assert affine_equivalent(LatticePolytope(3, cube), LatticePolytope("
        "3, tuple((x + y, y, z) for x, y, z in cube)))\n"
        "assert affine_equivalent(LatticePolytope(2, ((0, 0), (1, 0), "
        "(0, 1))), LatticePolytope(2, ((0, 0), (2, 0), (0, 1))))\n"
        "assert len(build_volume_representatives(6)) == 9\n"
        "assert census(Region.box(2), workers=2).h == 168\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert loaded == [], loaded\n")
    assert result.returncode == 0, result.stderr
