"""Every module under ``documentai_ray/`` is loaded by program code.

A module that only tests import is code its own tests keep alive. The
walk starts at the program's entry points (``__ray_entry__.py``,
``bench.py``, ``tools/``, ``docbench/`` less its tests, and every package
module with a ``__main__`` guard) and follows ``import`` statements, at
module level and inside functions, over the AST: nothing is imported and
Ray is not started.
"""

from __future__ import annotations

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "documentai_ray"

# Modules that only tests import today. Each one goes in the same change
# as the tests that call it; the set may only shrink.
TEST_ONLY = {
    "documentai_ray.stages.assembly",
    "documentai_ray.stages.dq",
    "documentai_ray.stages.linkage",
    "documentai_ray.stages.matching",
    "documentai_ray.stages.privacy",
    "documentai_ray.stages.schema",
    "documentai_ray.stages.spatial",
    "documentai_ray.state.learning",
}


def _package_modules() -> dict[str, str]:
    """Dotted module name → file path for every module of the package."""
    out = {}
    for root, dirs, files in os.walk(os.path.join(ROOT, PKG)):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for f in files:
            if not f.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(root, f), ROOT)[:-3]
            name = rel.replace(os.sep, ".")
            if name.endswith(".__init__"):
                name = name[: -len(".__init__")]
            out[name] = os.path.join(root, f)
    return out


def _imports(path: str, modules: dict[str, str]) -> set[str]:
    """Package modules that the file at ``path`` imports, with the parent
    packages each import loads."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    out = set()
    for name in names:
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules:
                out.add(prefix)
    return out


def _has_main_guard(path: str) -> bool:
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return any(
        isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in tree.body)


def _entry_files() -> list[str]:
    files = [os.path.join(ROOT, "__ray_entry__.py"), os.path.join(ROOT, "bench.py")]
    for d in ("tools", "docbench"):
        for f in sorted(os.listdir(os.path.join(ROOT, d))):
            if f.endswith(".py") and not f.startswith("test_"):
                files.append(os.path.join(ROOT, d, f))
    return files


def _unreached() -> set[str]:
    modules = _package_modules()
    seen: set[str] = set()
    stack = [m for p in _entry_files() for m in _imports(p, modules)]
    stack += [m for m, p in modules.items() if _has_main_guard(p)]
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        stack.extend(_imports(modules[m], modules))
    return set(modules) - seen


def test_every_module_is_loaded_by_program_code():
    unreached = _unreached()
    new = sorted(unreached - TEST_ONLY)
    assert not new, f"modules only tests import: {new}"


def test_test_only_set_is_exact():
    # a listed module that program code now loads, or that is gone,
    # leaves the list
    stale = sorted(TEST_ONLY - _unreached())
    assert not stale, f"no longer test-only, remove from TEST_ONLY: {stale}"

