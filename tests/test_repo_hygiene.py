"""No build output or generated file is tracked in git, no module of the
package imports another module's private names or reads another module's
private attributes, and every name the benchmark reads still resolves."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FORBIDDEN = ("*.egg-info/*", "*.c", "*.so", "test_output.txt", "*/test_output.txt")


def tracked_files():
    try:
        res = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if res.returncode != 0:
        pytest.skip("not a git checkout")
    return res.stdout.splitlines()


def test_no_build_output_tracked():
    bad = [f for f in tracked_files() if any(fnmatch(f, pat) for pat in FORBIDDEN)]
    assert bad == []


def test_no_private_imports_across_modules():
    # a module's `_`-prefixed names are its own: no other module of the
    # package imports them
    bad = []
    for path in sorted((ROOT / "src" / "bergelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("bergelab"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    bad.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert bad == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_private_attributes_read_across_modules():
    # an attribute `x._name` is read only in the module that defines
    # `_name`: as a function, class, assignment target, dataclass field or
    # the name given to `object.__setattr__`. So no module trusts, say,
    # `H._linear` in place of `is_linear(H)`.
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "bergelab").glob("*.py"))
    }
    defined = {}
    for name, tree in trees.items():
        own = defined[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                own.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                own.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                own.add(node.args[1].value)
    bad = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and _private(node.attr)
                and node.attr not in defined[name]
            ):
                bad.append(f"{name}:{node.lineno} reads .{node.attr}")
    assert bad == []


# the one exhaustive search is reached only through these modules, so no
# constructive route can fall back to it unseen
IMPORTERS = {
    "_spectrum": {"oracle", "turan", "graphs"},
    "oracle": {"cli", "__init__"},
}


def test_exhaustive_search_importers():
    bad = []
    for path in sorted((ROOT / "src" / "bergelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    names = [node.module] if node.module else [a.name for a in node.names]
                elif (node.module or "").startswith("bergelab."):
                    names = [node.module[len("bergelab."):]]
                elif node.module == "bergelab":
                    names = [a.name for a in node.names]
                else:
                    continue
            elif isinstance(node, ast.Import):
                names = [a.name[len("bergelab."):] for a in node.names if a.name.startswith("bergelab.")]
            else:
                continue
            for name in names:
                allowed = IMPORTERS.get(name.split(".")[0])
                if allowed is not None and path.stem not in allowed:
                    bad.append(f"{path.name}:{node.lineno} imports {name}")
    assert bad == []


def test_workflow_test_selectors_collect():
    # each `tests/<file>.py::<name>` the CI workflow runs on its own still
    # names a test: a renamed class or function would leave that step
    # running nothing, or failing for a reason no test states
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    selectors = sorted(set(re.findall(r"tests/[\w/]+\.py::[\w:]+", workflow)))
    assert selectors
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *selectors],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert res.returncode == 0, res.stdout + res.stderr
    collected = res.stdout.splitlines()
    for sel in selectors:
        assert any(line == sel or line.startswith((sel + "::", sel + "[")) for line in collected), sel


def test_benchmark_pinned_names_resolve():
    # perfbench patches the functions in `tracing.TARGETS` by module and
    # name, and `run.py` reads `oracle.kernel_in_use`: renaming or deleting
    # a target breaks every traced run, and `kernel_in_use` every run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pkg = ROOT / "src" / "bergelab"
    targets = [(mod, fname) for mod, fname, _ in tracing.TARGETS if (pkg / f"{mod}.py").is_file()]
    assert targets
    missing = [
        f"{mod}.{fname}"
        for mod, fname in targets
        if not callable(getattr(importlib.import_module("bergelab." + mod), fname, None))
    ]
    assert missing == []
    assert callable(getattr(importlib.import_module("bergelab.oracle"), "kernel_in_use", None))
