"""No build output or generated file is tracked in git, and no module of
the package imports another module's private names or reads another
module's private attributes."""

import ast
import subprocess
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
