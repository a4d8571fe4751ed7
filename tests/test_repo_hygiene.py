"""No build output or generated file is tracked in git, and no module of
the package imports another module's private names."""

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
