"""No build output or generated file is tracked in git."""

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
