"""List the statements of `src/bergelab` that a pytest run never executes.

    python tools/unrun.py [pytest arguments]     (default: -q tests)

Runs pytest in this process under `sys.settrace` and `threading.settrace`,
recording the lines executed in frames of `src/bergelab`. A statement is
one `ast.stmt`; it counts as run when any line of its own ran (for a
compound statement, its header lines and decorators, not its body). Lines
that compile to no bytecode are not counted. The statements that never ran
are printed per module, raises listed apart, then the totals.

Uses only the standard library. Code run in a child process, such as the
CLI tests' `subprocess` calls, is not traced. A whole tier-1 run takes a
few minutes, about four times its untraced time, so this stays outside
tier-1.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "bergelab"


def code_lines(code: types.CodeType) -> set[int]:
    """Lines holding bytecode in a code object and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def statements(tree: ast.Module):
    """(statement, its own lines) for every statement of a module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # compound: the lines above the body
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = range(first, body[0].lineno)
        else:
            own = range(node.lineno, node.end_lineno + 1)
        yield node, set(own)


def trace_tests(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    prefix = str(PKG) + "/"
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def report(hits: dict[str, set[int]]) -> None:
    total = unrun_total = raises_total = 0
    for path in sorted(PKG.glob("*.py")):
        src = path.read_text()
        lines = src.splitlines()
        executable = code_lines(compile(src, str(path), "exec"))
        ran = hits.get(str(path), set())
        unrun, raises = [], []
        for node, own in statements(ast.parse(src, str(path))):
            if not own & executable:
                continue
            total += 1
            if own & ran:
                continue
            entry = f"  {path.name}:{node.lineno}  {lines[node.lineno - 1].strip()}"
            (raises if isinstance(node, ast.Raise) else unrun).append((node.lineno, entry))
        unrun_total += len(unrun)
        raises_total += len(raises)
        if unrun or raises:
            print(f"{path.name}: {len(unrun)} never run, {len(raises)} raises never run")
            for _, entry in sorted(unrun):
                print(entry)
            if raises:
                print("  -- raises --")
                for _, entry in sorted(raises):
                    print(entry)
    print(
        f"{unrun_total + raises_total} of {total} statements never ran "
        f"({unrun_total} non-raise, {raises_total} raise)"
    )


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = trace_tests(argv or ["-q", str(ROOT / "tests")])
    report(hits)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
