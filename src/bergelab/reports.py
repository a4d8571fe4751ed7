"""Witness serialization and run reports.

Witness JSON lines use the fixed field order
{"type":"berge-cycle","length":L,"spine":[...],"edges":[...]} and compact
separators, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

from .certify import BergeCycleWitness, verify_cycle
from .errors import VerificationFailure
from .finder import ConsecutiveRun
from .hypergraph import Hypergraph


def witness_to_json(w: BergeCycleWitness) -> str:
    doc = {
        "type": "berge-cycle",
        "length": w.length,
        "spine": list(w.spine),
        "edges": list(w.edges),
    }
    return json.dumps(doc, separators=(",", ":"))


def witness_from_json(line: str) -> BergeCycleWitness:
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise VerificationFailure(f"witness line is a JSON {type(doc).__name__}, not an object")
    if doc.get("type") != "berge-cycle":
        raise VerificationFailure(f"unknown witness type {doc.get('type')!r}")
    spine = tuple(int(v) for v in doc["spine"])
    edges = tuple(int(e) for e in doc["edges"])
    if doc.get("length") != len(spine):
        raise VerificationFailure("declared length disagrees with the spine")
    return BergeCycleWitness(spine=spine, edges=edges)


def run_to_csv(run: ConsecutiveRun) -> str:
    lines = ["length,shortest_bound"]
    for w in run.cycles:
        lines.append(f"{w.length},{run.shortest_bound}")
    return "\n".join(lines) + "\n"


def run_to_jsonl(run: ConsecutiveRun) -> str:
    return "".join(witness_to_json(w) + "\n" for w in run.cycles)


def report_run(run: ConsecutiveRun, H: Hypergraph) -> tuple[str, str]:
    """Verify then render (csv, jsonl); raises VerificationFailure."""
    for w in run.cycles:
        res = verify_cycle(H, w)
        if not res:
            raise VerificationFailure(f"{res.reason}: {res.detail}")
    lens = run.lengths()
    if len(lens) != run.k or any(b - a != 1 for a, b in zip(lens, lens[1:])):
        raise VerificationFailure(f"lengths {lens} are not {run.k} consecutive values")
    if lens and lens[0] > run.shortest_bound:
        raise VerificationFailure(
            f"shortest length {lens[0]} exceeds the bound {run.shortest_bound}"
        )
    return run_to_csv(run), run_to_jsonl(run)
