"""Witness serialization and run reports.

Witness JSON lines use the fixed field order
{"type":"berge-cycle","length":L,"spine":[...],"edges":[...]} and compact
separators, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

from .certify import BergeCycleWitness
from .errors import InternalProofFailure, VerificationFailure
from .finder import ConsecutiveRun, validate_run
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
    try:
        validate_run(H, run)
    except InternalProofFailure as exc:
        raise VerificationFailure(str(exc)) from exc
    return run_to_csv(run), run_to_jsonl(run)
