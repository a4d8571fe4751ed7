"""Command-line workbench.

Subcommands: gen, find, skeleton, spectrum, turan, verify.
Exit codes: 0 success, 1 verification failure, 2 precondition, 3 budget.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import (
    BergelabError,
    DuplicateEdge,
    EdgeSizeMismatch,
    MalformedLine,
    PreconditionUnmet,
    VerificationFailure,
    VertexOutOfRange,
)
from .finder import find_general_3, find_general_r, find_linear_r, skeleton_sweep
from .generators import GeneratorSpec, generate
from .hypergraph import Hypergraph, average_degree, is_linear, parse, serialize
from .oracle import oracle_spectrum
from .reports import report_run, witness_from_json
from .skeleton import build_skeleton, classify_levels
from .turan import turan_exhaustive
from .certify import verify_cycle

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3

# Error type -> (message prefix, exit code); the first row the error is an
# instance of wins. Input that cannot be read or does not parse is a
# precondition (2); a failed check of a result (verification, proof step,
# classification) is 1.
_ERRORS = (
    (VerificationFailure, "verification failure: ", EXIT_VERIFY),
    (PreconditionUnmet, "precondition unmet: ", EXIT_PRECONDITION),
    (OSError, "", EXIT_PRECONDITION),
    (
        (MalformedLine, DuplicateEdge, VertexOutOfRange, EdgeSizeMismatch, UnicodeDecodeError),
        "invalid input: ",
        EXIT_PRECONDITION,
    ),
    (BergelabError, "error: ", EXIT_VERIFY),
)


def _read_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _cmd_gen(args) -> int:
    params: dict = {}
    for key in ("n", "r", "m", "a", "b"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    params["seed"] = args.seed
    H = generate(GeneratorSpec(args.family, params))
    if args.family == "randomLinearR" and len(H.edges) < args.m:
        print(f"requested {args.m} edges, achieved {len(H.edges)}", file=sys.stderr)
    text = serialize(H)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _pick_mode(H: Hypergraph, mode: str) -> str:
    if mode != "auto":
        return mode
    linear = is_linear(H)
    if H.uniformity == 3:
        return "linear3" if linear else "general3"
    return "linearR" if linear else "generalR"


def _cmd_find(args) -> int:
    H = _read_hypergraph(args.input)
    mode = _pick_mode(H, args.mode)
    finder = {
        "linear3": skeleton_sweep,
        "linearR": find_linear_r,
        "general3": find_general_3,
        "generalR": find_general_r,
    }[mode]
    run = finder(H, args.k)
    if run is None:
        print("length,shortest_bound")
        print(f"status: no run found (mode {mode}, d = {average_degree(H)})", file=sys.stderr)
        return EXIT_OK
    csv_text, jsonl_text = report_run(run, H)
    sys.stdout.write(csv_text)
    if args.emit_witnesses:
        with open(args.emit_witnesses, "w", encoding="utf-8") as fh:
            fh.write(jsonl_text)
    return EXIT_OK


def _cmd_skeleton(args) -> int:
    H = _read_hypergraph(args.input)
    sk = build_skeleton(H, args.root)
    cls = classify_levels(H, sk)
    print("i,L,A,B,C")
    for i in range(sk.height + 1):
        print(
            f"{i},{len(sk.levels[i])},{len(cls.down[i])},"
            f"{len(cls.within[i])},{len(cls.up[i])}"
        )
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    H = _read_hypergraph(args.input)
    max_len = args.max_len if args.max_len is not None else H.n
    spec = oracle_spectrum(H, max_len, budget=args.budget)
    print("length")
    for L in spec.lengths:
        print(L)
    if spec.budget_exhausted:
        print("status: budget exhausted, spectrum is partial", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_turan(args) -> int:
    rec = turan_exhaustive(args.n, args.r, args.ell, budget=args.budget)
    print("n,r,forbidden_length,value,exact,nodes")
    print(
        f"{rec.n},{rec.r},{rec.forbidden_length},{rec.value},"
        f"{int(rec.exact)},{rec.nodes}"
    )
    sys.stdout.write(serialize(rec.extremal))
    return EXIT_OK if rec.exact else EXIT_BUDGET


def _cmd_verify(args) -> int:
    H = _read_hypergraph(args.input)
    ok = True
    with open(args.witnesses, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # json.loads raises RecursionError on deep nesting, and int() of
            # an infinite float raises OverflowError
            try:
                w = witness_from_json(line)
            except (
                VerificationFailure, ValueError, KeyError, TypeError, OverflowError, RecursionError
            ) as exc:
                print(f"line {lineno}: malformed witness ({exc})", file=sys.stderr)
                ok = False
                continue
            res = verify_cycle(H, w)
            if res:
                print(f"line {lineno}: ok (length {w.length})")
            else:
                print(f"line {lineno}: FAIL {res.reason} {res.detail or ''}", file=sys.stderr)
                ok = False
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bergelab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance and write .hg")
    g.add_argument(
        "--family",
        required=True,
        choices=["completeR", "steinerTriple", "randomLinearR", "tightPath", "bipartiteIncidence"],
    )
    g.add_argument("--n", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--a", type=int)
    g.add_argument("--b", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_gen)

    f = sub.add_parser("find", help="find k consecutive Berge cycle lengths")
    f.add_argument("--k", type=int, required=True)
    f.add_argument(
        "--mode",
        default="auto",
        choices=["linear3", "linearR", "general3", "generalR", "auto"],
    )
    f.add_argument("--input", required=True)
    f.add_argument("--emit-witnesses")
    f.set_defaults(fn=_cmd_find)

    s = sub.add_parser("skeleton", help="dump skeleton levels and class sizes as CSV")
    s.add_argument("--input", required=True)
    s.add_argument("--root", type=int, default=0)
    s.set_defaults(fn=_cmd_skeleton)

    sp = sub.add_parser("spectrum", help="brute-force Berge cycle spectrum")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-len", type=int)
    sp.add_argument("--budget", type=int, default=10**7)
    sp.set_defaults(fn=_cmd_spectrum)

    t = sub.add_parser("turan", help="exact desk-scale Turan number")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--ell", type=int, required=True)
    t.add_argument("--budget", type=int, default=10**8)
    t.set_defaults(fn=_cmd_turan)

    v = sub.add_parser("verify", help="verify witness JSON lines against a hypergraph")
    v.add_argument("--input", required=True)
    v.add_argument("--witnesses", required=True)
    v.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "k", 1) < 1:
        print("--k must be at least 1", file=sys.stderr)
        return EXIT_PRECONDITION
    # no command makes reference cycles, so the cyclic collector could only
    # rescan the caller's heap: it is paused for the whole command and
    # restored as found on every exit
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (BergelabError, OSError, UnicodeDecodeError) as exc:
        prefix, code = next(row for kind, *row in _ERRORS if isinstance(exc, kind))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
