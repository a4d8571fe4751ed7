"""The five workloads: their ladders, instance set-up, ops and output checks.

A round is one pass over a workload's ladder. Each rung has a base
instance: a generated family member under a fixed relabelling. Set-up for a
round sends the base, order-preserving, into PAD more labels than it uses,
at positions drawn from (workload, seed, round, rung), and writes the result
as a `.hg` file; an op then reads that file through bergelab as a user
would. No two ops of a run share an edge list (see `Round.add`).

Why order-preserving: the finders and the spectrum kernel break ties and
symmetry by vertex label, so their work moves with the relabelling (K_5,8
takes 1.6 s to 4.5 s, length control on STS(381) 2.7 s to 3.6 s, across
random relabellings). A map that keeps the order of labels keeps every
comparison, so each op does the same work whatever the seed, while still
being a distinct instance that no cache has seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

import checker

K = 2  # consecutive lengths asked of every finder op


@dataclass
class Op:
    """One timed call into bergelab, with what is needed to check it."""

    id: str
    rung: str  # the ladder position; ops of one rung do the same work
    kind: str  # find | lc | spectrum | turan
    argv: list = field(default_factory=list)
    path: Optional[str] = None
    n: int = 0
    meta: dict = field(default_factory=dict)
    expect_fail: bool = False


@dataclass
class Outcome:
    op: Op
    timing: object  # speed.Timing of the call
    failed: bool
    digest: str
    output: object
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.timing.scaled_s


class Round:
    """The ops of one round; keeps every edge list of the run distinct."""

    def __init__(self, mods, workdir: str, workload: str, seed: int, rnd: int, seen: set):
        self.mods, self.workdir = mods, workdir
        self.workload, self.seed, self.rnd = workload, seed, rnd
        self.seen = seen
        self.ops: list[Op] = []

    def rng(self, tag: str, attempt: int = 0, seeded: bool = True) -> random.Random:
        seed_part = self.seed if seeded else "fixed"
        return random.Random(f"{self.workload}:{seed_part}:{self.rnd}:{tag}:{attempt}")

    def add(self, tag: str, base, seeded: bool = True, **kw) -> Op:
        """Embed `base` at freshly drawn labels, redrawing on a repeat, and write it."""
        for attempt in range(100):
            H = _order_preserving_embedding(self.mods, base, self.rng(tag, attempt, seeded))
            text = self.mods.hypergraph.serialize(H)
            # the canonical text lists the sorted edges after its header line
            key = hashlib.sha256(text.split("\n", 1)[1].encode()).digest()
            if key not in self.seen:
                break
        else:
            raise RuntimeError(f"no fresh instance for {tag}")
        self.seen.add(key)
        path = os.path.join(self.workdir, f"r{self.rnd}-{len(self.ops)}-{tag}.hg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        op = Op(id=f"{self.rnd}:{tag}", rung=tag, path=path, n=H.n, **kw)
        self.ops.append(op)
        return op


PAD = 4  # unused labels per instance


def _order_preserving_embedding(mods, H, rng: random.Random):
    """H with its vertices sent, in order, to H.n of H.n + PAD labels drawn by rng."""
    slots = sorted(rng.sample(range(H.n + PAD), H.n))
    return mods.hypergraph.Hypergraph.from_edges(
        H.n + PAD, [tuple(slots[v] for v in e) for e in H.edges], H.uniformity
    )


# ---------------------------------------------------------------------------
# ladders: (full, quick)

DENSE = (
    # (mode, family, size)
    [("auto", "sts", 133), ("auto", "sts", 255), ("auto", "sts", 381), ("auto", "sts", 769),
     ("general3", "sts", 255), ("general3", "sts", 381),
     ("auto", "lin4", (180, 1300)), ("auto", "lin5", (250, 800))],
    [("auto", "sts", 133), ("general3", "sts", 63), ("auto", "lin4", (60, 120))],
)
SPARSE = (
    # ("path", m) or ("cycles", lengths repeated)
    [("path", 500), ("path", 1000), ("path", 1500),
     ("cycles", (3, 5, 7, 9, 11) * 28), ("cycles", (4, 6, 8, 10) * 36)],
    [("path", 40), ("cycles", (3, 5, 7) * 3)],
)
LENGTH_CONTROL = (
    [(127, 2), (127, 3), (255, 2), (255, 3), (343, 2), (343, 3)],
    [(63, 2), (127, 3)],
)
SPECTRUM = (
    # (a, b, max_len, budget); budget None keeps the CLI default
    [(5, 6, None, None), (6, 6, None, None), (5, 7, None, None), (4, 9, None, None),
     (16, 16, 12, 3_000_000)],
    [(3, 4, None, None), (4, 4, None, None), (6, 6, 12, 20_000)],
)
TURAN = (
    [(9, 3, 2), (9, 3, 3), (8, 3, 4), (7, 3, 5)],
    [(6, 3, 2), (6, 3, 3), (5, 3, 4)],
)


def _loose_path(m: int) -> list[tuple[int, int, int]]:
    return [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)]


def _loose_cycles(lengths) -> tuple[int, list[tuple[int, ...]]]:
    edges, base = [], 0
    for L in lengths:
        for i in range(L):
            edges.append(tuple(sorted((base + 2 * i, base + 2 * i + 1, base + (2 * i + 2) % (2 * L)))))
        base += 2 * L
    return base, edges


def setup_round(mods, workdir: str, workload: str, seed: int, rnd: int, quick: bool, seen: set) -> list[Op]:
    R = Round(mods, workdir, workload, seed, rnd, seen)
    gen = mods.generators
    Hg = mods.hypergraph.Hypergraph
    pick = 1 if quick else 0

    def fixed_relabelling(H, j):
        return gen.permuted(H, 1000 + j)

    if workload == "find-dense":
        for j, (mode, fam, size) in enumerate(DENSE[pick]):
            if fam == "sts":
                base = fixed_relabelling(gen.steiner_triple(size), j)
                tag = f"{j}-{mode}-sts{size}"
            else:
                n, m = size
                base = gen.random_linear_r(n, int(fam[-1]), m, 1000 + j)[0]
                tag = f"{j}-{mode}-{fam}n{n}"
            op = R.add(tag, base, kind="find")
            op.argv = ["find", "--k", str(K), "--input", op.path, "--emit-witnesses", op.path + ".jsonl"]
            if mode != "auto":
                op.argv[3:3] = ["--mode", mode]
            op.meta = {"mode": mode}
    elif workload == "find-sparse":
        for j, (fam, size) in enumerate(SPARSE[pick]):
            if fam == "path":
                base = Hg.from_edges(2 * size + 1, _loose_path(size), 3)
            else:
                base = Hg.from_edges(*_loose_cycles(size), 3)
            op = R.add(f"{j}-{fam}{len(base.edges)}", fixed_relabelling(base, j), kind="find")
            op.argv = ["find", "--mode", "linear3", "--k", str(K), "--input", op.path,
                       "--emit-witnesses", op.path + ".jsonl"]
            op.meta = {"mode": "linear3", "sparse": True}
    elif workload == "length-control":
        for j, (n, h) in enumerate(LENGTH_CONTROL[pick]):
            base = fixed_relabelling(gen.steiner_triple(n), j)
            op = R.add(f"{j}-sts{n}-h{h}", base, kind="lc")
            op.meta = {"h": h}
    elif workload == "spectrum":
        for j, (a, b, max_len, budget) in enumerate(SPECTRUM[pick]):
            expect_fail = budget is not None
            base = fixed_relabelling(gen.complete_bipartite_incidence(a, b), j)
            # the failing op's instance does not depend on the seed
            op = R.add(f"{j}-K{a},{b}", base, seeded=not expect_fail, kind="spectrum",
                       expect_fail=expect_fail)
            max_len = max_len or a + b
            op.argv = ["spectrum", "--input", op.path, "--max-len", str(max_len)]
            if budget is not None:
                op.argv += ["--budget", str(budget)]
            op.meta = {"a": a, "b": b, "max_len": max_len}
    elif workload == "turan":
        # Turán ops read no instance: (n, r, ell) is the whole input, and
        # neither turan_exhaustive nor the kernel keeps a cache to hit.
        for j, (n, r, ell) in enumerate(TURAN[pick]):
            tag = f"{j}-turan{n},{r},{ell}"
            R.ops.append(Op(id=f"{rnd}:{tag}", rung=tag, kind="turan", n=n,
                            argv=["turan", "--n", str(n), "--r", str(r), "--ell", str(ell)],
                            meta={"n": n, "r": r, "ell": ell}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return R.ops


WORKLOADS = ("find-dense", "find-sparse", "length-control", "spectrum", "turan")


# ---------------------------------------------------------------------------
# running and checking one op


def _call_cli(mods, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mods.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _length_control(mods, path: str, h: int) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        H = mods.hypergraph.parse(fh.read())
    run, report = mods.lengthcontrol.length_controlled_search(H, K, h)
    return {
        "run": None if run is None else {
            "shortest_bound": run.shortest_bound,
            "cycles": [[list(w.spine), list(w.edges)] for w in run.cycles],
        },
        "levels": [[lv.level, lv.size, lv.down, lv.level_mass, lv.certified, lv.growth_ok]
                   for lv in report.levels],
        "threshold_met": report.threshold_met,
    }


def run_op(mods, op: Op, meter) -> Outcome:
    """Time one op with `meter` (a speed.Meter). Only the call into bergelab
    is inside the block; its thread CPU time counts user and system time,
    so file I/O through the page cache counts."""
    try:
        with meter.block() as timing:
            if op.kind == "lc":
                output = _length_control(mods, op.path, op.meta["h"])
            else:
                rc, out, err = _call_cli(mods, op.argv)
    except Exception as exc:  # a raised proof failure, or cli.main let one escape
        return Outcome(op, timing, True, "", None, repr(exc))
    if op.kind == "lc":
        return Outcome(op, timing, False, _digest(output), output)
    wit = ""
    if op.kind == "find" and os.path.exists(op.path + ".jsonl"):
        with open(op.path + ".jsonl", "r", encoding="utf-8") as fh:
            wit = fh.read()
    output = {"rc": rc, "stdout": out, "witnesses": wit}
    return Outcome(op, timing, rc != 0, _digest(output), output, err.strip() or None)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def check(outcome: Outcome) -> None:
    """Raise checker.CheckError when an op's output is wrong."""
    op, out = outcome.op, outcome.output
    if outcome.failed:
        if op.kind == "spectrum" and out is not None and out["rc"] == 3:
            a, b = op.meta["a"], op.meta["b"]
            checker.check_spectrum_output(
                out["stdout"], checker.bipartite_spectrum(a, b, op.meta["max_len"]), partial=True)
        return
    if op.path is not None:
        with open(op.path, "r", encoding="utf-8") as fh:
            r, n, edges = checker.parse_hg(fh.read())
    if op.kind == "find":
        lengths = checker.check_run_report(edges, K, out["stdout"], out["witnesses"])
        m = len(edges)
        if op.meta.get("sparse"):
            checker.check_no_consecutive_lengths(n, edges, K)
            if lengths:
                raise checker.CheckError(f"run {lengths} reported where none exists")
        elif op.meta["mode"] == "auto" and r == 3 and 3 * m >= 21 * (K + 1) * n and not lengths:
            raise checker.CheckError(f"no run at average degree {3 * m / n:.1f} >= {21 * (K + 1)}")
    elif op.kind == "lc":
        run = out["run"]
        if run is not None:
            lengths = [len(spine) for spine, _ in run["cycles"]]
            if len(lengths) != K or any(b - a != 1 for a, b in zip(lengths, lengths[1:])):
                raise checker.CheckError(f"lengths {lengths} are not {K} consecutive values")
            if lengths[0] > min(run["shortest_bound"], 2 * op.meta["h"]):
                raise checker.CheckError(f"shortest {lengths[0]} above 2h = {2 * op.meta['h']}")
            for spine, eids in run["cycles"]:
                checker.check_witness(edges, spine, eids)
    elif op.kind == "spectrum":
        a, b = op.meta["a"], op.meta["b"]
        checker.check_spectrum_output(
            out["stdout"], checker.bipartite_spectrum(a, b, op.meta["max_len"]), partial=False)
    elif op.kind == "turan":
        m = op.meta
        checker.check_turan_output(out["stdout"], m["n"], m["r"], m["ell"])
