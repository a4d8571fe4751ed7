"""bergelab benchmark: five workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload find-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--quick] [--seed 1] [--seconds 20]
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

A run sets up and executes whole rounds of its workload's ladder, one op at
a time in this one process, and starts another round while one as fast as
its fastest so far would end no more than half a round after `--seconds`.
Every time it reports is CPU seconds at a reference speed (see speed.py).
It checks every op's output with `checker.py`, writes a run record under
`--out`, and prints one JSON object as its last line. See README.md for
the metrics, the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_REPEATS = 5


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _import_bergelab(meter):
    """Import bergelab from this checkout's src/ IMPORT_REPEATS times, each
    from scratch; returns (modules, median scaled import seconds)."""
    src = ROOT / "src"
    if not (src / "bergelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no bergelab sources under {src}")
    sys.path.insert(0, str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "bergelab" or m.startswith("bergelab.")]:
            del sys.modules[name]
        with meter.block() as timing:
            pkg = importlib.import_module("bergelab")
            for sub in ("cli", "generators", "hypergraph", "lengthcontrol", "oracle"):
                importlib.import_module(f"bergelab.{sub}")
        times.append(timing.scaled_s)
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported bergelab from {pkg.__file__}, not from {src}")
    return pkg, statistics.median(times)


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fresh_process_state() -> None:
    """Drop every functools cache in bergelab and collect garbage, so that
    each round starts from the state a fresh process would have.

    Without it a round runs on a heap that still holds the previous
    rounds' instances through `hypergraph`'s value-keyed caches, and on
    `find-dense` the second round's larger ops took 30 to 45 % longer than
    the first's, so that the rounds of a run did not repeat the same work.
    The caches still act within a round, and `peak_rss_mib` is read at the
    end of the first round.
    """
    for key, mod in list(sys.modules.items()):
        if key == "bergelab" or key.startswith("bergelab."):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()
    gc.collect()


@dataclass
class Round:
    traced: bool
    setup: speed.Timing
    outcomes: list


def _ladder(rounds) -> dict[str, float]:
    """Each rung's scaled op time (see speed.py): its median over the given
    rounds. Ops of one rung do the same work in every round (see
    workloads.py)."""
    per_rung: dict[str, list] = {}
    for r in rounds:
        for oc in r.outcomes:
            per_rung.setdefault(oc.op.rung, []).append(oc.seconds)
    return {rung: statistics.median(v) for rung, v in per_rung.items()}


def _timing_record(t: speed.Timing) -> dict:
    return {"scaled_s": t.scaled_s, "cpu_s": t.cpu_s, "wall_s": t.wall_s,
            "sample_s": t.sample_s, "samples": t.samples}


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool, out_dir: Path) -> dict:
    spec = _load_spec()
    workdir = BENCH_DIR / ".work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    meter = speed.Meter()
    tracer = Tracer(meter.net_cpu) if trace else None
    seen: set = set()
    rounds: list[Round] = []
    correct, errors = True, []
    rss_after_first = None
    fastest_round = float("inf")
    started = perf_counter()
    try:
        pkg, import_s = _import_bergelab(meter)
        workdir.mkdir(parents=True, exist_ok=True)
        rnd = 0
        while True:
            traced = trace and rnd % 2 == 1  # a traced run alternates plain and traced rounds
            round_start = perf_counter()
            if rnd:
                _fresh_process_state()
            if traced:
                tracer.install()
            try:
                with meter.block() as setup:
                    ops = workloads.setup_round(pkg, str(workdir), name, seed, rnd, quick, seen)
                outcomes = [workloads.run_op(pkg, op, meter) for op in ops]
            finally:
                if traced:
                    tracer.uninstall()
            for oc in outcomes:
                if oc.failed and not oc.op.expect_fail:
                    errors.append(f"{oc.op.id}: failed: {oc.error}")
                try:
                    workloads.check(oc)
                except checker.CheckError as exc:
                    correct = False
                    errors.append(f"{oc.op.id}: wrong output: {exc}")
            rounds.append(Round(traced, setup, outcomes))
            if rss_after_first is None:
                rss_after_first = _peak_rss_mib()
            rnd += 1
            fastest_round = min(fastest_round, perf_counter() - round_start)
            if trace and rnd < 2:
                continue
            if perf_counter() - started + fastest_round / 2 > seconds:
                break
    finally:
        meter.close()
        shutil.rmtree(workdir, ignore_errors=True)

    all_outcomes = [oc for r in rounds for oc in r.outcomes]
    plain = _ladder(r for r in rounds if not r.traced)
    metrics: dict[str, dict] = {}
    if not trace:
        values = {
            "setup_s": import_s + statistics.median(r.setup.scaled_s for r in rounds),
            "run_s": sum(plain.values()),
            "op_p50_s": statistics.median(plain.values()),
            "peak_rss_mib": rss_after_first,
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        traced_rounds = [r for r in rounds if r.traced]
        per = tracer.metrics()
        n_traced = len(traced_rounds)
        values = {key: val / n_traced for key, val in per.items()}
        traced_run_s = sum(_ladder(traced_rounds).values())
        values["trace.run_s"] = traced_run_s
        values["trace.overhead_s"] = traced_run_s - sum(plain.values())
        calls, busy = values.get("kernel.spectrum_search.calls", 0), values.get("kernel.spectrum_search.s", 0)
        values["kernel.nodes_per_s"] = values.get("kernel.nodes", 0) / busy if busy else 0.0
        values["kernel.s_per_call"] = busy / calls if calls else 0.0
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}

    kernels = sorted({pkg.oracle.kernel_in_use(oc.op.n) for oc in all_outcomes
                      if oc.op.kind in ("spectrum", "turan")})
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "seconds": seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernels[0] if len(kernels) == 1 else ",".join(kernels) or "none",
        "rounds": len(rounds),
        "correct": correct,
        "attempted": len(all_outcomes),
        "failed": sum(oc.failed for oc in all_outcomes),
        "errors": errors,
        "metrics": metrics,
        "setups": [_timing_record(r.setup) for r in rounds],
        "ops": [
            {"id": oc.op.id, "traced": r.traced, "n": oc.op.n, **_timing_record(oc.timing),
             "failed": oc.failed, "expected_failure": oc.op.expect_fail, "digest": oc.digest}
            for r in rounds for oc in r.outcomes
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = "quick-" if quick else ""
    with open(out_dir / f"{prefix}{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


# ---------------------------------------------------------------------------
# --all and --compare


def run_all(args) -> int:
    status = 0
    print(f"{'workload':16} {'metric':14} {'value':>12} unit")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:16} run failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}")
            status = 1
            continue
        res = json.loads(lines[-1])
        if not res["correct"]:
            status = 1
        for key, m in res["metrics"].items():
            print(f"{name:16} {key:14} {m['value']:12.6g} {m['unit']}")
        print(f"{name:16} {'attempted':14} {res['attempted']:12d} ops")
        print(f"{name:16} {'failed':14} {res['failed']:12d} ops (correct: {res['correct']})")
    return status


def _load_records(directory: Path) -> list[dict]:
    recs = []
    for p in sorted(directory.glob("*-trace0.json")):
        with open(p, "r", encoding="utf-8") as fh:
            recs.append(json.load(fh))
    return recs


def compare(base_dir: Path, new_dir: Path) -> int:
    """One block of rows per workload: median [q1, q3] of every end-to-end
    metric on both sides, flagging a metric whose median got worse by more
    than its bound, then the failed shares and the op digests that differ.
    Refuses runs of another kernel or other seeds; exits 1 on a flag or a
    differing digest."""
    spec = _load_spec()
    base, new = _load_records(base_dir), _load_records(new_dir)
    if not base or not new:
        print("compare: no trace-0 run records in one of the directories", file=sys.stderr)
        return 2
    kb, kn = {r["kernel"] for r in base}, {r["kernel"] for r in new}
    if kb != kn:
        print(f"compare: refusing, kernels differ ({sorted(kb)} vs {sorted(kn)})", file=sys.stderr)
        return 2
    seeds_b = {(r["workload"], r["seed"], r["quick"]) for r in base}
    seeds_n = {(r["workload"], r["seed"], r["quick"]) for r in new}
    if seeds_b != seeds_n:
        print("compare: refusing, the runs use different workloads or seeds", file=sys.stderr)
        return 2
    worse = 0
    print(f"{'workload':16} {'metric':14} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8}")
    for name in sorted({r["workload"] for r in base}):
        b = [r for r in base if r["workload"] == name]
        n = [r for r in new if r["workload"] == name]
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in b]
            nv = [r["metrics"][m["name"]]["value"] for r in n]
            bq, nq = _quartiles(bv), _quartiles(nv)
            change = (nq[1] - bq[1]) / bq[1]
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += bad
            print(f"{name:16} {m['name']:14} "
                  f"{bq[1]:12.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] {nq[1]:12.5g} [{nq[0]:9.5g}, {nq[2]:9.5g}] "
                  f"{change:+8.1%}{'  WORSE' if bad else ''}")
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        share_n = sum(r["failed"] for r in n) / sum(r["attempted"] for r in n)
        digests_b = {(r["seed"], o["id"]): o["digest"] for r in b for o in r["ops"]}
        digests_n = {(r["seed"], o["id"]): o["digest"] for r in n for o in r["ops"]}
        common = digests_b.keys() & digests_n.keys()
        differ = sum(digests_b[k] != digests_n[k] for k in common)
        worse += differ
        print(f"{name:16} failed share {share_b:.4f} -> {share_n:.4f}; "
              f"{differ} of {len(common)} shared op digests differ")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small ladders, for the benchmark's own tests")
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "out", help="directory for run records")
    ap.add_argument("--all", action="store_true", help="run every workload, one process each")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE_DIR", "NEW_DIR"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("one of --workload, --all or --compare is required")
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.out)
    for err in rec["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
