"""The benchmark's own tests.

    python3 perfbench/selftest.py

They show that the checker rejects corrupted output, that no two ops of a
run share an edge list, that tracing leaves every op's output unchanged,
and that the quick ladders of all five workloads run and check clean.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from itertools import combinations
from pathlib import Path
from time import thread_time

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SCRATCH = BENCH_DIR / ".work" / "selftest"


def setUpModule():
    meter = speed.Meter()
    try:
        run._import_bergelab(meter)
    finally:
        meter.close()
    SCRATCH.mkdir(parents=True, exist_ok=True)


def pkg():
    """The bergelab package now in sys.modules (a run re-imports it)."""
    return sys.modules["bergelab"]


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


# a 3-graph with one Berge triangle 0-2-4 through edges 0, 1, 2
TRI = [(0, 1, 2), (2, 3, 4), (0, 4, 5)]


class CheckerRejects(unittest.TestCase):
    def test_witness_checker(self):
        checker.check_witness(TRI, [0, 2, 4], [0, 1, 2])
        bad = [
            ([0, 2, 2], [0, 1, 2]),  # spine repeats
            ([0, 2, 4], [0, 1, 1]),  # edge index repeats
            ([0, 2, 4], [0, 1, 3]),  # index out of range
            ([0, 2, 4], [1, 0, 2]),  # pair (0,2) not inside edge 1
            ([0, 2, 4], [0, 1]),  # fewer edges than spine vertices
        ]
        for spine, eids in bad:
            with self.assertRaises(checker.CheckError, msg=f"{spine} {eids}"):
                checker.check_witness(TRI, spine, eids)

    def test_run_report_checker(self):
        # STS(7): cycles of lengths 3 and 4
        fano = sorted([(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)])
        w3 = {"type": "berge-cycle", "length": 3, "spine": [0, 1, 3], "edges": [0, 3, 1]}
        w4 = {"type": "berge-cycle", "length": 4, "spine": [0, 1, 5, 4], "edges": [0, 3, 6, 1]}
        good_csv = "length,shortest_bound\n3,4\n4,4\n"
        jl = lambda *ws: "".join(json.dumps(w) + "\n" for w in ws)  # noqa: E731
        self.assertEqual(checker.check_run_report(fano, 2, good_csv, jl(w3, w4)), [3, 4])
        self.assertEqual(checker.check_run_report(fano, 2, "length,shortest_bound\n", ""), [])
        bad = [
            ("length,shortest_bound\n3,4\n5,4\n", jl(w3, w4)),  # not consecutive
            ("length,shortest_bound\n3,2\n4,2\n", jl(w3, w4)),  # shortest above bound
            (good_csv, jl(w3)),  # a witness missing
            (good_csv, jl(w4, w3)),  # JSONL order disagrees with CSV
            (good_csv, jl(w3, dict(w4, edges=[0, 3, 1, 1]))),  # corrupted witness
            ("length,shortest_bound\n3,4\n", jl(w3)),  # fewer than k lengths
            ("length,shortest_bound\n", jl(w3)),  # witnesses for no run
        ]
        for csv_text, jsonl in bad:
            with self.assertRaises(checker.CheckError, msg=csv_text + jsonl):
                checker.check_run_report(fano, 2, csv_text, jsonl)

    def test_wrong_spectra(self):
        expected = checker.bipartite_spectrum(4, 4, 8)
        self.assertEqual(expected, [4, 6, 8])
        self.assertEqual(checker.bipartite_spectrum(16, 16, 12), [4, 6, 8, 10, 12])
        checker.check_spectrum_output("length\n4\n6\n8\n", expected, partial=False)
        checker.check_spectrum_output("length\n4\n6\n", expected, partial=True)
        for text, partial in [("length\n4\n6\n", False), ("length\n4\n5\n6\n8\n", False),
                              ("length\n4\n6\n8\n10\n", False), ("length\n6\n4\n8\n", False),
                              ("length\n3\n4\n", True), ("count\n4\n", False)]:
            with self.assertRaises(checker.CheckError, msg=text):
                checker.check_spectrum_output(text, expected, partial)

    def test_turan_properties(self):
        rc, out, _ = workloads._call_cli(pkg(), ["turan", "--n", "6", "--r", "3", "--ell", "3"])
        self.assertEqual(rc, 0)
        checker.check_turan_output(out, 6, 3, 3)
        head, row, hg = out.split("\n", 2)
        _, _, edges = checker.parse_hg(hg)
        fields = row.split(",")

        def text(edge_list, value=None, exact="1"):
            f = list(fields)
            f[3] = str(len(edge_list) if value is None else value)
            f[4] = exact
            body = "".join(" ".join(map(str, e)) + "\n" for e in edge_list)
            return f"{head}\n{','.join(f)}\n3 6 {len(edge_list)}\n{body}"

        checker.check_turan_output(text(edges), 6, 3, 3)
        absent = [t for t in combinations(range(6), 3) if t not in set(edges)]
        for corrupted in [text(edges[1:]),  # not maximal
                          text(edges + absent[:1]),  # contains a Berge 3-cycle
                          text(edges, value=len(edges) + 1),  # value disagrees
                          text(edges, exact="0")]:
            with self.assertRaises(checker.CheckError):
                checker.check_turan_output(corrupted, 6, 3, 3)
        # l = 2: the value must be the triple packing number
        rc, out, _ = workloads._call_cli(pkg(), ["turan", "--n", "7", "--r", "3", "--ell", "2"])
        self.assertEqual(checker.check_turan_output(out, 7, 3, 2), 7)

    def test_closed_forms(self):
        self.assertEqual([checker.triple_packing_number(n) for n in (5, 6, 7, 8, 9)], [2, 4, 7, 8, 12])

    def test_sparse_lengths(self):
        n, edges = workloads._loose_cycles((3, 5, 4))
        self.assertEqual(checker.unicyclic_berge_lengths(n, edges), [3, 4, 5])
        with self.assertRaises(checker.CheckError):
            checker.check_no_consecutive_lengths(n, edges, 2)
        n, edges = workloads._loose_cycles((3, 5, 7))
        checker.check_no_consecutive_lengths(n, edges, 2)
        self.assertEqual(checker.unicyclic_berge_lengths(2 * 9 + 1, workloads._loose_path(9)), [])
        with self.assertRaises(checker.CheckError):  # STS(7) is not unicyclic
            checker.unicyclic_berge_lengths(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5)])

    def test_berge_cycle_search_against_networkx(self):
        try:
            import networkx as nx
        except ImportError:
            self.skipTest("networkx not installed")
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(4, 8)
            edges = sorted(set(tuple(sorted(rng.sample(range(n), 3))) for _ in range(rng.randrange(1, 6))))
            G = nx.Graph()
            G.add_edges_from((v, ("e", i)) for i, e in enumerate(edges) for v in e)
            lengths = {len(c) // 2 for c in nx.simple_cycles(G, length_bound=2 * n)}
            for ell in range(2, n + 1):
                self.assertEqual(checker.has_berge_cycle(n, edges, ell), ell in lengths, (edges, ell))


class Instances(unittest.TestCase):
    def test_no_two_ops_share_an_edge_list(self):
        for name in workloads.WORKLOADS:
            seen, keys = set(), {}
            workdir = SCRATCH / f"distinct-{name}"
            workdir.mkdir(parents=True, exist_ok=True)
            quick = name != "spectrum"  # the full spectrum ladder is cheap to set up
            for rnd in range(4):
                for op in workloads.setup_round(pkg(), str(workdir), name, 3, rnd, quick, seen):
                    if op.path is None:
                        continue
                    with open(op.path, "r", encoding="utf-8") as fh:
                        key = checker.edge_list_key(checker.parse_hg(fh.read())[2])
                    self.assertNotIn(key, keys, f"{op.id} repeats {keys.get(key)}")
                    keys[key] = op.id

    def test_same_seed_same_instances(self):
        a, b = SCRATCH / "seed-a", SCRATCH / "seed-b"
        for d in (a, b):
            d.mkdir(parents=True, exist_ok=True)
        ops_a = workloads.setup_round(pkg(), str(a), "find-sparse", 9, 2, True, set())
        ops_b = workloads.setup_round(pkg(), str(b), "find-sparse", 9, 2, True, set())
        for x, y in zip(ops_a, ops_b):
            self.assertEqual(Path(x.path).read_text(), Path(y.path).read_text())


class Tracing(unittest.TestCase):
    def test_traced_outputs_equal_untraced(self):
        for name in workloads.WORKLOADS:
            digests = []
            for traced in (False, True):
                workdir = SCRATCH / f"trace-{name}-{int(traced)}"
                workdir.mkdir(parents=True, exist_ok=True)
                tracer, meter = Tracer(thread_time), speed.Meter()
                if traced:
                    tracer.install()
                try:
                    ops = workloads.setup_round(pkg(), str(workdir), name, 4, 0, True, set())
                    digests.append([workloads.run_op(pkg(), op, meter).digest for op in ops])
                finally:
                    tracer.uninstall()
                    meter.close()
                self.assertEqual(bool(tracer.spans), traced)
            self.assertEqual(digests[0], digests[1], name)

    def test_uninstall_restores_every_function(self):
        before = {m: dict(vars(mod)) for m, mod in sys.modules.items() if m.startswith("bergelab")}
        tracer = Tracer(thread_time)
        tracer.install()
        self.assertIsNot(pkg().cli.skeleton_sweep, before["bergelab.cli"]["skeleton_sweep"])
        tracer.uninstall()
        for m, attrs in before.items():
            for key, val in attrs.items():
                self.assertIs(getattr(sys.modules[m], key), val, f"{m}.{key}")

    def test_self_time_and_sweep_iterations(self):
        tracer = Tracer(thread_time)
        tracer.spans = [
            (0, 1, "skeleton.build_skeleton", 1.0, 2.0),
            (2, 1, "skeleton.build_skeleton", 3.0, 3.5),
            (1, -1, "finder.skeleton_sweep", 0.0, 4.0),
            (3, -1, "skeleton.build_skeleton", 5.0, 6.0),
        ]
        m = tracer.metrics()
        self.assertEqual(m["finder.skeleton_sweep.self_s"], 2.5)
        self.assertEqual(m["skeleton.build_skeleton.calls"], 3)
        self.assertEqual(m["finder.sweep_iterations"], 2)


class Meter(unittest.TestCase):
    def test_scaled_time_of_samples_is_their_count(self):
        """A block doing n samples' work reads about n reference samples,
        whatever the host's speed, and the samples taken inside it are not
        counted in its time."""
        meter = speed.Meter()
        try:
            with meter.block() as t:
                for _ in range(200):
                    speed.sample()
        finally:
            meter.close()
        self.assertGreater(t.samples, 2 * speed.BRACKET)
        self.assertGreater(meter.sampling_s, 0)
        self.assertAlmostEqual(t.scaled_s / speed.REF_S, 200, delta=200 * 0.25)


class EndToEnd(unittest.TestCase):
    def test_quick_runs_check_clean(self):
        out = SCRATCH / "records"
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                rec = run.run_workload(name, 2, 0.5, trace, True, out)
                self.assertTrue(rec["correct"], rec["errors"])
                self.assertGreaterEqual(rec["attempted"], 1)
                self.assertEqual([o["failed"] for o in rec["ops"]],
                                 [o["expected_failure"] for o in rec["ops"]], rec["errors"])
        # compare accepts the same records and refuses another seed
        self.assertIn(run.compare(out, out), (0, 1))
        other = SCRATCH / "records-other"
        other.mkdir(exist_ok=True)
        for p in out.glob("*trace0.json"):
            rec = json.loads(p.read_text())
            rec["seed"] += 1
            (other / p.name).write_text(json.dumps(rec))
        self.assertEqual(run.compare(out, other), 2)

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "turan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
