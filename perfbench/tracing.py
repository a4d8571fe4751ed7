"""Spans around bergelab's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function, in every loaded bergelab
module that holds a reference to it, by a wrapper that records a span
(id, parent id, name, start, end); `uninstall()` puts the originals back.
Nothing under `src/` changes, and an untraced run executes no wrapper.

Spans stay in memory; `metrics()` folds them into per-module totals:
`X.s` is inclusive busy time (outermost span of X only, so recursion is
not counted twice), `X.self_s` is span time minus direct child spans, and
`X.calls` counts spans. Counters taken from return values are recorded at
the same boundary.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict

# (module, function, span name). The span name of the spectrum kernel is
# `kernel.spectrum_search` because metric names may not start with "_".
TARGETS = (
    ("cli", "main", "cli.main"),
    ("hypergraph", "parse", "hypergraph.parse"),
    ("hypergraph", "is_linear", "hypergraph.is_linear"),
    ("hypergraph", "pair_covers", "hypergraph.pair_covers"),
    ("hypergraph", "incidence", "hypergraph.incidence"),
    ("skeleton", "build_skeleton", "skeleton.build_skeleton"),
    ("skeleton", "classify_levels", "skeleton.classify_levels"),
    ("finder", "skeleton_sweep", "finder.skeleton_sweep"),
    ("finder", "find_linear_r", "finder.find_linear_r"),
    ("finder", "find_general_3", "finder.find_general_3"),
    ("finder", "split_by_codegree", "finder.split_by_codegree"),
    ("finder", "cycles_from_down_edges", "finder.cycles_from_down_edges"),
    ("finder", "cycles_or_level_bound", "finder.cycles_or_level_bound"),
    ("graphs", "long_cycle_from_density", "graphs.long_cycle_from_density"),
    ("pathtools", "special_path", "pathtools.special_path"),
    ("pathtools", "special_linear_path", "pathtools.special_linear_path"),
    ("pathtools", "linear_xy_path", "pathtools.linear_xy_path"),
    ("reports", "report_run", "reports.report_run"),
    ("lengthcontrol", "length_controlled_search", "lengthcontrol.length_controlled_search"),
    ("oracle", "oracle_spectrum", "oracle.oracle_spectrum"),
    ("_spectrum", "spectrum_search", "kernel.spectrum_search"),
    ("_spectrum_cy", "spectrum_search", "kernel.spectrum_search"),
    ("turan", "turan_exhaustive", "turan.turan_exhaustive"),
    ("certify", "verify_cycle", "certify.verify_cycle"),
    ("generators", "steiner_triple", "generators.steiner_triple"),
    ("generators", "permuted", "generators.permuted"),
    ("generators", "random_linear_r", "generators.random_linear_r"),
)

# Counters read from a traced function's return value.
RESULT_COUNTERS = {
    "kernel.spectrum_search": lambda res: {"kernel.nodes": res[1]},
    "oracle.oracle_spectrum": lambda res: {"oracle.budget_exhausted": int(res.budget_exhausted)},
    "turan.turan_exhaustive": lambda res: {"turan.nodes": res.nodes},
}


PACKAGE = "bergelab"


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # seconds; speed.Meter.net_cpu in a run
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        counter = RESULT_COUNTERS.get(name)
        spans, stack, counts, ids, clock = self.spans, self._stack, self.counts, self._ids, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, name, t0, t1))
            if counter is not None:
                for key, val in counter(res).items():
                    counts[key] += val
            return res

        return traced

    def install(self) -> None:
        mods = {
            key: mod
            for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        }
        for modname, fname, name in TARGETS:
            owner = mods.get(f"{PACKAGE}.{modname}")
            if owner is None:
                continue
            orig = getattr(owner, fname)
            wrapper = self._wrap(orig, name)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Totals over every recorded span, keyed by metric name."""
        name_of = {sid: name for sid, _, name, _, _ in self.spans}
        parent_of = {sid: parent for sid, parent, _, _, _ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent != -1:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        out.update(self.counts)
        for sid, parent, name, t0, t1 in self.spans:
            ancestors = _ancestors(sid, parent_of, name_of)
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - child_time[sid]
            if name not in ancestors:
                out[name + ".s"] += t1 - t0
            if name == "skeleton.build_skeleton" and "finder.skeleton_sweep" in ancestors:
                out["finder.sweep_iterations"] += 1
        return out


def _ancestors(sid: int, parent_of: dict[int, int], name_of: dict[int, str]) -> set[str]:
    names = set()
    p = parent_of[sid]
    while p != -1:
        names.add(name_of[p])
        p = parent_of[p]
    return names
