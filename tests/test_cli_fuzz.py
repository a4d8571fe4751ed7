"""Fuzzing the command line: whatever the arguments or the bytes of the
input files, `cli.main` ends with a documented exit code (0, 1, 2 or 3, or
argparse's SystemExit) and no exception escapes as a traceback. Sizes are
capped so that every example runs in milliseconds."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from itertools import combinations

from bergelab.certify import verify_cycle
from bergelab.cli import main
from bergelab.generators import complete_r, steiner_triple
from bergelab.hypergraph import is_linear, parse, serialize
from bergelab.reports import witness_from_json

from naive import naive_build_skeleton, naive_spectrum

EXIT_CODES = {0, 1, 2, 3}
FAMILIES = ["completeR", "steinerTriple", "randomLinearR", "tightPath", "bipartiteIncidence"]
MODES = ["linear3", "linearR", "general3", "generalR", "auto"]

small = st.integers(-2, 9)

# the Fano plane STS(7) with two isolated vertices, and a 4-uniform input
SKELETON_INPUTS = {
    "sts7": "3 9 7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n",
    "4-uniform": "4 6 2\n0 1 2 3\n0 1 4 5\n",
}

# `find` inputs: linear 3-graphs with and without a run at small k, a
# non-linear 3-graph, linear and non-linear 4-graphs, and a graph
FIND_INPUTS = {
    "sts7": SKELETON_INPUTS["sts7"],
    "sts13": serialize(steiner_triple(13)),
    "k5": serialize(complete_r(5, 3)),
    "4-uniform": SKELETON_INPUTS["4-uniform"],
    "linear4": "4 12 6\n0 1 2 6\n0 4 5 10\n1 3 10 11\n1 5 7 9\n2 3 8 9\n6 7 8 11\n",
    "triangle": "2 3 3\n0 1\n0 2\n1 2\n",
}


def _option(name, values):
    """`[name, value]` or nothing; the value is any token from `values`."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


@st.composite
def _hg_text(draw):
    """An `.hg` document that is usually almost well-formed: header "r n m"
    with small fields, then short lines of small vertex ids."""
    r, n, m = draw(st.integers(-1, 5)), draw(st.integers(-1, 12)), draw(st.integers(-1, 14))
    lines = [f"{r} {n} {m}"]
    for _ in range(draw(st.integers(0, 14))):
        verts = draw(st.lists(st.integers(-1, 12), max_size=6))
        lines.append(" ".join(map(str, verts)))
    sep = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return sep.join(lines) + draw(st.sampled_from(["", "\n"]))


hg_bytes = st.one_of(_hg_text().map(str.encode), st.binary(max_size=120))

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 20), st.floats(), st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6), st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def _witness_line(draw):
    """A JSON line shaped like a witness, with fields of any JSON type."""
    doc = {
        "type": draw(st.sampled_from(["berge-cycle", "berge-path", 7])),
        "length": draw(st.one_of(st.integers(-1, 8), json_values)),
        "spine": draw(st.lists(st.integers(-2, 12) | st.floats(), max_size=8) | json_values),
        "edges": draw(st.lists(st.integers(-2, 14) | st.floats(), max_size=8) | json_values),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc.pop(key, None)
    return json.dumps(doc)


# nesting deep enough to exhaust the JSON decoder's recursion
nested = st.integers(1, 10**5).map(lambda depth: "[" * depth + "]" * depth)

jsonl_bytes = st.one_of(
    st.lists(st.one_of(_witness_line(), json_values.map(json.dumps), nested), max_size=4).map(
        lambda lines: "\n".join(lines).encode()
    ),
    st.binary(max_size=120),
    st.text(max_size=40).map(str.encode),
)


@st.composite
def _argv(draw, hg_path, jsonl_path, out_path):
    """One subcommand argument list over the given file paths; options are
    sometimes dropped (a missing required one is argparse's exit 2)."""
    cmd = draw(st.sampled_from(["gen", "find", "skeleton", "spectrum", "turan", "verify"]))
    path = st.sampled_from([hg_path, out_path, os.path.dirname(hg_path)])
    if cmd == "gen":
        parts = [
            _option("--family", st.sampled_from(FAMILIES + ["nope"])),
            _option("--n", st.integers(-2, 13)),
            _option("--r", st.integers(-1, 5)),
            _option("--m", st.integers(-1, 14)),
            _option("--a", small),
            _option("--b", small),
            _option("--seed", small),
            _option("--out", path),
        ]
    elif cmd == "find":
        parts = [
            _option("--k", st.integers(-1, 4)),
            _option("--mode", st.sampled_from(MODES)),
            _option("--input", path),
            _option("--emit-witnesses", path),
        ]
    elif cmd == "skeleton":
        parts = [_option("--input", path), _option("--root", st.integers(-3, 14))]
    elif cmd == "spectrum":
        parts = [
            _option("--input", path),
            _option("--max-len", st.integers(-2, 12)),
            st.integers(-1, 5000).map(lambda b: ["--budget", str(b)]),
        ]
    elif cmd == "turan":
        parts = [
            _option("--n", st.integers(-1, 7)),
            _option("--r", st.integers(-1, 4)),
            _option("--ell", st.integers(-1, 7)),
            st.integers(-1, 500).map(lambda b: ["--budget", str(b)]),
        ]
    else:
        parts = [_option("--input", path), _option("--witnesses", st.just(jsonl_path))]
    argv = [cmd]
    for part in parts:
        argv += draw(part)
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "x", "--k"])))
    return argv


def _run(argv):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCliFuzz:
    @given(data=st.data(), hg=hg_bytes, jsonl=jsonl_bytes)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_arguments_and_files(self, data, hg, jsonl):
        with tempfile.TemporaryDirectory() as tmp:
            hg_path = os.path.join(tmp, "in.hg")
            jsonl_path = os.path.join(tmp, "w.jsonl")
            with open(hg_path, "wb") as fh:
                fh.write(hg)
            with open(jsonl_path, "wb") as fh:
                fh.write(jsonl)
            argv = data.draw(_argv(hg_path, jsonl_path, os.path.join(tmp, "out")))
            code, _, err = _run(argv)
        assert code in EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err

    @given(
        n=st.integers(-2, 8) | st.just(11),
        r=st.integers(-1, 4),
        ell=st.integers(-1, 7),
        budget=st.integers(-2, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_turan_option_ranges(self, n, r, ell, budget):
        # out of range: a negative --n or --budget, --r or --ell below 2, and
        # n past the r = 3 ceiling of 10; anything else is searched, and
        # the small budget bounds the search
        argv = ["turan", "--n", str(n), "--r", str(r), "--ell", str(ell), "--budget", str(budget)]
        code, _, err = _run(argv)
        if n < 0 or budget < 0 or r < 2 or ell < 2 or (r == 3 and n > 10):
            assert code == 2, (argv, code, err)
            assert err.startswith("precondition unmet: ") and err.count("\n") == 1, (argv, err)
        else:
            assert code in {0, 3} and err == "", (argv, code, err)

    @given(kind=st.sampled_from(sorted(SKELETON_INPUTS)), root=st.integers(-3, 12))
    @settings(max_examples=100, deadline=None)
    def test_skeleton_option_ranges(self, kind, root):
        # out of range: a --root outside 0..n-1 or an input that is not
        # 3-uniform; any other root prints one CSV row per level, and the
        # level sizes add up to the root's tree (1 on an isolated vertex)
        text = SKELETON_INPUTS[kind]
        with tempfile.TemporaryDirectory() as tmp:
            hg_path = os.path.join(tmp, "in.hg")
            with open(hg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["skeleton", "--input", hg_path, "--root", str(root)]
            code, out, err = _run(argv)
        H = parse(text)
        if not 0 <= root < H.n or H.uniformity != 3:
            assert code == 2, (argv, code, err)
            assert err.startswith("precondition unmet: ") and err.count("\n") == 1, (argv, err)
            return
        assert code == 0 and err == "", (argv, code, err)
        header, *rows = out.splitlines()
        assert header == "i,L,A,B,C"
        assert [int(row.split(",")[0]) for row in rows] == list(range(len(rows)))
        tree = naive_build_skeleton(H, root).parent
        assert sum(int(row.split(",")[1]) for row in rows) == len(tree)

    @given(
        family=st.sampled_from(FAMILIES),
        params=st.fixed_dictionaries(
            {},
            optional={
                "n": st.integers(-2, 13),
                "r": st.integers(-1, 5),
                "m": st.integers(-1, 14),
                "a": small,
                "b": small,
            },
        ),
        seed=small,
    )
    @settings(max_examples=300, deadline=None)
    def test_gen_option_ranges(self, family, params, seed):
        # out of range: a missing parameter of the family, or one outside
        # its range; the options a family does not read are ignored. A
        # family in range prints its instance, and randomLinearR says on
        # stderr when it falls short of --m
        argv = ["gen", "--family", family, "--seed", str(seed)]
        for key, val in params.items():
            argv += [f"--{key}", str(val)]
        code, out, err = _run(argv)
        n, r, m, a, b = (params.get(key) for key in "nrmab")
        needs = {
            "completeR": (n, r),
            "steinerTriple": (n,),
            "randomLinearR": (n, r, m),
            "tightPath": (m, r),
            "bipartiteIncidence": (a, b),
        }[family]
        rejects = None in needs or {
            "completeR": lambda: r < 2 or n < r,
            "steinerTriple": lambda: n < 3 or n % 6 not in (1, 3),
            "randomLinearR": lambda: r < 2 or n < r or m < 0,
            "tightPath": lambda: m < 1 or r < 2,
            "bipartiteIncidence": lambda: a < 1 or b < 1,
        }[family]()
        if rejects:
            assert code == 2 and out == "", (argv, code, err)
            assert err.startswith("precondition unmet: ") and err.count("\n") == 1, (argv, err)
            return
        H = parse(out)
        if family == "completeR":
            assert H.n == n and list(H.edges) == list(combinations(range(n), r))
        elif family == "steinerTriple":
            assert H.n == n and len(H.edges) == n * (n - 1) // 6 and is_linear(H)
        elif family == "randomLinearR":
            assert H.n == n and len(H.edges) <= m and is_linear(H)
            assert all(len(e) == r for e in H.edges)
            if len(H.edges) < m:
                assert err == f"requested {m} edges, achieved {len(H.edges)}\n", (argv, err)
                return
        elif family == "tightPath":
            assert list(H.edges) == [tuple(range(i, i + r)) for i in range(m)]
        else:
            assert list(H.edges) == [(i, a + j) for i in range(a) for j in range(b)]
        assert code == 0 and err == "", (argv, code, err)

    @given(
        kind=st.sampled_from(sorted(FIND_INPUTS)),
        mode=st.sampled_from(MODES),
        k=st.integers(-1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_find_option_ranges(self, kind, mode, k):
        # out of range: a --k below 1, an input that is not uniform of rank
        # at least 3, a 3-graph mode on another rank, or a linear mode on a
        # non-linear input (auto picks a mode the input meets). Anything
        # else prints k consecutive lengths whose witnesses verify, or no
        # row and the status line
        text = FIND_INPUTS[kind]
        H = parse(text)
        with tempfile.TemporaryDirectory() as tmp:
            hg_path, w_path = os.path.join(tmp, "in.hg"), os.path.join(tmp, "w.jsonl")
            with open(hg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["find", "--k", str(k), "--mode", mode, "--input", hg_path,
                    "--emit-witnesses", w_path]
            code, out, err = _run(argv)
            witnesses = ""
            if os.path.exists(w_path):
                with open(w_path, encoding="utf-8") as fh:
                    witnesses = fh.read()
        r = H.uniformity
        if k < 1:
            assert (code, out, err) == (2, "", "--k must be at least 1\n"), (argv, code, err)
            return
        if (
            r is None
            or r < 3
            or (mode in ("linear3", "general3") and r != 3)
            or (mode in ("linear3", "linearR") and not is_linear(H))
        ):
            assert code == 2 and out == "", (argv, code, err)
            assert err.startswith("precondition unmet: ") and err.count("\n") == 1, (argv, err)
            return
        assert code == 0, (argv, code, err)
        header, *rows = out.splitlines()
        assert header == "length,shortest_bound"
        if not rows:
            assert err.startswith("status: no run found (mode ") and witnesses == "", (argv, err)
            return
        assert err == "", (argv, err)
        lengths = [int(row.split(",")[0]) for row in rows]
        bounds = {int(row.split(",")[1]) for row in rows}
        assert lengths == list(range(lengths[0], lengths[0] + k))
        assert len(bounds) == 1 and lengths[0] <= min(bounds)
        cycles = [witness_from_json(line) for line in witnesses.splitlines()]
        assert [w.length for w in cycles] == lengths
        assert all(verify_cycle(H, w) for w in cycles)

    @given(max_len=st.integers(-3, 11), budget=st.integers(-2, 300))
    @settings(max_examples=150, deadline=None)
    def test_spectrum_option_ranges(self, max_len, budget):
        # out of range: a --max-len below 0 or above n, or a negative
        # --budget; anything else prints the lengths found up to max_len,
        # all of them unless the budget runs out first
        text = SKELETON_INPUTS["sts7"]  # n = 9, Berge cycles of lengths 3..7
        with tempfile.TemporaryDirectory() as tmp:
            hg_path = os.path.join(tmp, "in.hg")
            with open(hg_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["spectrum", "--input", hg_path, "--max-len", str(max_len), "--budget", str(budget)]
            code, out, err = _run(argv)
        H = parse(text)
        if max_len < 0 or max_len > H.n or budget < 0:
            assert code == 2, (argv, code, err)
            assert err.startswith("precondition unmet: ") and err.count("\n") == 1, (argv, err)
            return
        header, *rows = out.splitlines()
        assert header == "length"
        want = naive_spectrum(H.n, H.edges, max_len)
        if code == 3:
            assert err == "status: budget exhausted, spectrum is partial\n", (argv, err)
            assert [int(L) for L in rows] == want[: len(rows)]
        else:
            assert code == 0 and err == "", (argv, code, err)
            assert [int(L) for L in rows] == want

    @given(jsonl=jsonl_bytes)
    @settings(max_examples=150, deadline=None)
    def test_any_witness_file_against_a_valid_instance(self, jsonl):
        with tempfile.TemporaryDirectory() as tmp:
            hg_path = os.path.join(tmp, "k5.hg")
            jsonl_path = os.path.join(tmp, "w.jsonl")
            assert _run(["gen", "--family", "completeR", "--n", "5", "--r", "3",
                         "--out", hg_path])[0] == 0
            with open(jsonl_path, "wb") as fh:
                fh.write(jsonl)
            code, _, err = _run(["verify", "--input", hg_path, "--witnesses", jsonl_path])
        assert code in {1, 2} or (code == 0 and not err), (code, err)
        assert "Traceback" not in err
