import json
import subprocess
import sys
from pathlib import Path

import pytest

from bergelab.cli import main
from bergelab.hypergraph import parse

PKG = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestGen:
    def test_fano_to_stdout(self, capsys):
        code, out, err = run_cli(
            ["gen", "--family", "steinerTriple", "--n", "7"], capsys
        )
        assert code == 0
        H = parse(out)
        assert len(H.edges) == 7

    def test_bad_params(self, capsys):
        code, out, err = run_cli(
            ["gen", "--family", "steinerTriple", "--n", "8"], capsys
        )
        assert code == 2

    def test_missing_param(self, capsys):
        code, out, err = run_cli(["gen", "--family", "completeR", "--r", "3"], capsys)
        assert code == 2
        assert "needs parameter(s) n" in err
        code, out, err = run_cli(["gen", "--family", "tightPath", "--r", "3"], capsys)
        assert code == 2
        assert "needs parameter(s) m" in err
        code, out, err = run_cli(["gen", "--family", "randomLinearR", "--n", "7"], capsys)
        assert code == 2
        assert "needs parameter(s) r, m" in err

    def test_shortfall_reported(self, capsys, tmp_path):
        out_path = tmp_path / "g.hg"
        code, out, err = run_cli(
            [
                "gen", "--family", "randomLinearR", "--n", "7", "--r", "3",
                "--m", "99", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert "achieved" in err


class TestFindVerify:
    def test_find_emits_verifiable_witnesses(self, capsys, tmp_path):
        hg = tmp_path / "sts.hg"
        code, out, _ = run_cli(["gen", "--family", "steinerTriple", "--n", "127"], capsys)
        hg.write_text(out)
        wpath = tmp_path / "w.jsonl"
        code, out, err = run_cli(
            [
                "find", "--k", "2", "--mode", "linear3",
                "--input", str(hg), "--emit-witnesses", str(wpath),
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "length,shortest_bound"
        assert len(lines) == 3
        code, out, err = run_cli(
            ["verify", "--input", str(hg), "--witnesses", str(wpath)], capsys
        )
        assert code == 0

    def test_verify_rejects_tampered(self, capsys, tmp_path):
        hg = tmp_path / "k5.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "5", "--r", "3"], capsys)
        hg.write_text(out)
        doc = {"type": "berge-cycle", "length": 3, "spine": [0, 1, 1], "edges": [0, 1, 2]}
        wpath = tmp_path / "bad.jsonl"
        wpath.write_text(json.dumps(doc) + "\n")
        code, out, err = run_cli(
            ["verify", "--input", str(hg), "--witnesses", str(wpath)], capsys
        )
        assert code == 1
        assert "SpineNotDistinct" in err

    def test_verify_rejects_non_object_line(self, capsys, tmp_path):
        hg = tmp_path / "k5.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "5", "--r", "3"], capsys)
        hg.write_text(out)
        wpath = tmp_path / "null.jsonl"
        wpath.write_text(
            'null\n[1, 2]\n{"type":"berge-cycle","length":1,"spine":5,"edges":[]}\n'
        )
        code, out, err = run_cli(
            ["verify", "--input", str(hg), "--witnesses", str(wpath)], capsys
        )
        assert code == 1
        assert "line 1: malformed witness" in err
        assert "line 2: malformed witness" in err
        assert "line 3: malformed witness" in err

    def test_verify_rejects_infinite_and_deeply_nested_lines(self, capsys, tmp_path):
        hg = tmp_path / "k5.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "5", "--r", "3"], capsys)
        hg.write_text(out)
        wpath = tmp_path / "odd.jsonl"
        wpath.write_text(
            '{"type":"berge-cycle","length":1,"spine":[Infinity],"edges":[0]}\n'
            + "[" * 100000 + "]" * 100000 + "\n"
        )
        code, out, err = run_cli(
            ["verify", "--input", str(hg), "--witnesses", str(wpath)], capsys
        )
        assert code == 1
        assert "line 1: malformed witness (cannot convert float infinity" in err
        assert "line 2: malformed witness (maximum recursion depth" in err

    def test_absent_run_exits_zero(self, capsys, tmp_path):
        hg = tmp_path / "fano.hg"
        code, out, _ = run_cli(["gen", "--family", "steinerTriple", "--n", "7"], capsys)
        hg.write_text(out)
        code, out, err = run_cli(
            ["find", "--k", "3", "--mode", "linear3", "--input", str(hg)], capsys
        )
        assert code == 0
        assert "no run found" in err

    def test_header_zero_fano_finds_as_uniform(self, capsys, tmp_path):
        fano = "0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
        results = []
        for r in (0, 3):
            hg = tmp_path / f"fano{r}.hg"
            hg.write_text(f"{r} 7 7\n{fano}")
            wpath = tmp_path / f"w{r}.jsonl"
            code, out, err = run_cli(
                ["find", "--k", "1", "--input", str(hg), "--emit-witnesses", str(wpath)],
                capsys,
            )
            results.append((code, out, err, wpath.read_text()))
        assert results[0][0] == 0
        assert results[0] == results[1]


class TestOtherCommands:
    def test_skeleton_csv(self, capsys, tmp_path):
        hg = tmp_path / "f.hg"
        code, out, _ = run_cli(["gen", "--family", "steinerTriple", "--n", "7"], capsys)
        hg.write_text(out)
        code, out, err = run_cli(["skeleton", "--input", str(hg), "--root", "0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,L,A,B,C"
        total_tree = sum(int(row.split(",")[1]) for row in lines[1:])
        assert total_tree >= 2

    def test_spectrum(self, capsys, tmp_path):
        hg = tmp_path / "k5.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "5", "--r", "3"], capsys)
        hg.write_text(out)
        code, out, err = run_cli(["spectrum", "--input", str(hg)], capsys)
        assert code == 0
        assert out.strip().splitlines() == ["length", "3", "4", "5"]

    def test_spectrum_budget_exit(self, capsys, tmp_path):
        hg = tmp_path / "k6.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "6", "--r", "3"], capsys)
        hg.write_text(out)
        code, out, err = run_cli(
            ["spectrum", "--input", str(hg), "--budget", "2"], capsys
        )
        assert code == 3

    def test_spectrum_negative_budget(self, capsys, tmp_path):
        hg = tmp_path / "k5.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "5", "--r", "3"], capsys)
        hg.write_text(out)
        code, out, err = run_cli(
            ["spectrum", "--input", str(hg), "--budget", "-5"], capsys
        )
        assert code == 2
        assert "budget -5 is negative" in err

    def test_spectrum_negative_max_len(self, capsys, tmp_path):
        hg = tmp_path / "k5.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "5", "--r", "3"], capsys)
        hg.write_text(out)
        code, out, err = run_cli(["spectrum", "--input", str(hg), "--max-len", "-3"], capsys)
        assert code == 2
        assert err == "precondition unmet: max_len -3 is negative\n"
        assert out == "" and "Traceback" not in err

    def test_find_has_no_seed_option(self, capsys, tmp_path):
        hg = tmp_path / "fano.hg"
        hg.write_text("3 7 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["find", "--k", "1", "--input", str(hg), "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    def test_turan_negative_budget(self, capsys):
        code, out, err = run_cli(
            ["turan", "--n", "5", "--r", "3", "--ell", "3", "--budget", "-1"], capsys
        )
        assert code == 2
        assert "budget -1 is negative" in err

    def test_turan(self, capsys):
        code, out, err = run_cli(
            ["turan", "--n", "7", "--r", "3", "--ell", "2"], capsys
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,r,forbidden_length,value,exact,nodes"
        assert rows[1].startswith("7,3,2,7,1,")

    def test_turan_negative_n(self, capsys):
        code, out, err = run_cli(["turan", "--n", "-1", "--r", "2", "--ell", "3"], capsys)
        assert code == 2
        assert err == "precondition unmet: vertex count n = -1 is negative\n"
        assert out == ""

    def test_turan_r_below_2(self, capsys):
        code, out, err = run_cli(["turan", "--n", "6", "--r", "1", "--ell", "3"], capsys)
        assert code == 2
        assert err == "precondition unmet: edge size r = 1 is below 2\n"
        assert out == ""

    def test_precondition_exit(self, capsys, tmp_path):
        hg = tmp_path / "k5.hg"
        code, out, _ = run_cli(["gen", "--family", "completeR", "--n", "5", "--r", "3"], capsys)
        hg.write_text(out)
        code, out, err = run_cli(
            ["find", "--k", "1", "--mode", "linear3", "--input", str(hg)], capsys
        )
        assert code == 2


# The input contract, one row per command line: "STS13" stands for a file
# holding STS(13). A row with exit 2 names its one stderr line; a row with
# exit 0 or 3 names the value `turan` prints.
CONTRACT = [
    (["find", "--k", "0", "--input", "STS13"], 2, "--k must be at least 1"),
    (["find", "--k", "-2", "--input", "STS13"], 2, "--k must be at least 1"),
    (
        ["skeleton", "--root", "99", "--input", "STS13"], 2,
        "precondition unmet: root 99 out of range",
    ),
    (
        ["skeleton", "--root", "-1", "--input", "STS13"], 2,
        "precondition unmet: root -1 out of range",
    ),
    (
        ["gen", "--family", "steinerTriple", "--n", "2"], 2,
        "precondition unmet: Steiner triple systems need n >= 3 with n = 1 or 3 mod 6, got 2",
    ),
    (
        ["gen", "--family", "steinerTriple", "--n", "8"], 2,
        "precondition unmet: Steiner triple systems need n >= 3 with n = 1 or 3 mod 6, got 8",
    ),
    (
        ["gen", "--family", "steinerTriple", "--n", "1"], 2,
        "precondition unmet: Steiner triple systems need n >= 3 with n = 1 or 3 mod 6, got 1",
    ),
    (["turan", "--n", "5", "--r", "3", "--ell", "9"], 0, "10"),  # C(5, 3): no 9-cycle fits
    (["turan", "--n", "4", "--r", "7", "--ell", "3"], 0, "0"),  # no 7-set in 4 vertices
    # 1,035 positions, deeper than Python's recursion limit: runs out of budget
    (["turan", "--n", "46", "--r", "2", "--ell", "3", "--budget", "100000"], 3, "88"),
]


class TestInputContract:
    """Values a command must refuse with exit 2 and one line, and trivial
    values it must accept, so that no change moves either silently."""

    @pytest.mark.parametrize("argv,code,expected", CONTRACT, ids=[" ".join(r[0]) for r in CONTRACT])
    def test_row(self, capsys, tmp_path, argv, code, expected):
        sts = tmp_path / "sts13.hg"
        run_cli(["gen", "--family", "steinerTriple", "--n", "13", "--out", str(sts)], capsys)
        got, out, err = run_cli([str(sts) if a == "STS13" else a for a in argv], capsys)
        assert got == code
        if code == 2:
            assert err == expected + "\n" and out == ""
        else:
            assert err == ""
            assert out.splitlines()[1].split(",")[3] == expected


# Turán rows pinned as `bergelab turan` prints them: the CSV row on the
# second line, and for (8, 3, 5) the whole of stdout with its extremal
# example.
T835 = (
    "n,r,forbidden_length,value,exact,nodes\n8,3,5,9,1,114704\n3 8 9\n"
    "0 1 2\n0 1 3\n0 1 4\n0 2 3\n0 5 6\n0 5 7\n0 6 7\n1 2 3\n5 6 7\n"
)
TURAN_PINS = [
    ("6 3 3", "6,3,3,4,1,159", None),
    ("7 3 4", "7,3,4,6,1,1542", None),
    ("10 3 3", "10,3,3,12,1,14103", None),
    ("8 3 5", "8,3,5,9,1,114704", T835),
    ("9 3 4", "9,3,4,7,1,75746", None),
]


@pytest.mark.parametrize("row,line,stdout", TURAN_PINS, ids=[r[0] for r in TURAN_PINS])
def test_turan_pinned(capsys, row, line, stdout):
    n, r, ell = row.split()
    code, out, err = run_cli(["turan", "--n", n, "--r", r, "--ell", ell], capsys)
    assert code == 0 and err == ""
    assert out.split("\n")[1] == line
    if stdout is not None:
        assert out == stdout


# Witness and skeleton-CSV pins as `bergelab` prints them. Each row names
# its document, the command run on it and the exact bytes it must give: the
# `--emit-witnesses` file for `find`, stdout for `skeleton`. Documents are
# made by `gen` with the argv in DOCUMENTS, except FANO_STS9.
DOCUMENTS = {
    "sts769": ["--family", "steinerTriple", "--n", "769"],
    "sts255": ["--family", "steinerTriple", "--n", "255"],
    "sts381": ["--family", "steinerTriple", "--n", "381"],
    "linear4": ["--family", "randomLinearR", "--n", "180", "--r", "4", "--m", "1300",
                "--seed", "1006"],
    "k9": ["--family", "completeR", "--n", "9", "--r", "3"],
}
# The Fano plane on 0..6 beside STS(9) on 7..15: the sweep's first root is
# 0, so the run comes from the Fano part, not from the denser STS(9).
FANO_STS9 = (
    "3 16 19\n0 1 2\n0 3 4\n0 5 6\n1 3 6\n1 4 5\n2 3 5\n2 4 6\n7 8 9\n7 10 14\n"
    "7 11 13\n7 12 15\n8 10 13\n8 11 15\n8 12 14\n9 10 15\n9 11 14\n9 12 13\n"
    "10 11 12\n13 14 15\n"
)


W255 = (
    '{"type":"berge-cycle","length":4,"spine":[0,3,133,5],"edges":[1,380,728,3]}',
    '{"type":"berge-cycle","length":5,"spine":[0,3,133,130,129],"edges":[1,380,728,9493,106]}',
)
WK9 = (
    '{"type":"berge-cycle","length":3,"spine":[1,3,2],"edges":[28,49,0]}',
    '{"type":"berge-cycle","length":4,"spine":[1,3,4,2],"edges":[28,64,49,0]}',
)
# (document, argv, the lines it must give, each ending in a newline)
PINS = [
    ("sts769", ["find", "--k", "2"], (
        '{"type":"berge-cycle","length":4,"spine":[0,3,388,387],"edges":[1,1151,86336,320]}',
        '{"type":"berge-cycle","length":5,"spine":[0,3,388,390,393],'
        '"edges":[1,1151,86336,86525,321]}',
    )),
    ("sts255", ["find", "--k", "2", "--mode", "general3"], W255),
    ("sts255", ["find", "--k", "2", "--mode", "linearR"], W255),
    ("sts381", ["find", "--k", "2", "--mode", "general3"], (
        '{"type":"berge-cycle","length":4,"spine":[0,3,196,175],"edges":[1,569,20557,144]}',
        '{"type":"berge-cycle","length":5,"spine":[0,3,196,377,183],'
        '"edges":[1,569,20557,20914,151]}',
    )),
    ("linear4", ["find", "--k", "2"], (
        '{"type":"berge-cycle","length":4,"spine":[0,1,67,75],"edges":[0,47,107,25]}',
        '{"type":"berge-cycle","length":5,"spine":[0,1,67,75,12],"edges":[0,47,107,339,6]}',
    )),
    ("k9", ["find", "--k", "2", "--mode", "general3"], WK9),
    ("k9", ["find", "--k", "3", "--mode", "generalR"], WK9 + (
        '{"type":"berge-cycle","length":5,"spine":[1,3,5,4,2],"edges":[28,64,74,49,0]}',
    )),
    ("fano_sts9", ["find", "--k", "1", "--mode", "linear3"], (
        '{"type":"berge-cycle","length":5,"spine":[0,3,2,6,1],"edges":[1,5,6,3,0]}',
    )),
    ("sts381", ["skeleton", "--root", "0"],
     ("i,L,A,B,C", "0,1,0,0,0", "1,190,0,2992,8820", "2,190,8945,2993,0")),
    ("k9", ["skeleton", "--root", "0"], ("i,L,A,B,C", "0,1,0,0,0", "1,8,20,56,0")),
]


@pytest.fixture(scope="module")
def pin_document(tmp_path_factory):
    """Path of a pinned document, each made once per module."""
    made = {}

    def document(name):
        if name not in made:
            path = tmp_path_factory.mktemp("pins") / f"{name}.hg"
            if name == "fano_sts9":
                path.write_text(FANO_STS9)
            else:
                assert main(["gen", *DOCUMENTS[name], "--out", str(path)]) == 0
            made[name] = str(path)
        return made[name]

    return document


@pytest.mark.parametrize("doc,argv,lines", PINS, ids=[" ".join([r[0], *r[1]]) for r in PINS])
def test_pinned(pin_document, tmp_path, capsys, doc, argv, lines):
    path = pin_document(doc)
    capsys.readouterr()
    if argv[0] == "find":
        witnesses = tmp_path / "w.jsonl"
        code, _, err = run_cli([*argv, "--input", path, "--emit-witnesses", str(witnesses)], capsys)
        got = witnesses.read_bytes()
    else:
        code, out, err = run_cli([*argv, "--input", path], capsys)
        got = out.encode()
    assert (code, err) == (0, "")
    assert got == "".join(line + "\n" for line in lines).encode()


def _loose_cycles_doc(lengths):
    """Disjoint loose cycles of the given lengths, as an `.hg` document."""
    edges, base = [], 0
    for L in lengths:
        edges += [sorted((base + 2 * i, base + 2 * i + 1, base + (2 * i + 2) % (2 * L)))
                  for i in range(L)]
        base += 2 * L
    return f"3 {base} {len(edges)}\n" + "".join("%d %d %d\n" % tuple(e) for e in sorted(edges))


# `find --mode linear3 --k 2` on documents where the sweep visits every
# root and finds no run: (name, document, exact stderr); exit 0 and the
# bare CSV header on stdout.
NO_RUN_PINS = [
    ("loose-path-1500",
     "3 3001 1500\n" + "".join(f"{2 * i} {2 * i + 1} {2 * i + 2}\n" for i in range(1500)),
     b"status: no run found (mode linear3, d = 4500/3001)\n"),
    ("loose-cycles-3-5-7-9-11x4", _loose_cycles_doc((3, 5, 7, 9, 11) * 4),
     b"status: no run found (mode linear3, d = 3/2)\n"),
]


@pytest.mark.parametrize("doc,stderr", [r[1:] for r in NO_RUN_PINS], ids=[r[0] for r in NO_RUN_PINS])
def test_no_run_pinned(tmp_path, capsys, doc, stderr):
    path = tmp_path / "doc.hg"
    path.write_text(doc)
    capsys.readouterr()
    code, out, err = run_cli(["find", "--mode", "linear3", "--k", "2", "--input", str(path)], capsys)
    assert (code, out.encode(), err.encode()) == (0, b"length,shortest_bound\n", stderr)


# One document per parse error, with the message it must report.
BAD_INPUTS = {
    "MalformedLine": ("garbage line\n", "header must be 'r n m'"),
    "DuplicateEdge": ("3 5 2\n0 1 2\n2 1 0\n", "appears twice"),
    "VertexOutOfRange": ("3 5 1\n0 1 5\n", "leaves 0..4"),
    "EdgeSizeMismatch": ("3 5 1\n0 1 2 3\n", "is not a 3-set"),
}
INPUT_COMMANDS = (["find", "--k", "2"], ["spectrum"])


class TestParseErrors:
    """Input that does not parse is a precondition failure: exit 2."""

    @pytest.mark.parametrize("command", INPUT_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
    def test_bad_document_exits_2(self, capsys, tmp_path, kind, command):
        text, message = BAD_INPUTS[kind]
        hg = tmp_path / "bad.hg"
        hg.write_text(text)
        code, out, err = run_cli(command + ["--input", str(hg)], capsys)
        assert code == 2
        assert err.startswith("invalid input: ") and message in err
        assert out == ""


class TestUnreadableInput:
    """A file that cannot be read as text is a precondition failure: a
    one-line message and exit 2, never a traceback."""

    @pytest.mark.parametrize("command", INPUT_COMMANDS, ids=lambda c: c[0])
    def test_non_utf8_input_exits_2(self, capsys, tmp_path, command):
        hg = tmp_path / "latin1.hg"
        hg.write_bytes(b"3 3 1\n0 1 \xff\n")
        code, out, err = run_cli(command + ["--input", str(hg)], capsys)
        assert code == 2
        assert err.startswith("invalid input: ") and "can't decode byte 0xff" in err
        assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("command", INPUT_COMMANDS, ids=lambda c: c[0])
    def test_directory_input_exits_2(self, capsys, tmp_path, command):
        code, out, err = run_cli(command + ["--input", str(tmp_path)], capsys)
        assert code == 2
        assert "Is a directory" in err and err.count("\n") == 1 and out == ""

    def test_directory_witnesses_exits_2(self, capsys, tmp_path):
        hg = tmp_path / "one.hg"
        hg.write_text("3 3 1\n0 1 2\n")
        code, out, err = run_cli(
            ["verify", "--input", str(hg), "--witnesses", str(tmp_path)], capsys
        )
        assert code == 2
        assert "Is a directory" in err and err.count("\n") == 1

    def test_non_utf8_witnesses_exits_2(self, capsys, tmp_path):
        hg = tmp_path / "one.hg"
        hg.write_text("3 3 1\n0 1 2\n")
        w = tmp_path / "w.jsonl"
        w.write_bytes(b"\xff\n")
        code, out, err = run_cli(["verify", "--input", str(hg), "--witnesses", str(w)], capsys)
        assert code == 2
        assert err.startswith("invalid input: ")

    def test_no_traceback_in_a_real_process(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, %r); "
             "from bergelab.cli import main; sys.exit(main(sys.argv[1:]))" % PKG,
             "find", "--k", "2", "--input", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr and res.stderr.count("\n") == 1


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        env_script = (
            "import sys; sys.path.insert(0, %r); "
            "from bergelab.cli import main; sys.exit(main(sys.argv[1:]))" % PKG
        )
        hg = tmp_path / "sts.hg"
        first = subprocess.run(
            [sys.executable, "-c", env_script, "gen", "--family", "steinerTriple",
             "--n", "127", "--out", str(hg)],
            capture_output=True,
        )
        assert first.returncode == 0
        outs = []
        for trial in range(2):
            wpath = tmp_path / f"w{trial}.jsonl"
            res = subprocess.run(
                [sys.executable, "-c", env_script, "find", "--k", "2",
                 "--mode", "linear3", "--input", str(hg),
                 "--emit-witnesses", str(wpath)],
                capture_output=True,
            )
            assert res.returncode == 0
            outs.append((res.stdout, wpath.read_bytes()))
        assert outs[0] == outs[1]
