"""Reference cycles and the cyclic garbage collector.

`cli.main` pauses the collector for the whole of every command, which is
only sound while no command makes reference cycles; the search kernel
frees each call's state by reference counting alone. Each check runs with
the collector disabled and asks `gc.collect()` how many unreachable
objects were left behind.
"""

import gc
from contextlib import contextmanager

import pytest

from bergelab import cli
from bergelab.finder import find_general_3, skeleton_sweep
from bergelab.generators import steiner_triple
from bergelab.hypergraph import Hypergraph, parse, serialize
from bergelab.reports import report_run
from bergelab.turan import turan_exhaustive


@contextmanager
def collector_off():
    """Disable the collector on a clean heap and restore its state after."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def loose_path(m):
    return Hypergraph.from_edges(2 * m + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(m)], 3)


def test_turan_kernel_leaves_no_cyclic_garbage():
    with collector_off():
        rec = turan_exhaustive(7, 3, 4)
        assert gc.collect() == 0
    assert (rec.value, rec.nodes) == (6, 2181)


@pytest.mark.parametrize(
    "text, finder, found",
    [
        (serialize(steiner_triple(127)), skeleton_sweep, True),
        (serialize(steiner_triple(127)), find_general_3, True),
        (serialize(loose_path(300)), skeleton_sweep, False),
    ],
    ids=["sts127-linear3", "sts127-general3", "loose-path"],
)
def test_find_path_leaves_no_cyclic_garbage(text, finder, found):
    with collector_off():
        H = parse(text)
        run = finder(H, 2)
        assert (run is not None) == found
        if run is not None:
            report_run(run, H)
        del H, run
        assert gc.collect() == 0


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestFindRestoresTheCollector:
    def test_exit_0(self, collector_state, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        path.write_text(serialize(steiner_triple(7)))
        assert cli.main(["find", "--k", "1", "--input", str(path)]) == 0
        assert gc.isenabled() == collector_state

    def test_exit_2_unreadable_input(self, collector_state, tmp_path, capsys):
        assert cli.main(["find", "--k", "1", "--input", str(tmp_path)]) == 2
        assert gc.isenabled() == collector_state

    def test_finder_raises(self, collector_state, tmp_path, monkeypatch):
        def paused(H, k):
            assert not gc.isenabled()
            raise RuntimeError("finder failed")

        monkeypatch.setattr(cli, "skeleton_sweep", paused)
        path = tmp_path / "fano.hg"
        path.write_text(serialize(steiner_triple(7)))
        with pytest.raises(RuntimeError, match="finder failed"):
            cli.main(["find", "--k", "1", "--mode", "linear3", "--input", str(path)])
        assert gc.isenabled() == collector_state


# One row per command and exit code it can give: (argv, exit code). FANO,
# WITNESSES and BAD are replaced by files the fixture writes, MISSING by a
# path that does not exist.
COMMANDS = [
    (["gen", "--family", "steinerTriple", "--n", "7"], 0),
    (["gen", "--family", "steinerTriple", "--n", "8"], 2),
    (["find", "--k", "1", "--input", "FANO"], 0),
    (["find", "--k", "1", "--input", "MISSING"], 2),
    (["skeleton", "--input", "FANO"], 0),
    (["skeleton", "--input", "FANO", "--root", "9"], 2),
    (["spectrum", "--input", "FANO"], 0),
    (["spectrum", "--input", "FANO", "--max-len", "-3"], 2),
    (["spectrum", "--input", "FANO", "--budget", "1"], 3),
    (["turan", "--n", "5", "--r", "3", "--ell", "3"], 0),
    (["turan", "--n", "5", "--r", "3", "--ell", "1"], 2),
    (["turan", "--n", "6", "--r", "3", "--ell", "3", "--budget", "10"], 3),
    (["verify", "--input", "FANO", "--witnesses", "WITNESSES"], 0),
    (["verify", "--input", "FANO", "--witnesses", "BAD"], 1),
    (["verify", "--input", "FANO", "--witnesses", "MISSING"], 2),
]


@pytest.fixture
def command_files(tmp_path, capsys):
    files = {name: str(tmp_path / name) for name in ("FANO", "WITNESSES", "BAD", "MISSING")}
    with open(files["FANO"], "w") as fh:
        fh.write(serialize(steiner_triple(7)))
    with open(files["BAD"], "w") as fh:
        fh.write("not a witness\n")
    argv = ["find", "--k", "1", "--input", files["FANO"], "--emit-witnesses", files["WITNESSES"]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    return files


@pytest.mark.parametrize("argv, code", COMMANDS, ids=[f"{r[0][0]}-exit{r[1]}" for r in COMMANDS])
class TestEveryCommand:
    def test_pauses_and_restores_the_collector(
        self, argv, code, collector_state, command_files, monkeypatch, capsys
    ):
        seen = []
        name = f"_cmd_{argv[0]}"
        real = getattr(cli, name)

        def spy(args):
            seen.append(gc.isenabled())
            return real(args)

        monkeypatch.setattr(cli, name, spy)
        assert cli.main([command_files.get(a, a) for a in argv]) == code
        assert seen == [False]
        assert gc.isenabled() == collector_state

    def test_leaves_only_the_parsers_garbage(self, argv, code, command_files, capsys):
        argv = [command_files.get(a, a) for a in argv]
        with collector_off():
            cli.build_parser().parse_args(argv)
            parser_left = gc.collect()
        with collector_off():
            assert cli.main(argv) == code
            assert gc.collect() == parser_left
