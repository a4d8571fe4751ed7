"""Reference cycles and the cyclic garbage collector.

`bergelab find` pauses the collector for the whole command, which is only
sound while the find path makes no reference cycles; the search kernel
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
    assert (rec.value, rec.nodes) == (6, 4057)


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

    def test_other_commands_keep_the_collector(self, collector_state, monkeypatch, capsys):
        seen = []
        real = cli.turan_exhaustive

        def spy(*args, **kw):
            seen.append(gc.isenabled())
            return real(*args, **kw)

        monkeypatch.setattr(cli, "turan_exhaustive", spy)
        assert cli.main(["turan", "--n", "5", "--r", "3", "--ell", "3"]) == 0
        assert seen == [collector_state]
        assert gc.isenabled() == collector_state
