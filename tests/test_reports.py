import pytest

from bergelab.certify import BergeCycleWitness
from bergelab.errors import VerificationFailure
from bergelab.finder import ConsecutiveRun
from bergelab.hypergraph import Hypergraph
from bergelab.reports import (
    report_run,
    run_to_csv,
    witness_from_json,
    witness_to_json,
)


def small_run():
    H = Hypergraph.from_edges(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    w3 = BergeCycleWitness((0, 1, 2), (1, 3, 2))
    w4 = BergeCycleWitness((0, 1, 2, 3), (0, 3, 2, 1))
    return H, ConsecutiveRun(k=2, cycles=(w3, w4), shortest_bound=3)


class TestWitnessJson:
    def test_fixed_field_order(self):
        w = BergeCycleWitness((0, 1, 2), (1, 3, 2))
        assert (
            witness_to_json(w)
            == '{"type":"berge-cycle","length":3,"spine":[0,1,2],"edges":[1,3,2]}'
        )

    def test_round_trip(self):
        w = BergeCycleWitness((5, 1, 9, 2), (0, 3, 2, 1))
        assert witness_from_json(witness_to_json(w)) == w

    def test_rejects_wrong_type(self):
        with pytest.raises(VerificationFailure):
            witness_from_json('{"type":"other","length":1,"spine":[],"edges":[]}')

    def test_rejects_length_mismatch(self):
        with pytest.raises(VerificationFailure):
            witness_from_json(
                '{"type":"berge-cycle","length":4,"spine":[0,1,2],"edges":[0,1,2]}'
            )


class TestReportRun:
    def test_emits_csv_and_jsonl(self):
        H, run = small_run()
        csv_text, jsonl_text = report_run(run, H)
        assert csv_text.splitlines()[0] == "length,shortest_bound"
        assert csv_text.splitlines()[1] == "3,3"
        assert len(jsonl_text.strip().splitlines()) == 2

    def test_tampered_witness_fails(self):
        H, run = small_run()
        bad = ConsecutiveRun(
            k=2,
            cycles=(run.cycles[0], BergeCycleWitness((0, 1, 2, 3), (0, 0, 2, 1))),
            shortest_bound=3,
        )
        with pytest.raises(VerificationFailure):
            report_run(bad, H)

    def test_gapped_lengths_fail(self):
        H, run = small_run()
        w2 = BergeCycleWitness((0, 1), (0, 1))  # verifies; lengths 2 and 4
        gapped = ConsecutiveRun(k=2, cycles=(w2, run.cycles[1]), shortest_bound=3)
        with pytest.raises(VerificationFailure, match="not consecutive"):
            report_run(gapped, H)

    def test_shortest_above_bound_fails(self):
        H, run = small_run()
        low = ConsecutiveRun(k=2, cycles=run.cycles, shortest_bound=2)
        with pytest.raises(VerificationFailure, match="shortest 3 exceeds 2"):
            report_run(low, H)

    def test_csv_shape(self):
        _, run = small_run()
        assert run_to_csv(run) == "length,shortest_bound\n3,3\n4,3\n"
