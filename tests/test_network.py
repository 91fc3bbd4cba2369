import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tandemnet import (
    DiscoveryFailedError,
    DutyFactor,
    InconsistentObservationError,
    NetworkError,
    NetworkSpec,
    Source,
    activity_signal,
    construct_sequences,
    discover_offset,
    identify_senders,
    is_bidirectional,
    parse_config,
    relay_sets,
    simulate,
    simulate_subslot,
    throughput_forward,
)
from tandemnet.gf import field
from tandemnet.network import COLLISION, IDLE, SINGLE, TRANSMIT


class TestTopology:
    def test_two_way_relay_sets(self, two_way_spec):
        rs = relay_sets(two_way_spec)
        assert rs.fwd[2] == rs.fwd[3] == frozenset({1})
        assert rs.bwd[2] == rs.bwd[3] == frozenset({2})
        for i in (1, 4):
            assert rs.fwd[i] == rs.bwd[i] == frozenset()

    def test_five_node_relay_sets(self, five_node_spec):
        rs = relay_sets(five_node_spec)
        assert rs.fwd[3] == frozenset({1})
        assert rs.bwd[3] == frozenset({2})
        assert rs.fwd_incl[2] == frozenset({1})
        assert rs.bwd_incl[4] == frozenset({2})

    def test_one_hop_traffic_has_no_relays(self):
        spec = NetworkSpec(3, [Source(1, 1, frozenset({2}))])
        rs = relay_sets(spec)
        assert all(not rs.fwd[i] and not rs.bwd[i] for i in (1, 2, 3))

    def test_bidirectional(self, two_way_spec, five_node_spec):
        assert is_bidirectional(two_way_spec)
        assert is_bidirectional(five_node_spec)
        one_way = NetworkSpec(3, [Source(1, 2, frozenset({3}))])
        assert not is_bidirectional(one_way)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(3, [Source(2, 1, frozenset({3}))])  # ids must be 1..N
        with pytest.raises(ValueError):
            NetworkSpec(3, [Source(1, 5, frozenset({3}))])  # bad attach
        with pytest.raises(ValueError):
            Source(1, 1, frozenset())  # empty demands


class TestSimulate:
    def test_zero_offsets_zero_errors(self, two_way_spec, third_set, symmetric_rate):
        res = simulate(
            two_way_spec, third_set, [0, 0, 0, 0],
            [symmetric_rate, symmetric_rate], field(11), periods=5,
        )
        assert res.ok
        assert res.error_count() == 0
        # destinations actually received every decodable period
        for (j, dest), msgs in res.decoded.items():
            for t in res.decodable_periods(j, dest):
                assert msgs[t] == res.truth[j][t]

    def test_random_offsets_zero_errors(self, two_way_spec, third_set, symmetric_rate):
        rng = np.random.default_rng(11)
        for trial in range(20):
            taus = [int(t) for t in rng.integers(0, 27, size=4)]
            res = simulate(
                two_way_spec, third_set, taus,
                [symmetric_rate, symmetric_rate], field(11),
                periods=5, seed=trial,
            )
            assert res.ok and res.error_count() == 0, taus

    def test_rate_beyond_capacity_reports_link(self, two_way_spec, third_set):
        res = simulate(
            two_way_spec, third_set, [0, 0, 0, 0],
            [Fraction(5, 27), Fraction(4, 27)], field(11), periods=5,
        )
        assert not res.ok
        assert res.failure.survivors < res.failure.needed
        assert (res.failure.transmitter, res.failure.receiver) in {
            (1, 2), (2, 3), (3, 4)
        }

    def test_half_duplex_invariant(self, two_way_spec, third_set, symmetric_rate):
        res = simulate(
            two_way_spec, third_set, [3, 7, 11, 19],
            [symmetric_rate, symmetric_rate], field(11), periods=4,
        )
        seen = {}
        for slot, node, action, _ in res.trace.rows:
            seen.setdefault((slot, node), []).append(action)
        for actions in seen.values():
            assert len(actions) == 1  # one classification per node per slot

    def test_survivor_counts_match_throughput(self, two_way_spec, third_set,
                                              symmetric_rate):
        # of node 1's transmissions in one period, exactly P*f(1-f)(1-f)
        # reach node 2 uncollided
        taus = [5, 13, 2, 21]
        res = simulate(
            two_way_spec, third_set, taus,
            [symmetric_rate, symmetric_rate], field(11), periods=4,
        )
        P = third_set.period
        rx_slots = [
            slot for slot, node, action, _ in res.trace.rows
            if node == 2 and action == "rx" and P <= slot - taus[1] < 2 * P
        ]
        # receptions at node 2 come from nodes 1 and 3
        fwd = throughput_forward(third_set, 1, taus) * P
        assert len(rx_slots) >= fwd

    def test_determinism(self, two_way_spec, third_set, symmetric_rate):
        runs = [
            simulate(two_way_spec, third_set, [1, 2, 3, 4],
                     [symmetric_rate, symmetric_rate], field(11),
                     periods=4, seed=9)
            for _ in range(2)
        ]
        assert runs[0].trace.rows == runs[1].trace.rows
        assert runs[0].decoded == runs[1].decoded

    def test_csv_export(self, two_way_spec, third_set, symmetric_rate, tmp_path):
        res = simulate(
            two_way_spec, third_set, [0, 0, 0, 0],
            [symmetric_rate, symmetric_rate], field(11), periods=3,
        )
        path = tmp_path / "trace.csv"
        res.trace.export_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["slot", "node", "action", "value"]
        assert len(rows) == len(res.trace.rows) + 1

    def test_five_node_two_sources(self, five_node_spec):
        sset = construct_sequences([
            DutyFactor(0, 3), DutyFactor(1, 3), DutyFactor(1, 3),
            DutyFactor(1, 3), DutyFactor(0, 3),
        ])
        res = simulate(
            five_node_spec, sset, [0, 4, 9, 14, 0],
            [Fraction(4, 27), Fraction(4, 27)], field(11), periods=7,
        )
        assert res.ok and res.error_count() == 0


class TestActivitySignal:
    def test_worked_example(self, mixed_set):
        sig = activity_signal(mixed_set, [0] * 5, 2, start=0)
        assert str(sig) == "ΔΔΔ*11*11ΔΔΔ100100ΔΔΔ100100".replace(" ", "")

    def test_symbols(self, third_set):
        sig = activity_signal(third_set, [0, 0, 0, 0], 1, start=0)
        assert set(sig.symbols) <= {TRANSMIT, IDLE, SINGLE, COLLISION}
        assert len(sig) == 27

    def test_window_start_rotates_the_period(self, mixed_set):
        taus = [4, 0, 17, 5, 11]
        whole = activity_signal(mixed_set, taus, 2).symbols
        for start in (1, 13, 27 + 5, -3):
            got = activity_signal(mixed_set, taus, 2, start=start).symbols
            assert got == tuple(whole[(start + k) % 27] for k in range(27))

    @pytest.mark.parametrize("node", [0, 6, -1])
    def test_node_outside_the_line_raises(self, mixed_set, node):
        with pytest.raises(ValueError, match=rf"node {node} lies outside 1\.\.5"):
            activity_signal(mixed_set, [0] * 5, node)


class TestIdentify:
    def test_worked_example_labels(self, mixed_set):
        sig = activity_signal(mixed_set, [0] * 5, 2, start=0)
        labels = identify_senders(sig, mixed_set[2], 0, mixed_set[1], mixed_set[3])
        # 1-indexed: slots 5,6,8,9 from the right neighbor; 13,16,22,25
        # from the left
        assert {k + 1 for k, v in labels.items() if v == +1} == {5, 6, 8, 9}
        assert {k + 1 for k, v in labels.items() if v == -1} == {13, 16, 22, 25}

    def test_labels_correct_for_random_offsets(self, mixed_set):
        rng = np.random.default_rng(23)
        P = mixed_set.period
        for _ in range(15):
            t1, t3 = int(rng.integers(P)), int(rng.integers(P))
            taus = [t1, 0, t3, 5, 11]
            sig = activity_signal(mixed_set, taus, 2, start=0)
            labels = identify_senders(
                sig, mixed_set[2], 0, mixed_set[1], mixed_set[3]
            )
            for k, side in labels.items():
                nb = 2 + side
                assert mixed_set[nb].bits[(k - taus[nb - 1]) % P] == 1

    def test_inconsistent_signal_raises(self, mixed_set):
        from tandemnet.network import ChannelActivitySignal
        bogus = ChannelActivitySignal((SINGLE,) * 27)
        with pytest.raises(InconsistentObservationError):
            identify_senders(bogus, mixed_set[2], 0, mixed_set[1], mixed_set[3])

    def test_refuses_oversized_tables_without_allocating(self):
        from tandemnet.network import ChannelActivitySignal
        sset = construct_sequences([DutyFactor(1, 40)] * 3)  # P = 64,000
        signal = ChannelActivitySignal((IDLE,) * sset.period)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"period 64000 needs about 95\.4 GiB"):
                identify_senders(signal, sset[2], 0, sset[1], sset[3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDiscovery:
    def test_recovers_true_offsets(self, third_set):
        rng = np.random.default_rng(5)
        for _ in range(10):
            taus = [int(t) for t in rng.integers(0, 27, size=4)]
            for tx, rx in ((1, 2), (2, 1), (3, 4)):
                tau = discover_offset(third_set, taus, tx, rx)
                assert tau == taus[tx - 1] % 27

    def test_zero_offsets(self, third_set):
        assert discover_offset(third_set, [0, 0, 0, 0], 2, 3) == 0

    def test_requires_adjacency(self, third_set):
        with pytest.raises(ValueError):
            discover_offset(third_set, [0, 0, 0, 0], 1, 3)

    @pytest.mark.parametrize("tx, rx", [(4, 5), (9, 10), (0, 1)])
    def test_requires_nodes_on_the_line(self, third_set, tx, rx):
        with pytest.raises(ValueError, match=r"must be adjacent in 1\.\.4"):
            discover_offset(third_set, [0, 0, 0, 0], tx, rx)


class TestSubslot:
    def test_g1_matches_slot_synchronous_counts(self, third_set):
        P = third_set.period
        rng = np.random.default_rng(17)
        for _ in range(10):
            taus = [int(t) for t in rng.integers(0, P, size=4)]
            counts = simulate_subslot(third_set, taus, g=1)
            for i in (1, 2, 3):
                want = throughput_forward(third_set, i, taus) * P
                assert counts[(i, i + 1)] == want

    def test_identical_sequences_silence_each_other(self):
        from tandemnet import ProtocolSequence, SequenceSet
        s = ProtocolSequence((1, 0, 1, 0), DutyFactor(1, 2))
        seqs = SequenceSet([s, s], denominator=2)
        counts = simulate_subslot(seqs, [0, 0], g=1)
        assert counts[(1, 2)] == 0 and counts[(2, 1)] == 0

    def test_partial_overlap_erases(self, third_set):
        g = 4
        base = simulate_subslot(third_set, [0, 0, 0, 0], g)
        shifted = simulate_subslot(third_set, [0, 1, 0, 0], g)
        # one-sub-slot misalignment cannot create receptions out of nothing
        assert all(v >= 0 for v in shifted.values())
        assert base[(1, 2)] * g >= 0

    def test_rejects_bad_g(self, third_set):
        with pytest.raises(ValueError):
            simulate_subslot(third_set, [0, 0, 0, 0], 0)


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config({
            "M": 4,
            "sources": [
                {"id": 1, "attach": 1, "demands": [4]},
                {"id": 2, "attach": 4, "demands": [1]},
            ],
            "duties": ["1/3", "1/3", "1/3", "1/3"],
            "rates": ["4/27", "4/27"],
        })
        assert cfg.spec.M == 4
        assert cfg.rates == [Fraction(4, 27)] * 2
        assert cfg.sequence_set().period == 27
        assert cfg.field_order() == 11

    def test_field_override(self):
        cfg = parse_config({
            "M": 2,
            "sources": [{"id": 1, "attach": 1, "demands": [2]}],
            "duties": ["1/3", "0/3"],
            "rates": ["1/27"],
            "field_q": 13,
        })
        assert cfg.field_order() == 13

    def test_default_field_is_the_smallest_prime(self):
        def order(duty):
            return parse_config({
                "M": 2,
                "sources": [{"id": 1, "attach": 1, "demands": [2]}],
                "duties": [duty, "0"],
            }).field_order()
        # frame lengths 1, 4, 9, 16 and 25; all but 1 are prime powers
        assert [order(d) for d in ("1/1", "1/2", "1/3", "1/4", "1/5")] == [
            2, 5, 11, 17, 29]

    def test_malformed_config_raises(self):
        with pytest.raises(NetworkError):
            parse_config({"M": 3, "sources": [], "duties": ["1/3"]})
        with pytest.raises(NetworkError):
            parse_config({
                "M": 2,
                "sources": [{"id": 1, "attach": 1, "demands": [2]}],
                "duties": ["1/3", "1/3"],
                "rates": ["1/9", "1/9"],
            })
