"""Channel activity from the sequences and offsets against the channel
that ``simulate`` runs, read back out of its trace by reference_network.py."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_network as ref
from tandemnet import CodingError, activity_signal, parse_config, simulate
from tandemnet.gf import field


@st.composite
def sessions(draw):
    """A random chain (M 2-6, d 2-4) with one or two sources, rates up to
    past what the frames carry, and offsets in [-P, 3P)."""
    M = draw(st.integers(2, 6))
    d = draw(st.integers(2, 4))
    P = d ** 3
    sources = [
        {"id": j, "attach": draw(st.integers(1, M)),
         "demands": sorted(draw(st.sets(st.integers(1, M), min_size=1)))}
        for j in range(1, draw(st.integers(1, 2)) + 1)
    ]
    cfg = parse_config({
        "M": M,
        "sources": sources,
        "duties": [f"{draw(st.integers(0, d))}/{d}" for _ in range(M)],
        "offsets": draw(st.lists(st.integers(-P, 3 * P - 1), min_size=M, max_size=M)),
        "periods": draw(st.integers(1, 3)),
    })
    # whole symbols per period of the set, whose d may have shrunk to a
    # divisor of the drawn one
    P = cfg.sequence_set().period
    cfg.rates = [Fraction(draw(st.integers(0, P // 2)), P) for _ in sources]
    return cfg


@settings(max_examples=200, deadline=None)
@given(cfg=sessions(), data=st.data())
def test_activity_matches_simulated_trace(cfg, data):
    sset = cfg.sequence_set()
    P = sset.period
    try:
        res = simulate(cfg.spec, sset, cfg.offsets, cfg.rates,
                       field(cfg.field_order()), cfg.periods)
    except (ValueError, CodingError):
        assume(False)  # rates the frames cannot carry are refused at setup
    except KeyError:
        # simulate's relay bookkeeping fails on a relayed source of rate 0
        # before any slot runs; that is not the channel under test here
        assume(False)
    # the trace records every node at every slot before it ends, early
    # when a link runs out of survivors
    end = max((slot for slot, *_ in res.trace.rows), default=-1) + 1
    assume(end >= P)
    for start in {0, end - P} | set(data.draw(
            st.lists(st.integers(0, end - P), max_size=3), label="starts")):
        for node in range(1, cfg.spec.M + 1):
            want = ref.activity_signal(res.trace, node, start=start)
            assert activity_signal(sset, cfg.offsets, node, start=start) == want


def test_over_capacity_session_matches_up_to_its_end():
    cfg = parse_config({
        "M": 4,
        "sources": [{"id": 1, "attach": 1, "demands": [4]},
                    {"id": 2, "attach": 4, "demands": [1]}],
        "duties": ["1/3"] * 4,
        "rates": ["5/27", "4/27"],
        "offsets": [-5, 30, 2, 80],
    })
    sset = cfg.sequence_set()
    res = simulate(cfg.spec, sset, cfg.offsets, cfg.rates, field(11), periods=6)
    assert not res.ok
    end = max(slot for slot, *_ in res.trace.rows) + 1
    assert 27 <= end < max(t % 27 for t in cfg.offsets) + 6 * 27
    for start in range(end - 27 + 1):
        for node in range(1, 5):
            want = ref.activity_signal(res.trace, node, start=start)
            assert activity_signal(sset, cfg.offsets, node, start=start) == want
