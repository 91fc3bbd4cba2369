"""Tandem collision network model and discrete-time simulator.

Nodes sit on a line and hear only their immediate neighbors.  Every node
is half-duplex and transmits on the schedule of its protocol sequence; a
receiver that hears both neighbors at once loses both packets.  On top of
that channel this module provides:

* the topology bookkeeping (source/destination mappings and the derived
  per-node relay sets),
* an end-to-end session simulator that drives the nested coder at every
  node and returns the per-destination decoded symbols,
* the channel activity a node observes over one period, read straight
  from its own and its neighbors' sequences and offsets,
* the sliding-window sender-identification algorithm that labels every
  successfully received packet as coming from the left or right neighbor
  using only the observed channel activity,
* the marker-frame handshake that recovers a neighbor's delay offset at
  session start, and
* a sub-slot-resolution counting simulator for expanded sequence sets
  under arbitrary (rational) packet misalignment.

Slots are indexed on a global clock; node i's local slot k occurs at
global slot k + tau_i.
"""

from __future__ import annotations

import csv
import json
from contextlib import suppress
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coding import (
    InsufficientDataError,
    NodeCoderState,
    nested_decode,
    nested_encode,
)
from .gf import Field, _factor_prime_power, field as make_field
from .sequences import (
    DutyFactor,
    ProtocolSequence,
    SequenceSet,
    construct_sequences,
    require_table_bytes,
    roll_matrix,
    rolled,
)

# Channel activity symbols.
TRANSMIT = "Δ"  # node's own transmission slots
IDLE = "0"
SINGLE = "1"
COLLISION = "*"


class NetworkError(Exception):
    pass


class InconsistentObservationError(NetworkError):
    """No offset hypothesis reproduces the observed channel activity."""


class DiscoveryFailedError(NetworkError):
    """The offset-discovery handshake found no usable marker pair."""


@dataclass(frozen=True)
class Source:
    id: int
    attach: int
    demands: frozenset

    def __post_init__(self):
        if not self.demands:
            raise ValueError(f"source {self.id} has an empty demand set")


class NetworkSpec:
    """M nodes on a line plus the source and destination mappings."""

    def __init__(self, M: int, sources: Sequence[Source]):
        if M < 1:
            raise ValueError("need at least one node")
        sources = list(sources)
        ids = [s.id for s in sources]
        if ids != list(range(1, len(sources) + 1)):
            raise ValueError("source ids must be 1..N in order")
        for s in sources:
            if not 1 <= s.attach <= M:
                raise ValueError(f"source {s.id} attached to invalid node {s.attach}")
            if any(not 1 <= d <= M for d in s.demands):
                raise ValueError(f"source {s.id} demands an invalid node")
        self.M = M
        self.sources = sources
        self.N = len(sources)

    def attached_at(self, i: int) -> List[int]:
        return [s.id for s in self.sources if s.attach == i]

    def source(self, j: int) -> Source:
        return self.sources[j - 1]

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        sources = [
            Source(id=s["id"], attach=s["attach"], demands=frozenset(s["demands"]))
            for s in data["sources"]
        ]
        return cls(M=data["M"], sources=sources)


@dataclass
class RelaySets:
    """Per-node sets of sources whose traffic crosses the node.

    ``fwd[i]``/``bwd[i]`` use strict attachment inequalities (traffic
    strictly passing through node i); ``fwd_incl``/``bwd_incl`` also count
    a source attached at node i itself, which is the variant the capacity
    outer bound sums over.
    """

    fwd: Dict[int, frozenset]
    bwd: Dict[int, frozenset]
    fwd_incl: Dict[int, frozenset]
    bwd_incl: Dict[int, frozenset]


def relay_sets(spec: NetworkSpec) -> RelaySets:
    fwd, bwd, fwd_incl, bwd_incl = {}, {}, {}, {}
    for i in range(1, spec.M + 1):
        fwd[i] = frozenset(
            s.id for s in spec.sources
            if s.attach < i and any(d > i for d in s.demands)
        )
        bwd[i] = frozenset(
            s.id for s in spec.sources
            if s.attach > i and any(d < i for d in s.demands)
        )
        fwd_incl[i] = frozenset(
            s.id for s in spec.sources
            if s.attach <= i and any(d > i for d in s.demands)
        )
        bwd_incl[i] = frozenset(
            s.id for s in spec.sources
            if s.attach >= i and any(d < i for d in s.demands)
        )
    # traffic cannot pass beyond the line's ends
    fwd[1] = fwd[spec.M] = bwd[1] = bwd[spec.M] = frozenset()
    fwd_incl[spec.M] = frozenset()
    bwd_incl[1] = frozenset()
    return RelaySets(fwd=fwd, bwd=bwd, fwd_incl=fwd_incl, bwd_incl=bwd_incl)


def is_bidirectional(spec: NetworkSpec) -> bool:
    """True when every source attached to an interior node has a demand on
    each side of its attachment."""
    for s in spec.sources:
        if s.attach in (1, spec.M):
            continue
        if not any(d < s.attach for d in s.demands):
            return False
        if not any(d > s.attach for d in s.demands):
            return False
    return True


# -- simulation trace ---------------------------------------------------

@dataclass
class SimTrace:
    period: int
    offsets: List[int]
    rows: List[tuple] = dc_field(default_factory=list)  # (slot, node, action, value)

    def record(self, slot, node, action, value=None):
        self.rows.append((slot, node, action, value))

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["slot", "node", "action", "value"])
            for slot, node, action, value in self.rows:
                w.writerow([slot, node, action, "" if value is None else value])


@dataclass
class ChannelActivitySignal:
    symbols: tuple  # over TRANSMIT/IDLE/SINGLE/COLLISION

    def __str__(self):
        return "".join(self.symbols)

    def __len__(self):
        return len(self.symbols)


def activity_signal(
    sset: SequenceSet, offsets: Sequence[int], node: int, start: int = 0
) -> ChannelActivitySignal:
    """The node's per-slot observation over one period from global slot
    ``start``, with node i's local slot k at global slot k + offsets[i-1].
    Every schedule is periodic, so the node sends where its own delayed
    row is 1 and otherwise hears the sum of its neighbors' rows; a
    neighbor beyond the line's ends is silent.  Raises ValueError for a
    node outside 1..M."""
    if not sset.in_range(node):
        raise ValueError(f"node {node} lies outside 1..{len(sset)}")
    own, left, right = (
        rolled(sset[i], offsets[i - 1] - start if sset.in_range(i) else 0)
        for i in (node, node - 1, node + 1)
    )
    heard = (IDLE, SINGLE, COLLISION)
    return ChannelActivitySignal(tuple(
        TRANSMIT if tx else heard[n] for tx, n in zip(own, left + right)))


# -- sender identification ----------------------------------------------

def identify_senders(
    signal: ChannelActivitySignal,
    own_seq: ProtocolSequence,
    own_tau: int,
    left_seq: Optional[ProtocolSequence],
    right_seq: Optional[ProtocolSequence],
    start: int = 0,
) -> Dict[int, int]:
    """Label the sender of every successfully received packet.

    Searches offset hypotheses for the two neighbors, lexicographically,
    until the predicted activity signal matches the observation; any
    consistent hypothesis labels the single-packet slots correctly when
    the sequence family is consecutively 3-wise shift-invariant.  Returns
    {slot index within the signal: -1 (left neighbor) or +1 (right)}.

    ``start`` is the global slot of the signal's first symbol.  Raises
    ValueError when the P x P tables would exceed
    ``sequences.TABLE_BYTES_LIMIT``.
    """
    P = len(signal)
    if own_seq.period != P:
        raise ValueError("signal length must equal the sequence period")
    require_table_bytes(25 * P * P, f"sender identification at period {P}")
    own = np.array(
        [own_seq.bits[(start + k - own_tau) % P] for k in range(P)], dtype=np.int64
    )
    sym = np.array(signal.symbols)
    if not np.array_equal(own == 1, sym == TRANSMIT):
        raise InconsistentObservationError(
            "signal's transmit slots disagree with the node's own schedule"
        )
    listening = np.flatnonzero(own == 0)
    observed = np.zeros(len(listening))
    observed[sym[listening] == SINGLE] = 1
    observed[sym[listening] == COLLISION] = 2

    # rows are hypothesized activity patterns over the listening slots of
    # the signal window: row tau holds s[(k - start - tau) mod P] at slot k;
    # an absent neighbor is one all-silent row
    left_tab, right_tab = (
        np.zeros((1, len(listening))) if seq is None
        else roll_matrix(seq, (listening - start) % P)
        for seq in (left_seq, right_seq)
    )
    # mismatch[tl, tr] = sum over listening slots of (left + right - observed)^2,
    # expanded with left^2 = left and right^2 = right for 0/1 rows
    weight = 1 - 2 * observed
    mismatch = (
        (left_tab @ weight)[:, None] + (right_tab @ weight)[None, :]
        + observed @ observed + 2 * (left_tab @ right_tab.T)
    )
    first = int(np.argmin(mismatch))  # lexicographically first best hypothesis
    if mismatch.flat[first] != 0:
        raise InconsistentObservationError(
            "no offset hypothesis reproduces the observed activity"
        )
    tl = first // mismatch.shape[1]
    return {
        int(k): -1 if left == 1 else +1
        for k, left, obs in zip(listening, left_tab[tl], observed)
        if obs == 1
    }


# -- end-to-end session simulator ---------------------------------------

# A relayed symbol segment advances one hop every RELAY_LAG periods: the
# frame a node composes for its local period t carries the segments it
# decoded from the neighbors' frames of period t-2.  A one-period lag
# would require the neighbor's period to end before ours begins, which
# arbitrary offsets do not guarantee; two periods always suffice.
RELAY_LAG = 2


@dataclass
class LinkFailure:
    transmitter: int
    receiver: int
    period: int
    needed: int
    survivors: int

    def __str__(self):
        return (
            f"link {self.transmitter}->{self.receiver}, period {self.period}: "
            f"{self.survivors} survivors < dimension {self.needed}"
        )


@dataclass
class SimResult:
    trace: SimTrace
    decoded: Dict[Tuple[int, int], Dict[int, tuple]]  # (source, dest) -> {period: symbols}
    truth: Dict[int, Dict[int, tuple]]  # source -> {period: symbols}
    failure: Optional[LinkFailure]
    periods: int
    spec: NetworkSpec

    @property
    def ok(self) -> bool:
        return self.failure is None

    def decodable_periods(self, j: int, dest: int) -> range:
        """Source periods of source j that a destination can have decoded
        within the simulated horizon."""
        hops = abs(dest - self.spec.source(j).attach)
        return range(0, max(self.periods - RELAY_LAG * (hops - 1), 0))

    def error_count(self) -> int:
        """Number of (source, destination, period) decode mismatches."""
        errors = 0
        for (j, dest), got in self.decoded.items():
            for t in self.decodable_periods(j, dest):
                if got.get(t) != self.truth[j].get(t):
                    errors += 1
        return errors


def _segment_periods(spec: NetworkSpec, rsets: RelaySets, node: int, t: int):
    """(source, period) layout of the frame node ``node`` sends in its
    local period t: attached sources, then forward relays, then backward
    relays, each ordered by source id."""
    src = [(j, t) for j in spec.attached_at(node)]
    fwd = [
        (j, t - RELAY_LAG * (node - spec.source(j).attach))
        for j in sorted(rsets.fwd[node])
    ]
    bwd = [
        (j, t - RELAY_LAG * (spec.source(j).attach - node))
        for j in sorted(rsets.bwd[node])
    ]
    return src, fwd, bwd


class _NodeKnowledge:
    """Symbols a node has generated itself or decoded from its neighbors."""

    def __init__(self, spec, rates, period, truth, own_sources):
        self.spec = spec
        self.rates = rates
        self.period = period
        self.truth = truth
        self.own = set(own_sources)
        self.store: Dict[Tuple[int, int], tuple] = {}

    def segment(self, j: int, t: int) -> tuple:
        if t < 0:
            return (0,) * int(self.rates[j - 1] * self.period)
        if j in self.own:
            return self.truth[j][t]
        return self.store[(j, t)]

    def learn(self, j: int, t: int, symbols: tuple):
        if t >= 0 and j not in self.own:
            self.store[(j, t)] = symbols


def simulate(
    spec: NetworkSpec,
    sset: SequenceSet,
    offsets: Sequence[int],
    rates: Sequence[Fraction],
    field: Field,
    periods: int,
    seed: int = 0,
    messages: Optional[Dict[int, Dict[int, tuple]]] = None,
) -> SimResult:
    """Run a full multiple-access session for the given delay offsets.

    Every node transmits nested-coded frames on its sequence's schedule;
    every node decodes both neighbors' frames each period and re-encodes
    the relayed symbols two periods later.  Returns the trace and the
    symbols each destination recovered; when some link has fewer
    survivors than the codeword dimension (a rate vector outside the
    achievable region) the result carries the offending link instead.
    """
    M = spec.M
    if len(sset) != M:
        raise ValueError(f"need {M} sequences, got {len(sset)}")
    if len(offsets) != M:
        raise ValueError(f"need {M} offsets, got {len(offsets)}")
    if len(rates) != spec.N:
        raise ValueError(f"need {spec.N} rates, got {len(rates)}")
    P = sset.period
    taus = [t % P for t in offsets]
    rsets = relay_sets(spec)

    rng = np.random.default_rng(seed)
    truth: Dict[int, Dict[int, tuple]] = {}
    for j in range(1, spec.N + 1):
        count = rates[j - 1] * P
        if count.denominator != 1:
            raise ValueError(f"rate of source {j} gives fractional symbols per period")
        count = int(count)
        if messages and j in messages:
            truth[j] = dict(messages[j])
        else:
            truth[j] = {
                t: tuple(int(v) for v in rng.integers(0, field.order, size=count))
                for t in range(periods)
            }

    seqs = {i: sset[i] for i in range(1, M + 1)}
    ones = {i: seqs[i].one_positions() for i in range(1, M + 1)}
    ones_before = {
        i: np.cumsum([0] + list(seqs[i].bits))[:-1] for i in range(1, M + 1)
    }
    frame_len = {i: seqs[i].weight for i in range(1, M + 1)}

    def seg_len(j):
        return int(rates[j - 1] * P)

    knowledge = {
        i: _NodeKnowledge(spec, rates, P, truth, spec.attached_at(i))
        for i in range(1, M + 1)
    }
    frames: Dict[Tuple[int, int], List[int]] = {}
    # received[(rx, tx)][t] -> list of values/None per packet position
    received: Dict[Tuple[int, int], Dict[int, List[Optional[int]]]] = {}
    for i in range(1, M + 1):
        for nb in (i - 1, i + 1):
            if 1 <= nb <= M:
                received[(i, nb)] = {}

    trace = SimTrace(period=P, offsets=list(taus))
    failure: Optional[LinkFailure] = None

    def compose(i, t):
        src, fwd, bwd = _segment_periods(spec, rsets, i, t)
        kn = knowledge[i]
        src_syms = [s for j, tt in src for s in kn.segment(j, tt)]
        fwd_syms = [s for j, tt in fwd for s in kn.segment(j, tt)]
        bwd_syms = [s for j, tt in bwd for s in kn.segment(j, tt)]
        state = NodeCoderState(
            node=i,
            period=P,
            frame_len=frame_len[i],
            fwd_rate=sum((rates[j - 1] for j in sorted(rsets.fwd[i])), Fraction(0)),
            bwd_rate=sum((rates[j - 1] for j in sorted(rsets.bwd[i])), Fraction(0)),
            src_rate=sum((rates[j - 1] for j in spec.attached_at(i)), Fraction(0)),
            fwd_symbols=fwd_syms,
            bwd_symbols=bwd_syms,
            src_symbols=src_syms,
        )
        frames[(i, t)] = nested_encode(field, state)

    def decode(rx, tx, t):
        nonlocal failure
        if failure is not None:
            return
        src, fwd, bwd = _segment_periods(spec, rsets, tx, t)
        kn = knowledge[rx]
        src_count = sum(seg_len(j) for j, _ in src)
        values = received[(rx, tx)].get(t, [None] * frame_len[tx])
        if tx == rx - 1:
            known = [s for j, tt in bwd for s in kn.segment(j, tt)]
            unknown, dim_extra = fwd, sum(seg_len(j) for j, _ in fwd)
        else:
            known = [s for j, tt in fwd for s in kn.segment(j, tt)]
            unknown, dim_extra = bwd, sum(seg_len(j) for j, _ in bwd)
        expected_dim = src_count + dim_extra
        if expected_dim == 0:
            # nothing to decode, but the (empty) segments are now known
            for j, tt in src + unknown:
                kn.learn(j, tt, ())
            return
        try:
            low, high = nested_decode(
                field,
                values,
                list(range(frame_len[tx])),
                known_coeffs=known,
                known_shift=src_count,
                expected_dim=expected_dim,
                split_at=src_count,
            )
        except InsufficientDataError:
            survivors = sum(v is not None for v in values)
            failure = LinkFailure(
                transmitter=tx, receiver=rx, period=t,
                needed=expected_dim, survivors=survivors,
            )
            return
        pos = 0
        for j, tt in src:
            kn.learn(j, tt, tuple(low[pos:pos + seg_len(j)]))
            pos += seg_len(j)
        pos = 0
        for j, tt in unknown:
            kn.learn(j, tt, tuple(high[pos:pos + seg_len(j)]))
            pos += seg_len(j)

    total_end = max(taus) + periods * P
    for k in range(total_end + 1):
        # decode any neighbor frame that just completed
        for i in range(1, M + 1):
            for nb in (i - 1, i + 1):
                if not 1 <= nb <= M:
                    continue
                t = (k - taus[nb - 1]) // P - 1
                if (k - taus[nb - 1]) % P == 0 and 0 <= t < periods:
                    decode(i, nb, t)
        if failure is not None or k >= total_end:
            break
        # compose frames starting at this slot
        for i in range(1, M + 1):
            if (k - taus[i - 1]) % P == 0:
                t = (k - taus[i - 1]) // P
                if 0 <= t < periods:
                    compose(i, t)
        # transmissions and receptions
        active = {}
        for i in range(1, M + 1):
            local = k - taus[i - 1]
            pos = local % P
            if seqs[i].bits[pos]:
                t = local // P
                idx = int(ones_before[i][pos])
                value = frames[(i, t)][idx] if (i, t) in frames else 0
                active[i] = (t, idx, value)
                trace.record(k, i, "tx", value)
        for i in range(1, M + 1):
            if i in active:
                continue
            nbs = [nb for nb in (i - 1, i + 1) if nb in active]
            if len(nbs) == 2:
                trace.record(k, i, "collision")
            elif len(nbs) == 1:
                nb = nbs[0]
                t, idx, value = active[nb]
                trace.record(k, i, "rx", value)
                if 0 <= t < periods:
                    slot_values = received[(i, nb)].setdefault(
                        t, [None] * frame_len[nb]
                    )
                    slot_values[idx] = value
            else:
                trace.record(k, i, "idle")

    decoded: Dict[Tuple[int, int], Dict[int, tuple]] = {}
    for j in range(1, spec.N + 1):
        for dest in sorted(spec.source(j).demands):
            if dest == spec.source(j).attach:
                continue
            kn = knowledge[dest]
            decoded[(j, dest)] = {
                t: kn.store[(j, t)]
                for t in range(periods)
                if (j, t) in kn.store
            }
    return SimResult(
        trace=trace, decoded=decoded, truth=truth,
        failure=failure, periods=periods, spec=spec,
    )


# -- offset discovery ---------------------------------------------------

def _handshake_value(seq: ProtocolSequence, t: int, idx: int) -> int:
    """Packet value of the initialization frames: frame 0 is all marker
    symbols, frame 1+a has the marker in position a, everything else 0."""
    if t == 0:
        return 1
    if 1 <= t <= seq.weight and idx == t - 1:
        return 1
    return 0


def discover_offset(
    sset: SequenceSet,
    offsets: Sequence[int],
    transmitter: int,
    receiver: int,
    extra_periods: int = 8,
) -> int:
    """Recover the transmitter's delay offset from its marker frames.

    All nodes simultaneously run the initialization schedule (one
    all-marker frame, then one frame per packet position with a single
    marker).  The receiver labels the senders of its successful packets
    by the activity-signal search, then looks for two marker packets from
    the transmitter a whole number of periods apart: the later one pins
    down which packet position it is watching, and with it the offset.

    Raises DiscoveryFailedError when no such pair shows up within
    ``weight + 1 + extra_periods`` periods of observation.
    """
    M = len(sset)
    P = sset.period
    if abs(transmitter - receiver) != 1 or not 1 <= min(transmitter, receiver) < M:
        raise ValueError(
            f"transmitter {transmitter} and receiver {receiver} must be adjacent in 1..{M}"
        )
    taus = [t % P for t in offsets]
    seqs = {i: sset[i] for i in range(1, M + 1)}
    ones_before = {
        i: np.cumsum([0] + list(seqs[i].bits))[:-1] for i in range(1, M + 1)
    }
    tx_seq = seqs[transmitter]

    # one period of observation suffices to label senders for good: the
    # activity pattern is periodic even while packet values change
    total = max(taus) + (tx_seq.weight + 1 + extra_periods) * P
    start = taus[receiver - 1]
    window: List[str] = []
    singles: Dict[int, Tuple[int, int]] = {}  # global slot -> (sender, value)
    for k in range(total):
        active = {}
        for i in range(1, M + 1):
            local = k - taus[i - 1]
            pos = local % P
            if seqs[i].bits[pos]:
                t = local // P
                idx = int(ones_before[i][pos])
                active[i] = (i, _handshake_value(seqs[i], t, idx) if t >= 0 else 0)
        if receiver in active:
            obs = TRANSMIT
        else:
            nbs = [nb for nb in (receiver - 1, receiver + 1) if nb in active]
            if len(nbs) == 2:
                obs = COLLISION
            elif len(nbs) == 1:
                obs = SINGLE
                singles[k] = active[nbs[0]]
            else:
                obs = IDLE
        if start <= k < start + P:
            window.append(obs)

    labels = identify_senders(
        ChannelActivitySignal(tuple(window)),
        seqs[receiver],
        taus[receiver - 1],
        seqs[receiver - 1] if receiver - 1 >= 1 else None,
        seqs[receiver + 1] if receiver + 1 <= M else None,
        start=start,
    )
    side = -1 if transmitter == receiver - 1 else +1
    from_tx_positions = {
        (start + k) % P for k, s in labels.items() if s == side
    }

    markers = sorted(
        k for k, (snd, val) in singles.items()
        if snd == transmitter and val == 1 and k % P in {p % P for p in from_tx_positions}
    )
    one_slots = tx_seq.one_positions()
    for k2 in markers:
        for k1 in markers:
            if k1 >= k2 or (k2 - k1) % P:
                continue
            a = (k2 - k1) // P
            if not 1 <= a <= tx_seq.weight:
                continue
            tau_hat = (k2 - one_slots[a - 1]) % P
            predicted = {(tau_hat + p) % P for p in one_slots}
            if from_tx_positions <= predicted:
                return tau_hat
    raise DiscoveryFailedError(
        f"no marker pair from node {transmitter} observed at node {receiver} "
        f"within {tx_seq.weight + 1 + extra_periods} periods"
    )


# -- sub-slot (slot-asynchronous) counting simulator ---------------------

def simulate_subslot(
    sset: SequenceSet,
    subslot_offsets: Sequence[int],
    g: int,
) -> Dict[Tuple[int, int], int]:
    """Per-link count of non-collided packets per period at sub-slot
    packet misalignment.

    Each slot spans ``g`` sub-slots and offsets are arbitrary integers in
    sub-slot units, so packets may overlap partially.  A packet from node
    i starting at sub-slot t0 reaches node i+1 iff neither node i+1 nor
    node i+2 starts any packet within the open window (t0-g, t0+g) -- the
    receiver must be listening for the packet's whole duration and any
    partial overlap from two hops away erases it.  All counting is cyclic
    over one full period.
    """
    if g < 1:
        raise ValueError("sub-slot granularity g must be >= 1")
    M = len(sset)
    P = sset.period
    if len(subslot_offsets) != M:
        raise ValueError(f"need {M} offsets, got {len(subslot_offsets)}")
    L = g * P
    starts = {}
    for i in range(1, M + 1):
        pos = np.asarray(sset[i].one_positions(), dtype=np.int64)
        starts[i] = np.sort((g * pos + subslot_offsets[i - 1]) % L)

    def blocked_mask(nodes):
        mask = np.zeros(L, dtype=bool)
        for n in nodes:
            if not 1 <= n <= M:
                continue
            ind = np.zeros(L, dtype=bool)
            ind[starts[n]] = True
            for s in range(-(g - 1), g):
                mask |= np.roll(ind, s)
        return mask

    counts: Dict[Tuple[int, int], int] = {}
    for i in range(1, M + 1):
        for step in (+1, -1):
            rx = i + step
            if not 1 <= rx <= M:
                continue
            mask = blocked_mask([rx, i + 2 * step])
            counts[(i, rx)] = int(np.sum(~mask[starts[i]]))
    return counts


# -- experiment configuration -------------------------------------------

CONFIG_SCHEMA = """\
Experiment config (JSON object):
  M         int, number of nodes
  sources   list of {"id": int, "attach": int, "demands": [int, ...]}
  duties    list of M strings "n/d" with a common denominator d
  offsets   list of M ints (optional, default all zero)
  field_q   int, prime power >= max frame length (optional, default
            smallest adequate prime)
  rates     list of N strings "p/q", symbols per packet duration
  periods   int, simulated periods (optional, default 8)
  m         int >= 2, expansion factor (optional, default 3)
  g         int >= 1, sub-slots per slot (optional, default 4)
"""


@dataclass
class ExperimentConfig:
    spec: NetworkSpec
    duties: List[DutyFactor]
    rates: List[Fraction]
    offsets: List[int]
    field_q: Optional[int]
    periods: int
    m: int
    g: int

    def sequence_set(self) -> SequenceSet:
        return construct_sequences(self.duties)

    @property
    def frame_length(self) -> int:
        """Packets in the longest frame: a duty n/d sends n*d^2 per period."""
        return max(f.numerator * f.denominator**2 for f in self.duties)

    def field_order(self) -> int:
        if self.field_q is not None:
            return self.field_q
        q = max(self.frame_length, 2)
        while True:
            with suppress(ValueError):  # q is not a prime power
                if _factor_prime_power(q)[1] == 1:
                    return q
            q += 1


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    return parse_config(data)


def parse_config(data: dict) -> ExperimentConfig:
    try:
        spec = NetworkSpec.from_dict(data)
        duties_raw = [Fraction(tok) for tok in data["duties"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise NetworkError(f"bad config: {exc}\n\n{CONFIG_SCHEMA}") from exc
    if len(duties_raw) != spec.M:
        raise NetworkError(f"need {spec.M} duties, got {len(duties_raw)}")
    for f in duties_raw:
        if not 0 <= f <= 1:
            raise NetworkError(f"duty {f} lies outside [0, 1]")
    denom = 1
    for f in duties_raw:
        denom = denom * f.denominator // np.gcd(denom, f.denominator)
    duties = [DutyFactor(int(f * denom), int(denom)) for f in duties_raw]
    rates = [Fraction(tok) for tok in data.get("rates", [])]
    if rates and len(rates) != spec.N:
        raise NetworkError(f"need {spec.N} rates, got {len(rates)}")
    offsets = list(data.get("offsets", [0] * spec.M))
    if len(offsets) != spec.M:
        raise NetworkError(f"need {spec.M} offsets, got {len(offsets)}")
    period = int(denom) ** 3
    try:
        # each sequence holds its period as a tuple, 8 bytes per slot
        require_table_bytes(8 * spec.M * period, f"a sequence set of period {period}")
    except ValueError as exc:
        raise NetworkError(str(exc)) from exc
    for j, rate in enumerate(rates, start=1):
        if (rate * period).denominator != 1:
            raise NetworkError(
                f"rate {rate} of source {j} gives {rate * period} symbols "
                f"per period of {period} slots, not a whole number"
            )
    cfg = ExperimentConfig(
        spec=spec,
        duties=duties,
        rates=rates or [Fraction(0)] * spec.N,
        offsets=offsets,
        field_q=data.get("field_q"),
        periods=int(data.get("periods", 8)),
        m=int(data.get("m", 3)),
        g=int(data.get("g", 4)),
    )
    if cfg.field_q is not None:
        try:
            make_field(cfg.field_q)
        except (ValueError, TypeError) as exc:
            raise NetworkError(f"bad field_q: {exc}") from exc
        if cfg.frame_length > cfg.field_q:
            raise NetworkError(
                f"frame length {cfg.frame_length} exceeds field order {cfg.field_q}"
            )
    return cfg
