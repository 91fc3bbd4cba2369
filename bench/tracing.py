"""Spans and counters recorded around calls into tandemnet's layers.

The tracer wraps the names that callers actually look up (module
attributes such as ``tandemnet.network.nested_decode`` and the methods of
``tandemnet.gf.Field``), so nothing under ``src/`` changes.  Wrappers are
installed only for traced rounds and removed afterwards, so untraced
rounds run the library's own functions.

Every wrapped call opens a frame on a stack.  When it closes, its
duration is charged to its parent as child time, and its self time
(duration minus child time) to its span name.  A layer is the part of
the span name before the first dot.  Spans of coarse calls are kept in
memory as ``(id, name, start, end, parent_id)``; the caller writes them
out when the run ends.
``Field`` methods run millions of times per session, so they are only
counted and timed, not kept as spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

FIELD_METHODS = ("add", "neg", "sub", "mul", "inv", "div", "pow")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.total_s = defaultdict(float)  # inclusive time per span name
        self.self_s = defaultdict(float)  # self time per span name
        self._stack = []  # [span_id, name, start, child_time, record]
        self._next_id = 1
        self._patches = []

    # -- frames ---------------------------------------------------------

    def enter(self, name, record=True):
        frame = [self._next_id, name, perf_counter(), 0.0, record]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        span_id, name, start, child, record = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        else:
            parent = 0
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.counts[name] += 1
        if record:
            self.spans.append((span_id, name, start, end, parent))

    # -- wrappers -------------------------------------------------------

    def wrap(self, name, fn, record=True, after=None, errors=()):
        """A stand-in for ``fn`` that runs it inside a span.  ``after``
        gets (counts, args, kwargs, result) once the call returns;
        exception classes in ``errors`` are counted as ``<name>.<class>``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name, record)
            try:
                result = fn(*args, **kwargs)
            except errors as exc:
                self.counts[f"{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                self.exit(frame)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, tandemnet):
        """Wrap every public entry point the workloads reach."""
        cli, coding, gf, network = (
            tandemnet.cli, tandemnet.coding, tandemnet.gf, tandemnet.network)
        rates, sequences = tandemnet.rates, tandemnet.sequences

        for meth in FIELD_METHODS:
            self.patch(gf.Field, meth, self.wrap(
                f"gf.{meth}", gf.Field.__dict__[meth], record=False))

        def decode_counts(counts, args, kwargs, result):
            counts["coding.survivors"] += sum(v is not None for v in args[1])
            counts["coding.dim"] += kwargs["expected_dim"]

        encode = self.wrap("coding.nested_encode", coding.nested_encode)
        decode = self.wrap("coding.nested_decode", coding.nested_decode,
                           after=decode_counts,
                           errors=(coding.InsufficientDataError,))
        self.patch(network, "nested_encode", encode)
        self.patch(network, "nested_decode", decode)

        def sim_counts(counts, args, kwargs, result):
            rows = len(result.trace.rows)
            counts["network.trace_rows"] += rows
            counts["network.slots"] += rows // args[0].M

        simulate = self.wrap("network.simulate", network.simulate,
                             after=sim_counts)
        self.patch(network, "simulate", simulate)
        self.patch(cli, "simulate", simulate)
        identify = self.wrap("network.identify_senders",
                             network.identify_senders)
        self.patch(network, "identify_senders", identify)
        self.patch(cli, "identify_senders", identify)
        discover = self.wrap("network.discover_offset", network.discover_offset)
        self.patch(network, "discover_offset", discover)
        self.patch(cli, "discover_offset", discover)
        self.patch(network, "parse_config", self.wrap(
            "network.parse_config", network.parse_config))

        construct = self.wrap("sequences.construct_sequences",
                              sequences.construct_sequences)
        self.patch(sequences, "construct_sequences", construct)
        self.patch(network, "construct_sequences", construct)
        si = self.wrap("sequences.is_consecutively_3wise_shift_invariant",
                       sequences.is_consecutively_3wise_shift_invariant)
        self.patch(sequences, "is_consecutively_3wise_shift_invariant", si)
        self.patch(cli, "is_consecutively_3wise_shift_invariant", si)

        symmetric = self.wrap("rates.max_symmetric_rate", rates.max_symmetric_rate)
        self.patch(rates, "max_symmetric_rate", symmetric)
        self.patch(cli, "max_symmetric_rate", symmetric)
        boundary = self.wrap("rates.region_boundary", rates.region_boundary)
        self.patch(rates, "region_boundary", boundary)
        self.patch(cli, "region_boundary", boundary)
        self.patch(rates, "max_rate2_given_rate1", self.wrap(
            "rates.max_rate2_given_rate1", rates.max_rate2_given_rate1))

        self.patch(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def snapshot(self):
        """Counts and times accumulated so far, as plain dicts."""
        return dict(self.counts), dict(self.total_s), dict(self.self_s)
