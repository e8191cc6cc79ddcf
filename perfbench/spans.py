"""In-memory span recorder for the traced replay.

A span has a name, a start, an end, a parent span and a job id. Counts are
recorded at the same boundaries: a count passed to `span` is added to its
counter, and the span's duration is added to the counter's busy time, so a
rate such as windows per second divides work by the time of exactly the
spans that did it. Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

# Per-layer metrics, in the order they are printed: (name, unit).
PER_LAYER = [
    ("synthesis.determinacy_check.s", "s"),
    ("synthesis.determinacy_check.calls", "count"),
    ("synthesis.windows", "count"),
    ("synthesis.keys", "count"),
    ("synthesis.windows_per_s", "1/s"),
    ("ca.check_left_inverse.s", "s"),
    ("ca.check_right_inverse.s", "s"),
    ("ca.windows", "count"),
    ("ca.windows_per_s", "1/s"),
    ("ca.compose.s", "s"),
    ("ca.extend_memory.s", "s"),
    ("alphabets.finite_map_classify.s", "s"),
    ("transport.build_embedding.s", "s"),
    ("transport.target_order", "count"),
    ("transport.transport_endomap.s", "s"),
    ("transport.configs", "count"),
    ("transport.configs_per_s", "1/s"),
    ("transport.invert_transport.s", "s"),
    ("transport.extract_local_rule.s", "s"),
    ("transport.composes_to_identity.s", "s"),
    ("transport.check_equivariance.s", "s"),
    ("transport.table_bytes", "bytes"),
    ("linalg.rank.s", "s"),
    ("linalg.invert.s", "s"),
    ("linalg.dim", "count"),
    ("groupring.random_invertible_matrix.s", "s"),
    ("groupring.matrix_mul.s", "s"),
    ("groupring.conv_terms", "count"),
    ("groupring.one_sided_inverse_solve.s", "s"),
    ("groupring.solve_unknowns", "count"),
    ("groupring.to_linear_ca.s", "s"),
    ("groups.ball.s", "s"),
    ("groups.set_product.s", "s"),
    ("groups.elements", "count"),
    ("serialize.load.s", "s"),
    ("serialize.dump.s", "s"),
    ("serialize.bytes", "bytes"),
    ("cli.parse.s", "s"),
    ("cli.exit_0", "count"),
    ("cli.exit_1", "count"),
    ("cli.exit_2", "count"),
    ("cli.exit_3", "count"),
    ("caps.headroom", "ratio"),
    ("trace.overhead_s", "s"),
]

# Counters reported as the largest value seen rather than a sum.
_PEAKS = {"transport.target_order", "transport.table_bytes", "linalg.dim", "caps.headroom"}

# Rate metric -> the counter whose work it divides by that counter's busy time.
_RATES = {
    "synthesis.windows_per_s": "synthesis.windows",
    "ca.windows_per_s": "ca.windows",
    "transport.configs_per_s": "transport.configs",
}


class Tracer:
    """Spans and counters of one traced pass over a job list."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = {}
        self.busy = {}
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            for key, n in (counts or {}).items():
                self.add(key, n)
                self.busy[key] = self.busy.get(key, 0.0) + record[2] - record[1]

    def call(self, name: str, fn, *args, counts: dict | None = None, **kwargs):
        """Run one public call inside a span named after its layer."""
        with self.span(name, counts):
            return fn(*args, **kwargs)

    def add(self, key: str, n) -> None:
        if key in _PEAKS:
            self.counts[key] = max(self.counts.get(key, 0), n)
        else:
            self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self) -> dict:
        """Span name -> summed self time (duration minus child durations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric but the tracing overhead, for this pass."""
        selfs = self.self_times()
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            if name in _RATES:
                key = _RATES[name]
                busy = self.busy.get(key, 0.0)
                out[name] = self.counts.get(key, 0) / busy if busy > 0 else 0.0
            elif name.endswith(".calls"):
                span = name[: -len(".calls")]
                out[name] = sum(1 for s in self.spans if s[0] == span)
            elif unit == "s":
                out[name] = selfs.get(name[: -len(".s")], 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


def median_metrics(per_pass: list) -> dict:
    """Per-metric median over passes (counts repeat, so they pass through)."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
