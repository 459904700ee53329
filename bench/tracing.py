"""Spans and call counts around reportsignal's public functions.

The tracer patches module attributes, so it measures the calls that
callers make (``reportsignal.cli.load_market``, not the function object
inside ``market``) and nothing in ``src/`` changes.  Spans stay in memory
as (id, name, start, end, parent id, op) and are written out once, at the
end of a run.  A span's self time is its duration minus the part of it
covered by child spans.

Two kinds of wrapper exist.  A span wrapper times the call and may read
counts off its arguments and result (records parsed, panel rows built).
A count wrapper only counts calls: the metric kernels run hundreds of
thousands of times per operation, and a span around each would both
swamp the trace and distort the timing of their callers.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager


def _records(result, args):
    return {"corpus.records": len(result.records), "corpus.rejects": len(result.rejects)}


def _market(result, args):
    return {"market.bars": result.n_bars, "market.bar_rejects": len(result.bar_rejects)}


def _external(result, args):
    return {"sentiment.scores": len(result[0])}


def _pool(result, args):
    return {"labeling.pool": len(args[0])}


def _panel(result, args):
    return {"econometrics.panel_pairs": result.n_pairs, "econometrics.panel_rows": len(result.rows)}


def _majority(result, args):
    return {"econometrics.majority_samples": len(result[0])}


def _written(result, args):
    # cli passes (data, path, ...) positionally to every reporting writer
    return {"reporting.bytes": os.path.getsize(args[1])}


def _generated(result, args):
    return {"synthkit.bars": len(result.bars)}


_STORES = ("TradingCalendar", "BarStore", "IndexStore", "IndustryMap", "MarketData")
_REPORT_WRITERS = (
    "write_regression_csv",
    "write_industry_csv",
    "write_mean_test_csv",
    "write_daily_sentiment",
    "write_gnuplot_script",
)

# (module, attribute, span name, counts read from the call) for span
# wrappers.  One function patched in several modules shares a span name,
# so ``cli`` and the Monte-Carlo loop (which calls ``econometrics.*``)
# report into the same metric.
SPANS = (
    [
        ("cli", "parse_corpus", "corpus.parse_corpus", _records),
        ("cli", "prepare_report", "corpus.prepare_report", None),
        ("cli", "CorpusIndex", "corpus.corpus_index", None),
        ("corpus", "CorpusIndex", "corpus.corpus_index", None),
        ("cli", "load_market", "market.load_market", _market),
    ]
    + [("market", name, "market.store_build", None) for name in _STORES]
    + [
        ("cli", "label_window_return", "metrics.label_window_return", None),
        ("econometrics", "label_window_return", "metrics.label_window_return", None),
        ("cli", "lexicon_score", "sentiment.lexicon_score", None),
        ("cli", "load_external_scores", "sentiment.load_external_scores", _external),
        ("cli", "assign_labels", "labeling.assign_labels", _pool),
        ("cli", "build_panel", "econometrics.build_panel", _panel),
        ("econometrics", "build_panel", "econometrics.build_panel", _panel),
        ("cli", "build_majority_samples", "econometrics.build_majority_samples", _majority),
        ("cli", "run_pooled_regressions", "econometrics.pooled_fit", None),
        ("econometrics", "run_pooled_regressions", "econometrics.pooled_fit", None),
        ("cli", "run_industry_regressions", "econometrics.industry_fit", None),
        ("cli", "majority_group_tests", "econometrics.group_tests", None),
        ("cli", "write_panel", "econometrics.write_panel", None),
    ]
    + [("cli", name, "reporting.write", _written) for name in _REPORT_WRITERS]
    + [
        ("synthkit", "generate", "synthkit.generate", _generated),
        ("synthkit", "write_dataset", "synthkit.write_dataset", None),
    ]
)

# (module, attribute, counter name) for count-only wrappers.
COUNTS = (
    ("econometrics", "excess_return", "metrics.excess_return"),
    ("metrics", "excess_return", "metrics.excess_return"),
    ("econometrics", "delta_volume", "metrics.delta_volume"),
    ("econometrics", "garman_klass_range", "metrics.garman_klass_range"),
    ("econometrics", "ols_fit", "econometrics.ols_fit"),
)


class Tracer:
    """Collects spans, per-op self times, call counts and read-off counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[tuple, float] = {}
        self.calls: dict[tuple, int] = {}
        self.counts: dict[tuple, float] = {}
        self.op = None
        self._stack: list[list] = []  # [span id, start, time covered by children]
        self._next_id = 0
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            key = (self.op, name)
            self.self_s[key] = self.self_s.get(key, 0.0) + duration - frame[2]
            self.calls[key] = self.calls.get(key, 0) + 1
            self.spans.append((span_id, name, frame[1], end, parent, self.op))

    def _span_wrapper(self, fn, name, measure):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if measure is not None:
                    for key, value in measure(result, args).items():
                        self.counts[(self.op, key)] = self.counts.get((self.op, key), 0) + value
            return result

        return traced

    def _count_wrapper(self, fn, name):
        def counted(*args, **kwargs):
            key = (self.op, name)
            self.calls[key] = self.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every target; ``uninstall`` restores the originals."""
        for module_name, attr, name, measure in SPANS:
            module = importlib.import_module(f"reportsignal.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(original, name, measure))
        for module_name, attr, name in COUNTS:
            module = importlib.import_module(f"reportsignal.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._count_wrapper(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def active(self, op):
        """Trace everything called inside the block as operation ``op``."""
        self.op = op
        self.install()
        try:
            with self.span("op"):
                yield
        finally:
            self.uninstall()
            self.op = None

    def per_op(self, table: dict, name: str) -> list:
        """One value per traced operation that recorded ``name``."""
        return [value for (op, key), value in table.items() if key == name]

    def write(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")
