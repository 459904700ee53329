"""The benchmark's tracer patches attributes of reportsignal's modules by
name; every one it names must exist, or a traced benchmark run breaks.
The counts it reads off build results must be the ledgers' own."""

import importlib
import importlib.util
from pathlib import Path

from reportsignal.config import packaged_data_path
from reportsignal.econometrics import build_majority_samples, build_panel
from reportsignal.sentiment import load_lexicon, prepare_report
from tests.helpers import assemble, small_dataset
from tests.reference_market import records_of

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_tracing()
    targets = [entry[:2] for entry in tracing.SPANS] + [entry[:2] for entry in tracing.COUNTS]
    assert targets
    missing = [
        f"reportsignal.{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(f"reportsignal.{module}"), attr)
    ]
    assert missing == []


def test_panel_and_majority_read_offs_match_the_ledgers():
    """The counts the tracer reads off real build results are the pairs,
    rows and samples of the ledgers that build_panel and
    build_majority_samples keep."""
    tracing = load_tracing()
    ds = small_dataset()
    market, corpus_index, scores = assemble(ds)
    start, end = ds.test_range
    lexicon = load_lexicon(packaged_data_path("lexicon.csv"))
    records = records_of(ds.records)
    hits = {r.report_id: prepare_report(r.title, r.abstract, lexicon) for r in records}
    n_pairs = sum(len(r.stock_codes) for r in records if start <= r.release_date <= end)

    panel = build_panel(ds.records, scores, market, corpus_index, start, end)
    assert panel.n_pairs == n_pairs
    assert tracing._panel(panel, ()) == {
        "econometrics.panel_pairs": n_pairs,
        "econometrics.panel_rows": n_pairs - panel.n_dropped,
    }
    majority = build_majority_samples(ds.records, hits, market, start, end)
    assert tracing._majority(majority, ()) == {
        "econometrics.majority_samples": n_pairs - sum(majority[-1].values()),
    }
