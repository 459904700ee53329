"""The benchmark's tracer patches attributes of reportsignal's modules by
name; every one it names must exist, or a traced benchmark run breaks.
The counts it reads off build results must be the ledgers' own, and the
benchmark's in-memory path must run on what ``generate`` gives."""

import importlib
import importlib.util
import os
from pathlib import Path

import numpy as np

from reportsignal.config import RunConfig, packaged_data_path
from reportsignal.econometrics import build_majority_samples, build_panel
from reportsignal.sentiment import load_lexicon, prepare_report
from tests.helpers import assemble, small_dataset
from tests.reference_market import records_of

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench("tracing")


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
    hits = np.array([prepare_report(r.title, r.abstract, lexicon, (), RunConfig.tail_fraction) for r in records])
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


def test_the_benchmark_fits_a_generated_dataset_in_memory(monkeypatch):
    """bench/run.py's fit_in_memory builds the stores from a generated
    dataset as it stands, and its panel's ledger balances."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports tracing by name
    # run.py sets the variable on import; the test puts back what it was
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    built, fits = load_bench("run").fit_in_memory(small_dataset())
    assert built.n_pairs > 0 and len(built.rows) > 0
    assert built.n_pairs == len(built.rows) + built.n_dropped
    assert set(fits) == {"range", "ret_ex", "delta_volume"}
