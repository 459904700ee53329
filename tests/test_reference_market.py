"""The dense market stores, gather kernels and columnar panel against the
row-at-a-time reference in ``tests/reference_market.py``: the same
rejects, drops, error texts and ``repr`` of every panel row, majority
sample and label-pool entry, on clean and mutated input files, with and
without a fence, and with the parsed market read back from its snapshot."""

import random
from datetime import date

import numpy as np
import pytest

from reportsignal import market as market_module
from reportsignal.cli import label_pool
from reportsignal.config import packaged_data_path
from reportsignal.corpus import CorpusIndex
from reportsignal.econometrics import MAJORITY_VARIABLES, build_majority_samples, build_panel
from reportsignal.errors import DataError
from reportsignal.market import load_market, read_snapshot, write_snapshot
from reportsignal.metrics import garman_klass
from reportsignal.sentiment import load_lexicon, prepare_report
from reportsignal.synthkit import SynthSpec, generate, write_dataset
from tests import reference_market as reference
from tests.helpers import small_dataset

FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def edit_rows(path, edit):
    """Rewrite the data rows of a CSV file (header kept) through ``edit``."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n", encoding="utf-8")


def messy_bars(rows):
    # a stock with a gap of three bars, and a stock with no bars at all
    gap = [i for i, row in enumerate(rows) if row.startswith("600003.SH,")][70:73]
    rows = [row for i, row in enumerate(rows) if i not in gap and not row.startswith("600004.SH,")]
    fields = [row.split(",") for row in rows]
    at = random.Random(7).sample(range(len(fields)), 23)
    fields[at[0]][6] = "1_000"
    fields[at[1]] = [f.translate(FULL_WIDTH) for f in fields[at[1]]]
    fields[at[2]][2] = "nan"
    fields[at[3]][3] = "inf"
    fields[at[4]][4] = "-5"
    fields[at[5]][3] = repr(float(fields[at[5]][4]) * 0.5)  # high below low
    fields[at[6]][0] = ""
    fields[at[7]] = [f" {f} " for f in fields[at[7]]]
    fields[at[8]][1] = "2021-01-09"  # a Saturday
    fields[at[9]] = [f'"{f}"' for f in fields[at[9]]]
    fields[at[10]] = fields[at[10]][:6]
    fields[at[11]][1] = "2021-02-30"
    fields[at[12]][5] = "abc"
    fields[at[13]][6] = "1e400"
    fields[at[14]][6] = "-0.0"
    fields[at[15]][4] = repr(float(fields[at[15]][2]) * 1.5)  # low above open
    fields[at[20]][6] = "-3.0"
    fields[at[21]][6] = "nan"
    fields[at[22]][2], fields[at[22]][6] = "0", "-1"  # breaks the price and the volume rule
    out = [",".join(f) for f in fields]
    duplicate = out[at[16]]
    out.insert(at[17], duplicate)
    out.insert(at[18], "")  # blank lines
    out.insert(at[19], "")
    return out


def messy_indices(rows):
    szse = [i for i, row in enumerate(rows) if row.startswith("SZSE,")]
    ind = [i for i, row in enumerate(rows) if row.startswith("IND02,")]
    dropped = {szse[80], ind[75]}
    out = [row for i, row in enumerate(rows) if i not in dropped]
    out.append("SSE,2021-01-09,3300.0")  # dated on a Saturday: kept out of the store
    # the fear gauge may go negative
    return [row.replace(",", ",-").replace(",-", ",", 1) if row.startswith("VIX,2021-03") else row for row in out]


def messy_industry(rows):
    out = [row for row in rows if not row.startswith("600005.SH,")]
    return [row.replace(",IND", ",IND9", 1) if row.startswith("600006.SH,") else row for row in out]


@pytest.fixture(scope="module")
def dataset():
    ds = small_dataset(seed=2)
    lexicon = load_lexicon(packaged_data_path("lexicon.csv"))
    # every seventh report has no hit counts
    skipped = set(list(ds.records.ids)[::7])
    records = reference.records_of(ds.records)
    return ds, {r.report_id: prepare_report(r.title, r.abstract, lexicon) for r in records if r.report_id not in skipped}


def outcome(fn, *args, **kwargs) -> str:
    """``repr`` of what ``fn`` returns, or the DataError it raises."""
    try:
        return repr(fn(*args, **kwargs))
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


def panel_as_rows(*args, **kwargs):
    """``build_panel``'s result in the reference's form, one ``PanelRow``
    per row, whose ``repr`` shows every value to the last bit."""
    panel = build_panel(*args, **kwargs)
    ids = zip(panel.report_ids, panel.stock_ids, panel.outcome_dates)
    rows = [reference.PanelRow(*row_ids, *values) for row_ids, values in zip(ids, panel.rows.tolist())]
    return reference.PanelBuildResult(rows, panel.drops, panel.n_flagged_negative_range, panel.n_pairs)


def majority_lists(*args):
    classes, values, drops = build_majority_samples(*args)
    return classes, values.tolist(), drops


def reference_majority_lists(*args):
    """The reference's samples in ``build_majority_samples``' form."""
    samples, drops = reference.build_majority_samples(*args)
    values = [[sample.variable(name) for name in MAJORITY_VARIABLES] for sample in samples]
    return [sample.majority_class for sample in samples], values, drops


def market_files(paths) -> dict:
    return {
        "bars_path": paths["bars"],
        "indices_path": paths["indices"],
        "industry_path": paths["industry"],
        "calendar_path": paths["calendar"],
    }


def through_snapshot(market, out_dir, files):
    """``market``, written as a snapshot of ``files`` and read back."""
    write_snapshot(market, out_dir, **files)
    copy, source = read_snapshot(out_dir, **files)
    assert source == "snapshot"
    return copy


@pytest.mark.parametrize(
    "block_rows, snapshot",
    [
        pytest.param(market_module.BAR_BLOCK_ROWS, False, id=str(market_module.BAR_BLOCK_ROWS)),
        pytest.param(100_000, False, id="100000"),
        pytest.param(market_module.BAR_BLOCK_ROWS, True, id="snapshot"),
    ],
)
@pytest.mark.parametrize("fenced", [False, True])
@pytest.mark.parametrize("messy", [False, True])
def test_dense_core_matches_the_scalar_reference(tmp_path, monkeypatch, dataset, messy, fenced, block_rows, snapshot):
    ds, hits = dataset
    paths = write_dataset(ds, tmp_path)
    if messy:
        edit_rows(paths["bars"], messy_bars)
        edit_rows(paths["indices"], messy_indices)
        edit_rows(paths["industry"], messy_industry)
    monkeypatch.setattr(market_module, "BAR_BLOCK_ROWS", block_rows)
    files = market_files(paths)
    new, old = load_market(**files), reference.load_market(*files.values())
    if snapshot:
        new.market = through_snapshot(new.market, tmp_path, files)

    assert new.bar_rejects == old.bar_rejects
    assert new.index_rejects == old.index_rejects
    assert (new.n_bars, new.n_index_rows) == (old.n_bars, old.n_index_rows)
    assert new.market.calendar.dates == old.market.calendar.dates
    if messy:
        reasons = [reject.reason.split(":")[0].split(" ")[0] for reject in new.bar_rejects]
        assert sorted(reasons) == sorted(
            ["non-positive"] * 4 + ["high/low"] * 2 + ["unparseable"] * 3 + ["negative"] * 3
            + ["expected", "empty", "2021-01-09", "duplicate"]
        )
        # calendar and duplicate rejects follow every parse/check reject
        assert set(reasons[-2:]) == {"2021-01-09", "duplicate"}

    if fenced:
        first, last = ds.test_range
        fence = old.market.calendar.align(first + (last - first) / 2)
        new.market.set_fence(fence)
        old.market.set_fence(fence)
    scores = {score.report_id: score for score in ds.scores}
    records = reference.records_of(ds.records)
    index, old_index = CorpusIndex(ds.records), reference.CorpusIndex(records)
    compared = []
    # the test range, and every report: the reference takes None for no bound
    for (start, end), old_bounds in ((ds.test_range, ds.test_range), ((date.min, date.max), (None, None))):
        compared.append(
            (
                outcome(panel_as_rows, ds.records, scores, new.market, index, start, end, vix_mode="diff"),
                outcome(reference.build_panel, records, scores, old.market, old_index, *old_bounds, vix_mode="diff"),
            )
        )
        compared.append(
            (
                outcome(majority_lists, ds.records, hits, new.market, start, end),
                outcome(reference_majority_lists, records, hits, old.market, *old_bounds),
            )
        )
    compared.append(
        (
            outcome(label_pool, ds.records, new.market, *ds.train_range),
            outcome(reference.label_pool, records, old.market, *ds.train_range),
        )
    )
    for got, want in compared:
        assert got == want
    if fenced:
        assert "crosses the fence" in compared[0][0]
    if messy and not fenced:
        for reason in ("missing market data", "no industry mapping", "insufficient history"):
            assert reason in compared[2][0]  # the panel over every report
        assert "no tokens" in compared[3][0]


def test_snapshot_gives_the_parsed_market(tmp_path):
    paths = write_dataset(generate(SynthSpec(seed=0)), tmp_path)
    files = market_files(paths)
    parsed = load_market(**files).market
    copy = through_snapshot(parsed, tmp_path, files)

    assert copy.calendar.dates == parsed.calendar.dates
    assert list(copy.bars.rows.items()) == list(parsed.bars.rows.items())
    assert list(copy.indices.rows.items()) == list(parsed.indices.rows.items())
    assert list(copy.industry._map.items()) == list(parsed.industry._map.items())
    bar_grids = ("present", "open", "high", "low", "close", "volume", "volume_sums", "bar_counts")
    arrays = [("bars", name) for name in bar_grids] + [("indices", "present"), ("indices", "levels")]
    for store, name in arrays:
        got, want = getattr(getattr(copy, store), name), getattr(getattr(parsed, store), name)
        # bit for bit, which also tells -0.0 from 0.0
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (store, name)
    for name in ("industry_rows", "mapped"):
        assert np.array_equal(getattr(copy, name), getattr(parsed, name)), name


def test_array_garman_klass_gives_the_scalar_bits():
    """The array estimator, libm logs and squares over numpy's + - * /,
    matches the scalar formula bit for bit on 240k random valid bars: one
    in six flat, and one in six each with the high or the low on the body."""
    rng = np.random.default_rng(11)
    n = 240_000
    o = np.exp(rng.uniform(-4.0, 9.0, n))
    c = o * np.exp(rng.normal(0.0, rng.choice([1e-4, 0.01, 0.1], n)))
    h = np.maximum(o, c) * np.exp(rng.exponential(0.02, n))
    l = np.minimum(o, c) * np.exp(-rng.exponential(0.02, n))
    kind = rng.integers(0, 6, n)
    h[kind == 1] = np.maximum(o, c)[kind == 1]
    l[kind == 2] = np.minimum(o, c)[kind == 2]
    flat = kind == 0
    h[flat] = l[flat] = c[flat] = o[flat]
    want = np.array(list(map(reference.garman_klass, o.tolist(), h.tolist(), l.tolist(), c.tolist())))
    got = garman_klass(o, h, l, c)
    assert np.count_nonzero(got.view(np.int64) != want.view(np.int64)) == 0
    assert (got[flat] == 0.0).all()
