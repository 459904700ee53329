"""Unit tests for the synthetic dataset generator."""

import dataclasses
import json

import numpy as np
import pytest

from reportsignal.econometrics import (
    REGRESSOR_NAMES,
    build_panel,
    run_pooled_regressions,
)
from reportsignal.errors import ConfigurationError
from reportsignal.market import BarStore, IndexStore, TradingCalendar, load_market
from reportsignal.metrics import garman_klass_range
from reportsignal.synthkit import BETA_KEYS, SynthSpec, generate, write_dataset
from tests.helpers import assemble, bar_grid, estimate, index_grid, small_dataset, small_spec
from tests.reference_market import records_of
from tests.reference_synth import generate_scalar


def run_recovery(ds):
    """Panel + pooled regressions over the full report range."""
    market, corpus_index, scores = assemble(ds)
    result = build_panel(ds.records, scores, market, corpus_index, ds.train_range[0], ds.test_range[1])
    assert not result.drops, f"synthetic data should never drop rows: {result.drops}"
    return run_pooled_regressions(result.rows)


def load_written(ds, directory):
    """``load_market`` over the market files of ``ds`` written to ``directory``."""
    paths = write_dataset(ds, directory)
    return load_market(paths["bars"], paths["indices"], paths["industry"], paths["calendar"])


def test_generation_is_deterministic(tmp_path):
    a = generate(small_spec(seed=5))
    b = generate(small_spec(seed=5))
    assert records_of(a.records) == records_of(b.records)
    assert a.scores == b.scores
    assert a.truth == b.truth
    for field in dataclasses.fields(a.bars):
        assert np.array_equal(getattr(a.bars, field.name), getattr(b.bars, field.name)), field.name
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_dataset(a, dir_a, seed=5)
    write_dataset(b, dir_b, seed=5)
    for name in ("corpus.csv", "bars.csv", "indices.csv", "industry.csv",
                 "calendar.txt", "scores.csv", "truth.json", "config.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_different_seeds_differ():
    one, two = generate(small_spec(seed=1)), generate(small_spec(seed=2))
    assert not np.array_equal(one.bars.close, two.bars.close)


def test_every_bar_is_valid_with_nonnegative_range(tmp_path):
    ds = small_dataset(seed=3)
    loaded = load_written(ds, tmp_path)
    assert loaded.bar_rejects == [] and loaded.n_bars == len(ds.bars)
    rows, days = np.nonzero(loaded.market.bars.present)
    assert (garman_klass_range(loaded.market, rows, days).values >= 0.0).all()


def test_scores_pair_with_records():
    ds = small_dataset(seed=4)
    assert [s.report_id for s in ds.scores] == list(ds.records.ids)
    for record in records_of(ds.records):
        assert record.release_date.weekday() < 5
        assert ds.test_range[0] <= record.release_date <= ds.test_range[1] or (
            ds.train_range[0] <= record.release_date <= ds.train_range[1]
        )


def test_no_stock_is_cited_on_consecutive_days():
    ds = small_dataset(seed=6)
    by_day: dict = {}
    for record in records_of(ds.records):
        by_day.setdefault(record.release_date, []).append(record.stock_codes)
    days = sorted(by_day)
    previous: set = set()
    for day in days:
        cited = [sid for codes in by_day[day] for sid in codes]
        assert len(cited) == len(set(cited)), f"stock cited twice on {day}"
        assert not (set(cited) & previous), f"consecutive-day citation around {day}"
        previous = set(cited)


def test_report_ranges_partition_the_report_days():
    spec = small_spec()
    ds = generate(spec)
    cal = ds.calendar_dates
    assert ds.train_range == (cal[spec.warmup_days], cal[spec.warmup_days + spec.train_days - 1])
    assert ds.test_range == (cal[spec.warmup_days + spec.train_days], cal[spec.warmup_days + spec.n_days - 1])
    assert ds.train_range[1] < ds.test_range[0]
    report_days = {r.release_date for r in records_of(ds.records)}
    assert min(report_days) == ds.train_range[0]
    assert max(report_days) == ds.test_range[1]


def test_truth_payload_reflects_the_spec():
    spec = small_spec(seed=7)
    ds = generate(spec)
    truth = ds.truth
    assert truth["format_version"] == 1
    assert truth["seed"] == 7
    assert truth["n_reports"] == len(ds.records)
    assert truth["n_planted_outcomes"] == len(ds.records.cited)
    assert truth["n_multi_stock_reports"] == sum(
        1 for r in records_of(ds.records) if len(r.stock_codes) == 2
    )
    assert truth["betas"] == spec.betas
    assert truth["noise"] == spec.noise
    assert truth["n_range_targets_clamped"] >= 0
    assert truth["vix_mode"] == "diff"


def test_multi_stock_rate_extremes():
    every = small_dataset(seed=8, multi_stock_rate=1.0)
    assert all(len(r.stock_codes) == 2 for r in records_of(every.records))
    assert every.truth["n_multi_stock_reports"] == len(every.records)
    none = small_dataset(seed=8, multi_stock_rate=0.0)
    assert all(len(r.stock_codes) == 1 for r in records_of(none.records))


def test_zero_noise_recovers_planted_coefficients_numerically():
    """With the noise switched off the pipeline's regressions must return
    the planted coefficient vectors up to linear-algebra round-off."""
    noise = {"range": 0.0, "ret_ex": 0.0, "delta_volume": 0.0}
    ds = small_dataset(seed=9, noise=noise)
    assert ds.truth["n_range_targets_clamped"] == 0
    fits = run_recovery(ds)
    for outcome, fit in fits.items():
        planted = [ds.truth["betas"][outcome][k] for k in BETA_KEYS]
        for name, got, want in zip(REGRESSOR_NAMES, fit.coef, planted):
            assert abs(got - want) < 1e-7, (outcome, name, got, want)


def test_heavier_noise_weakens_the_recovered_t_statistics():
    t_by_scale = {}
    for scale in (0.25, 1.0, 4.0):
        noise = {"range": 0.035 * scale, "ret_ex": 0.113 * scale,
                 "delta_volume": 0.158 * scale}
        fits = run_recovery(small_dataset(seed=10, noise=noise))
        _, _, t_stat, _ = estimate(fits["ret_ex"], "pos[t-1]")
        t_by_scale[scale] = abs(t_stat)
    assert t_by_scale[0.25] > t_by_scale[1.0] > t_by_scale[4.0]


def test_extreme_range_noise_trips_the_clamp_but_keeps_bars_valid(tmp_path):
    noise = {"range": 5.0, "ret_ex": 0.113, "delta_volume": 0.158}
    ds = small_dataset(seed=11, noise=noise)
    assert ds.truth["n_range_targets_clamped"] > 0
    loaded = load_written(ds, tmp_path)
    assert loaded.bar_rejects == [] and loaded.n_bars == len(ds.bars)


def test_spec_validation_rejects_bad_sizings():
    cases = [
        dict(n_days=0),
        dict(reports_per_day=0),
        dict(warmup_days=65),
        dict(train_days=30),          # must stay below n_days=30
        dict(reports_per_day=7),      # needs n_stocks >= 4 * 7
        dict(multi_stock_rate=1.5),
    ]
    for overrides in cases:
        with pytest.raises(ConfigurationError):
            generate(small_spec(**overrides))
    with pytest.raises(ConfigurationError):
        generate(small_spec(noise={"range": -0.1, "ret_ex": 0.1, "delta_volume": 0.1}))
    with pytest.raises(ConfigurationError):
        generate(small_spec(betas={"range": {}}))


def test_written_dataset_is_a_complete_run_directory(tmp_path):
    ds = small_dataset(seed=12)
    paths = write_dataset(ds, tmp_path / "data", seed=12)
    for path in paths.values():
        assert path.exists(), path
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    assert config["format_version"] == 1
    assert config["scorer"] == "external"
    assert config["test_start"] == ds.test_range[0].isoformat()
    truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
    assert truth == ds.truth
    header, *rows = paths["bars"].read_text(encoding="utf-8").splitlines()
    assert header == "stock_id,date,open,high,low,close,volume"
    assert len(ds.bars) == len(rows)


def test_a_bar_grid_with_holes_writes_and_loads_back(tmp_path):
    """bars.csv holds a bar grid's present cells only, stock by stock in
    day order; load_market gives back the same grids bit for bit, less the
    row of a stock left with no bars. A store refuses a grid whose shape
    does not fit its ids and calendar."""
    ds = small_dataset(seed=4)
    bars, levels = ds.bars, ds.index_rows
    gone, holed, hole = 5, 2, 40
    prices = (bars.open, bars.high, bars.low, bars.close, bars.volume)
    for grid in (bars.present, *prices):
        grid[gone] = 0
        grid[holed, hole] = 0
    paths = write_dataset(ds, tmp_path)

    dates = [d.isoformat() for d in ds.calendar_dates]
    want = [
        ",".join([stock_id, dates[day], *(repr(float(grid[row, day])) for grid in prices)])
        for row, stock_id in enumerate(bars.ids)
        for day in np.flatnonzero(bars.present[row]).tolist()
    ]
    assert len(want) == len(bars) == bars.present[:-1].size - len(dates) - 1
    assert paths["bars"].read_text(encoding="utf-8").splitlines()[1:] == want

    loaded = load_market(paths["bars"], paths["indices"], paths["industry"], paths["calendar"])
    assert loaded.n_bars == len(ds.bars)
    kept = [row for row in range(len(bars.ids) + 1) if row != gone]
    got = loaded.market.bars
    assert list(got.rows) == [bars.ids[row] for row in kept[:-1]]
    for name in ("present", "open", "high", "low", "close", "volume"):
        a, b = getattr(got, name), getattr(bars, name)[kept]
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    got = loaded.market.indices
    assert list(got.rows) == levels.ids
    for name in ("present", "levels"):
        a, b = getattr(got, name), getattr(levels, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    calendar = TradingCalendar(ds.calendar_dates)
    with pytest.raises(ValueError, match="market grids must be"):
        BarStore(dataclasses.replace(bars, ids=bars.ids[:-1]), calendar)
    with pytest.raises(ValueError, match="index grids must be"):
        IndexStore(dataclasses.replace(levels, levels=levels.levels[:, 1:]), calendar)


def test_generator_matches_scalar_reference(tmp_path):
    """The array generator writes the scalar loop's files byte for byte."""
    specs = [small_spec(seed=seed) for seed in range(5)]
    specs += [small_spec(seed=8, multi_stock_rate=rate) for rate in (0.0, 1.0)]
    specs.append(small_spec(seed=9, noise={"range": 0.0, "ret_ex": 0.0, "delta_volume": 0.0}))
    specs.append(small_spec(seed=11, noise={"range": 5.0, "ret_ex": 0.113, "delta_volume": 0.158}))
    specs.append(SynthSpec(seed=0))
    for k, spec in enumerate(specs):
        scalar = generate_scalar(spec)
        calendar = TradingCalendar(scalar.calendar_dates)
        scalar = dataclasses.replace(
            scalar, bars=bar_grid(scalar.bars, calendar), index_rows=index_grid(scalar.index_rows, calendar)
        )
        want = write_dataset(scalar, tmp_path / f"scalar{k}", seed=spec.seed)
        got = write_dataset(generate(spec), tmp_path / f"array{k}", seed=spec.seed)
        for name, path in want.items():
            assert got[name].read_bytes() == path.read_bytes(), (k, name)
