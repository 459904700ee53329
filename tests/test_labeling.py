"""Unit tests for rank-based labeling."""

import random

import pytest

from reportsignal.errors import SchemaError
from reportsignal.labeling import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    assign_labels,
    write_labels,
)
from tests.helpers import read_labels


def pool_of(returns):
    return [(f"r{i:03d}", "600000.SH", ret) for i, ret in enumerate(returns)]


def label_counts(labeled):
    counts = {POSITIVE: 0, NEUTRAL: 0, NEGATIVE: 0}
    for item in labeled:
        counts[item.label] += 1
    return counts


def test_slice_sizes_use_exact_floor():
    """floor(0.3 n) must come out of rational arithmetic: the binary
    float 0.3 * 10 is 2.999..., which would floor to 2."""
    for n, want in ((1, 0), (3, 0), (10, 3), (500, 150)):
        labeled = assign_labels(pool_of(range(n)))
        counts = label_counts(labeled)
        assert counts[POSITIVE] == want
        assert counts[NEGATIVE] == want
        assert counts[NEUTRAL] == n - 2 * want


def test_extreme_returns_get_the_directional_labels():
    labeled = assign_labels(pool_of([5.0, 1.0, 0.0, -1.0, -0.5, 2.0, -3.0, 0.5, 0.2, -0.1]))
    by_id = {item.report_id: item.label for item in labeled}
    assert by_id["r000"] == POSITIVE  # +5.0
    assert by_id["r005"] == POSITIVE  # +2.0
    assert by_id["r006"] == NEGATIVE  # -3.0
    assert by_id["r003"] == NEGATIVE  # -1.0
    assert by_id["r002"] == NEUTRAL   # 0.0


def test_output_is_in_rank_order():
    labeled = assign_labels(pool_of([0.3, -0.2, 0.9, 0.0]))
    returns = [item.window_return for item in labeled]
    assert returns == sorted(returns, reverse=True)


def test_ties_break_by_report_id_then_stock():
    """In a pool of ten, four pairs tie for the three positive places and
    six for the three negative ones: report_id, then stock_id, decides."""
    tied = [("r3", "000001.SZ", 1.0), ("r2", "600000.SH", 1.0), ("r1", "600000.SH", 1.0), ("r1", "000001.SZ", 1.0)]
    labeled = assign_labels(tied + pool_of([0.0] * 6))
    assert [(item.report_id, item.stock_id, item.label) for item in labeled[:4]] == [
        ("r1", "000001.SZ", POSITIVE),
        ("r1", "600000.SH", POSITIVE),
        ("r2", "600000.SH", POSITIVE),
        ("r3", "000001.SZ", NEUTRAL),
    ]
    assert [(item.report_id, item.label) for item in labeled[4:]] == [
        ("r000", NEUTRAL),
        ("r001", NEUTRAL),
        ("r002", NEUTRAL),
        ("r003", NEGATIVE),
        ("r004", NEGATIVE),
        ("r005", NEGATIVE),
    ]


def test_labels_invariant_under_positive_rescaling():
    rng = random.Random(11)
    returns = [rng.uniform(-2, 2) for _ in range(37)]
    base = assign_labels(pool_of(returns))
    scaled = assign_labels(pool_of([r * 3.7 for r in returns]))
    assert [(i.report_id, i.label) for i in base] == [
        (i.report_id, i.label) for i in scaled
    ]


def test_labels_invariant_under_input_permutation():
    rng = random.Random(12)
    pool = pool_of([rng.uniform(-2, 2) for _ in range(37)])
    shuffled = pool[:]
    rng.shuffle(shuffled)
    assert assign_labels(pool) == assign_labels(shuffled)


def test_labels_round_trip_exactly(tmp_path):
    labeled = assign_labels(pool_of([0.1 + 0.2, -1e-17, 5.0, -5.0]))
    path = tmp_path / "labels.csv"
    write_labels(labeled, path)
    assert read_labels(path) == labeled


def test_read_labels_rejects_unknown_label(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "report_id,stock_id,window_return,label\nr1,600000.SH,0.5,sideways\n"
    )
    with pytest.raises(SchemaError):
        read_labels(path)
