"""Unit tests for lexicon and external sentiment scoring."""

import dataclasses
from datetime import date as Date

import numpy as np
import pytest

from reportsignal.config import RunConfig
from reportsignal.errors import DataError, SchemaError
from reportsignal.labeling import NEGATIVE, NEUTRAL, POSITIVE
from reportsignal.sentiment import (
    SentimentLexicon,
    SentimentScore,
    classify_majority,
    daily_average_sentiment,
    lexicon_score,
    load_external_scores,
    load_lexicon,
    write_scores,
)
from tests.helpers import text_file, weekdays


def small_lexicon():
    return SentimentLexicon(
        [
            ("good", POSITIVE),
            ("excellent", POSITIVE),
            ("stable", NEUTRAL),
            ("bad", NEGATIVE),
        ]
    )


def test_a_score_is_a_small_frozen_value():
    """Scores keep their fields in slots, with no per-instance ``__dict__``,
    and stay frozen, comparable and hashable."""
    score = SentimentScore("r1", 0.5, 0.25, 0.25)
    assert not hasattr(score, "__dict__")
    assert dataclasses.astuple(score) == ("r1", 0.5, 0.25, 0.25)
    assert score == SentimentScore("r1", 0.5, 0.25, 0.25) != SentimentScore("r2", 0.5, 0.25, 0.25)
    assert len({score, SentimentScore("r1", 0.5, 0.25, 0.25)}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        score.pos = 0.25


def test_lexicon_rejects_conflicting_and_empty_entries():
    with pytest.raises(DataError):
        SentimentLexicon([("good", POSITIVE), ("good", NEGATIVE)])
    with pytest.raises(DataError):
        SentimentLexicon([("", POSITIVE)])
    with pytest.raises(DataError):
        SentimentLexicon([("good", "upbeat")])
    # a repeated word under the same class is harmless
    assert len(SentimentLexicon([("good", POSITIVE), ("good", POSITIVE)])) == 1


def test_lexicon_lookups():
    lex = small_lexicon()
    assert lex.words(NEGATIVE) == ["bad"]
    assert lex.words(NEUTRAL) == ["stable"]
    assert lex.words(POSITIVE) == ["excellent", "good"]
    assert lex.hits("good bad stable good noise") == (2, 1, 1)
    assert lex.hits("excellentgoodbad\tstablex") == (2, 1, 1)
    assert lex.hits("") == lex.hits("go od") == (0, 0, 0)


def test_softmax_of_counts_two_one_one():
    score = lexicon_score((2, 1, 1), 1.0, "")
    # softmax(2, 1, 1) = (e/(e+2), 1/(e+2), 1/(e+2))
    assert abs(score.pos - 0.576116884765829) < 1e-12
    assert abs(score.neu - 0.211941557617085) < 1e-12
    assert abs(score.neg - 0.211941557617085) < 1e-12


def test_zero_hits_degenerate_to_the_uniform_score():
    score = lexicon_score((0, 0, 0), RunConfig.temperature, "r9")
    assert score == SentimentScore("r9", 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def test_lower_temperature_sharpens_toward_the_argmax():
    hits = (2, 1, 1)
    base = lexicon_score(hits, 1.0, "")
    sharp = lexicon_score(hits, 0.25, "")
    soft = lexicon_score(hits, 4.0, "")
    assert sharp.pos > base.pos > soft.pos > 1.0 / 3.0


def test_majority_rule_ignores_neutral_words():
    triples = [(2, 0, 1), (1, 0, 2), (1, 0, 1), (0, 3, 0), (0, 0, 0)]
    verdict = dict(zip(triples, classify_majority(np.array(triples)).tolist()))
    assert verdict[(2, 0, 1)] == POSITIVE
    assert verdict[(1, 0, 2)] == NEGATIVE
    assert verdict[(1, 0, 1)] == NEUTRAL
    assert verdict[(0, 3, 0)] == NEUTRAL
    assert verdict[(0, 0, 0)] == NEUTRAL
    assert classify_majority(np.empty((0, 3), dtype=np.int64)).tolist() == []


def test_load_lexicon_round_trip(tmp_path):
    path = tmp_path / "lexicon.csv"
    path.write_text("word,label\ngood,positive\nbad,negative\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.hits("good bad") == (1, 0, 1)


def test_load_lexicon_schema_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_lexicon(empty)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("token,tag\ngood,positive\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_lexicon(bad_header)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("word,label\ngood,positive,extra\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_lexicon(ragged)


def test_external_scores_accept_and_reject_rows(tmp_path):
    text = (
        "report_id,pos,neu,neg\n"
        "r1,0.5,0.3,0.2\n"
        "r2,0.5,0.5\n"
        "r3,abc,0.5,0.2\n"
        "zz,1,0,0\n"
        "r1,0.2,0.3,0.5\n"
        "r4,1.5,-0.5,0\n"
        "r5,0.5,0.3,0.1\n"
    )
    scores, rejects = load_external_scores(
        text_file(tmp_path / "scores.csv", text), known_ids={"r1", "r2", "r3", "r4", "r5"}, max_error_rate=1.0
    )
    assert [s.report_id for s in scores] == ["r1"]
    reasons = [r.reason for r in rejects]
    assert [r.line for r in rejects] == [3, 4, 5, 6, 7, 8]
    assert "expected 4 fields" in reasons[0]
    assert "non-numeric" in reasons[1]
    assert "unknown report_id" in reasons[2]
    assert "duplicate report_id" in reasons[3]
    assert "outside [0, 1]" in reasons[4]
    assert "sum to" in reasons[5]


def test_external_scores_reject_non_finite_components(tmp_path):
    """A nan, inf or -inf in any component is outside [0, 1]: its row is
    rejected with its line number, and a clean row beside them is kept."""
    bad_rows = []
    for at in range(3):
        for bad in ("nan", "inf", "-inf"):
            parts = ["0.5", "0.25", "0.25"]
            parts[at] = bad
            bad_rows.append(parts)
    rows = bad_rows[:4] + [["0.5", "0.25", "0.25"]] + bad_rows[4:]
    text = "report_id,pos,neu,neg\n" + "".join(f"r{i},{','.join(parts)}\n" for i, parts in enumerate(rows))
    scores, rejects = load_external_scores(
        text_file(tmp_path / "scores.csv", text), known_ids={f"r{i}" for i in range(len(rows))}, max_error_rate=1.0
    )
    assert scores == [SentimentScore("r4", 0.5, 0.25, 0.25)]
    assert [(r.line, r.reason) for r in rejects] == [
        (line_no, f"component outside [0, 1]: {parts}")
        for line_no, parts in enumerate(rows, start=2)
        if parts in bad_rows
    ]
    assert len(rejects) == 9


def test_external_scores_are_renormalised_onto_the_simplex(tmp_path):
    text = "report_id,pos,neu,neg\nr1,0.25,0.25,0.25\nr2,-0.2,0.6,0.6\n"
    scores, rejects = load_external_scores(
        text_file(tmp_path / "scores.csv", text),
        known_ids={"r1", "r2"},
        max_error_rate=RunConfig.max_error_rate,
        sum_tolerance=0.5,
    )
    assert not rejects
    assert scores[0].pos == scores[0].neu == scores[0].neg
    # the negative component clips to zero before renormalisation
    assert (scores[1].pos, scores[1].neu, scores[1].neg) == (0.0, 0.5, 0.5)


def test_external_scores_reject_rate_gate(tmp_path):
    text = "report_id,pos,neu,neg\nr1,0.5,0.3,0.2\nzz,1,0,0\n"
    with pytest.raises(DataError):
        load_external_scores(text_file(tmp_path / "scores.csv", text), known_ids={"r1"}, max_error_rate=0.2)


def test_external_scores_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_external_scores(text_file(tmp_path / "scores.csv", ""), set(), RunConfig.max_error_rate)
    with pytest.raises(SchemaError):
        load_external_scores(text_file(tmp_path / "scores.csv", "id,p,n,m\n"), set(), RunConfig.max_error_rate)


def test_write_scores_round_trip(tmp_path):
    path = tmp_path / "scores.csv"
    original = [
        SentimentScore("r1", 0.1 + 0.2, 0.7 - 0.1 - 0.2, 0.3),
        SentimentScore("r2", 1.0, 0.0, 0.0),
    ]
    write_scores(original, path)
    loaded, rejects = load_external_scores(path, {"r1", "r2"}, RunConfig.max_error_rate)
    assert not rejects
    assert loaded == original


def test_daily_average_sentiment_groups_and_sorts():
    d1, d2 = weekdays(Date(2019, 3, 4), 2)
    entries = [
        (d2, SentimentScore("a", 1.0, 0.0, 0.0)),
        (d1, SentimentScore("b", 0.25, 0.5, 0.25)),
        (d2, SentimentScore("c", 0.0, 0.0, 1.0)),
    ]
    series = daily_average_sentiment(entries)
    assert [s.date for s in series] == [d1, d2]
    assert (series[0].mean_pos, series[0].n_rows) == (0.25, 1)
    assert (series[1].mean_pos, series[1].mean_neu, series[1].mean_neg) == (0.5, 0.0, 0.5)
    assert series[1].n_rows == 2
