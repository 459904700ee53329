"""Unit tests for lexicon and external sentiment scoring."""

import io
import math
from datetime import date as Date

import pytest

from reportsignal.errors import ArgumentError, DataError, DomainError, SchemaError
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
from tests.helpers import weekdays


def small_lexicon():
    return SentimentLexicon(
        [
            ("good", POSITIVE),
            ("excellent", POSITIVE),
            ("stable", NEUTRAL),
            ("bad", NEGATIVE),
        ]
    )


def test_score_components_must_lie_on_the_simplex():
    SentimentScore("r1", 0.5, 0.25, 0.25)
    with pytest.raises(DomainError):
        SentimentScore("r1", 0.5, 0.4, 0.2)
    with pytest.raises(DomainError):
        SentimentScore("r1", -0.1, 0.6, 0.5)
    with pytest.raises(DomainError):
        SentimentScore("r1", math.nan, 0.5, 0.5)
    for infinite in (math.inf, -math.inf):
        for at in range(3):
            parts = [0.5, 0.25, 0.25]
            parts[at] = infinite
            with pytest.raises(DomainError, match="outside"):
                SentimentScore("r1", *parts)


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
    assert "stable" in lex and "missing" not in lex
    assert lex.words(POSITIVE) == ["excellent", "good"]
    assert lex.counts(["good", "bad", "stable", "good", "noise"]) == (2, 1, 1)
    assert "excellent" in lex.segment_dictionary().words


def test_softmax_of_counts_two_one_one():
    score = lexicon_score(["good", "good", "stable", "bad"], small_lexicon())
    # softmax(2, 1, 1) = (e/(e+2), 1/(e+2), 1/(e+2))
    assert abs(score.pos - 0.576116884765829) < 1e-12
    assert abs(score.neu - 0.211941557617085) < 1e-12
    assert abs(score.neg - 0.211941557617085) < 1e-12


def test_zero_hits_degenerate_to_the_uniform_score():
    score = lexicon_score(["nothing", "matches"], small_lexicon(), report_id="r9")
    assert score == SentimentScore("r9", 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def test_lower_temperature_sharpens_toward_the_argmax():
    tokens = ["good", "good", "stable", "bad"]
    base = lexicon_score(tokens, small_lexicon(), temperature=1.0)
    sharp = lexicon_score(tokens, small_lexicon(), temperature=0.25)
    soft = lexicon_score(tokens, small_lexicon(), temperature=4.0)
    assert sharp.pos > base.pos > soft.pos > 1.0 / 3.0


def test_bad_temperatures_are_errors():
    for temperature in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ArgumentError):
            lexicon_score(["good"], small_lexicon(), temperature=temperature)


def test_majority_rule_ignores_neutral_words():
    lex = small_lexicon()
    assert classify_majority(["good", "bad", "good"], lex) == POSITIVE
    assert classify_majority(["bad", "bad", "good"], lex) == NEGATIVE
    assert classify_majority(["good", "bad"], lex) == NEUTRAL
    assert classify_majority(["stable", "stable", "stable"], lex) == NEUTRAL
    assert classify_majority([], lex) == NEUTRAL


def test_load_lexicon_round_trip(tmp_path):
    path = tmp_path / "lexicon.csv"
    path.write_text("word,label\ngood,positive\nbad,negative\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.counts(["good", "bad"]) == (1, 0, 1)


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


def test_external_scores_accept_and_reject_rows():
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
        io.StringIO(text), known_ids={"r1", "r2", "r3", "r4", "r5"}, max_error_rate=1.0
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


def test_external_scores_are_renormalised_onto_the_simplex():
    text = "report_id,pos,neu,neg\nr1,0.25,0.25,0.25\nr2,-0.2,0.6,0.6\n"
    scores, rejects = load_external_scores(
        io.StringIO(text), known_ids={"r1", "r2"}, sum_tolerance=0.5
    )
    assert not rejects
    assert scores[0].pos == scores[0].neu == scores[0].neg
    # the negative component clips to zero before renormalisation
    assert (scores[1].pos, scores[1].neu, scores[1].neg) == (0.0, 0.5, 0.5)


def test_external_scores_reject_rate_gate():
    text = "report_id,pos,neu,neg\nr1,0.5,0.3,0.2\nzz,1,0,0\n"
    with pytest.raises(DataError):
        load_external_scores(io.StringIO(text), known_ids={"r1"}, max_error_rate=0.2)


def test_external_scores_schema_errors():
    with pytest.raises(SchemaError):
        load_external_scores(io.StringIO(""), known_ids=set())
    with pytest.raises(SchemaError):
        load_external_scores(io.StringIO("id,p,n,m\n"), known_ids=set())


def test_write_scores_round_trip(tmp_path):
    path = tmp_path / "scores.csv"
    original = [
        SentimentScore("r1", 0.1 + 0.2, 0.7 - 0.1 - 0.2, 0.3),
        SentimentScore("r2", 1.0, 0.0, 0.0),
    ]
    write_scores(original, path)
    loaded, rejects = load_external_scores(path, known_ids={"r1", "r2"})
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
