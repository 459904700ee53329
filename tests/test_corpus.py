"""Unit tests for corpus parsing, cleaning and output files, and for lexicon hit counting."""

import gc
import random
import tracemalloc
from datetime import date as Date

import numpy as np
import pytest

from reportsignal.config import packaged_data_path
from reportsignal.corpus import (
    CORPUS_HEADER,
    CorpusIndex,
    TextColumn,
    clean_text,
    load_risk_warning_patterns,
    open_output,
    parse_corpus,
    serialize_corpus,
    write_csv_rows,
    write_text,
)
from reportsignal.errors import ArgumentError, ConfigurationError, DataError, SchemaError
from reportsignal.labeling import NEGATIVE, NEUTRAL, POSITIVE
from reportsignal.sentiment import SentimentLexicon, load_lexicon, prepare_report
from reportsignal.synthkit import SynthSpec, generate
from tests import reference_text
from tests.helpers import small_dataset, text_file
from tests.reference_market import ReportRecord, columns_of, records_of
from tests.reference_text import SegmentDictionary, segment

BODY = "公司业绩稳健增长" * 10
# texts with control and format characters, full-width spaces and line breaks
MESSY_TEXTS = [
    f"{BODY}\u3000风险提示：宏观经济下行",
    f"{BODY}\u200d风险\u200d提示 x",
    f"soft\u00adhyphen {BODY} 风险提示 tail",
    f"nul\x00byte\tand\ttabs\nand\r\nlines {BODY}",
    f"\u3000\u3000{BODY}\u3000 免责声明 y 风险提示 z\u3000",
    "\u200d\x00\t\n\u3000",
    "",
]


def test_parse_happy_path(tmp_path):
    text = (
        "report_id,title,abstract,stock_codes,release_date\n"
        "r1,Title one,Body one,600000.SH,2019-03-04\n"
        "r2,Title two,Body two,600000.SH;000001.SZ,2019-03-05\n"
    )
    result = parse_corpus(text_file(tmp_path / "corpus.csv", text))
    assert not result.rejects
    assert result.error_rate == 0.0
    records = records_of(result.records)
    assert records[0] == ReportRecord(
        "r1", "Title one", "Body one", ("600000.SH",), Date(2019, 3, 4)
    )
    assert records[1].stock_codes == ("600000.SH", "000001.SZ")


def test_parse_rejects_bad_rows_individually(tmp_path):
    text = (
        "report_id,title,abstract,stock_codes,release_date\n"
        "r1,t,a,600000.SH\n"
        ",t,a,600000.SH,2019-03-04\n"
        "r3,t,a,,2019-03-04\n"
        "r4,t,a,600000.sh,2019-03-04\n"
        "r5,t,a,600000.SH,2019-13-04\n"
        "r6,t,a,600085.SH;000001.SZ;600085.SH,2019-13-04\n"
        "r8,t,a,600085.SH;600085.SH;600085.sh,2019-03-04\n"
        "r9,t,a,600000.SH,20190304\n"
        "r10,t,a,600000.SH,2019-W10-1\n"
        "r7,t,a,600000.SH;000001.SZ,2019-03-04\n"
    )
    result = parse_corpus(text_file(tmp_path / "corpus.csv", text), max_error_rate=1.0)
    assert list(result.records.ids) == ["r7"]
    assert [r.line for r in result.rejects] == [2, 3, 4, 5, 6, 7, 8, 9, 10]
    reasons = [r.reason for r in result.rejects]
    assert "expected 5 fields" in reasons[0]
    assert "empty report_id" in reasons[1]
    assert "no stock codes" in reasons[2]
    assert "malformed stock code" in reasons[3]
    assert "unparseable release_date" in reasons[4]
    # a code cited twice, checked after the codes' form and before the date
    assert reasons[5] == "duplicate stock code '600085.SH'"
    assert reasons[6] == "malformed stock code '600085.sh'"
    # only YYYY-MM-DD, whatever else date.fromisoformat takes
    assert reasons[7:] == ["unparseable release_date '20190304'", "unparseable release_date '2019-W10-1'"]


def test_parse_fatal_conditions(tmp_path):
    with pytest.raises(SchemaError):
        parse_corpus(text_file(tmp_path / "corpus.csv", ""))
    with pytest.raises(SchemaError):
        parse_corpus(text_file(tmp_path / "corpus.csv", "id,title,abstract,codes,date\n"))
    duplicated = (
        "report_id,title,abstract,stock_codes,release_date\n"
        "r1,t,a,600000.SH,2019-03-04\n"
        "r1,t,a,600000.SH,2019-03-05\n"
    )
    with pytest.raises(DataError):
        parse_corpus(text_file(tmp_path / "corpus.csv", duplicated))
    noisy = (
        "report_id,title,abstract,stock_codes,release_date\n"
        "r1,t,a,600000.SH,2019-03-04\n"
        "r2,t,a,bad-code,2019-03-04\n"
    )
    with pytest.raises(DataError):
        parse_corpus(text_file(tmp_path / "corpus.csv", noisy), max_error_rate=0.25)

    # The reader is strict: text after a closing quote is malformed, not
    # glued onto the quoted field.
    stray = (
        "report_id,title,abstract,stock_codes,release_date\n"
        'r1,"abc"def,a,600000.SH,2019-03-04\n'
    )
    with pytest.raises(DataError, match="malformed CSV"):
        parse_corpus(text_file(tmp_path / "corpus.csv", stray))


def test_serialize_round_trips_commas_and_cjk(tmp_path):
    records = [
        ReportRecord(
            "r1",
            'Growth, with "quotes"',
            "盈利预测：增持, 评级上调",
            ("600519.SH", "000001.SZ"),
            Date(2019, 7, 1),
        )
    ]
    path = tmp_path / "corpus.csv"
    serialize_corpus(columns_of(records), path)
    assert records_of(parse_corpus(path).records) == records


def test_parse_then_serialize_gives_back_the_file(tmp_path):
    """Parsing a corpus and serializing the parse gives back its bytes,
    whatever the texts hold: quotes and commas, control characters, line
    breaks, CJK and astral characters, empty fields."""
    texts = MESSY_TEXTS + ['Growth, with "quotes"', "盈利预测：增持, 评级上调", "astral \U00020000\U0001f600", ""]
    rows = [
        (f"r{i}", title, abstract, "600519.SH;000001.SZ" if i % 3 else "600000.SH", f"2019-07-{1 + i:02d}")
        for i, (title, abstract) in enumerate(zip(texts, reversed(texts)))
    ]
    write_csv_rows(tmp_path / "corpus.csv", CORPUS_HEADER, rows)
    reports = parse_corpus(tmp_path / "corpus.csv").records
    assert (list(reports.ids), list(reports.titles), list(reports.abstracts)) == tuple(map(list, list(zip(*rows))[:3]))
    serialize_corpus(reports, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "corpus.csv").read_bytes()


def test_each_line_with_a_bad_codes_or_date_text_is_rejected(tmp_path):
    """A bad stock_codes or release_date text is checked once per parse, and
    every line that holds it gets its own reject, in line order."""
    text = (
        "report_id,title,abstract,stock_codes,release_date\n"
        "r1,t,a,600000.sh,2019-03-04\n"
        "r2,t,a,600000.SH,2019-02-30\n"
        "r3,t,a,600000.sh,2019-03-04\n"
        "r4,t,a,600000.SH,2019-03-04\n"
        "r5,t,a,600000.SH,2019-02-30\n"
        "r6,t,a,600000.sh,2019-02-30\n"
        "r7,t,a,600000.SH, 2019-03-04\n"
        "r8,t,a,600000.SH,2019-03-04\n"
    )
    result = parse_corpus(text_file(tmp_path / "corpus.csv", text), max_error_rate=1.0)
    assert list(result.records.ids) == ["r4", "r7", "r8"]
    assert result.records.days.tolist() == [Date(2019, 3, 4).toordinal()] * 3
    bad_code, bad_date = "malformed stock code '600000.sh'", "unparseable release_date '2019-02-30'"
    assert [(r.line, r.reason) for r in result.rejects] == [
        (2, bad_code), (3, bad_date), (4, bad_code), (6, bad_date), (7, bad_code)
    ]


def test_text_column_reads_like_a_list():
    """``len``, indexing (bad indices included), iteration and ``take`` give
    what a list of the same texts gives, CJK and astral characters too."""
    texts = ["r1", "", "盈利预测：增持", "astral \U00020000\U0001f600 end", "", "ascii"]
    column = TextColumn.pack(texts)
    assert column.offsets.dtype == np.int64
    assert len(column) == len(texts)
    assert list(column) == texts
    every = range(-len(texts), len(texts))
    assert [column[i] for i in every] == [texts[i] for i in every]
    assert column[np.int64(2)] == texts[2]
    for bad in (len(texts), -len(texts) - 1):
        with pytest.raises(IndexError):
            column[bad]
    for bad in ("1", 1.0, None, slice(1, 3)):
        with pytest.raises(TypeError):
            column[bad]
    # unsorted, repeated, empty and negative positions
    for positions in ([4, 2, 0, 3], [3, 3, 1, 3], [], [-1, -6], np.array([5, 0]), range(2, 5)):
        assert list(column.take(positions)) == [texts[i] for i in positions]
    with pytest.raises(IndexError):
        column.take([len(texts)])


def test_empty_text_columns():
    for texts in ([], [""], ["", "", ""]):
        column = TextColumn.pack(texts)
        assert (len(column), list(column), column.text) == (len(texts), texts, "")
        assert column.offsets.tolist() == [0] * (len(texts) + 1)
        assert list(column.take([])) == []
        with pytest.raises(IndexError):
            column[len(texts)]


def test_the_parsed_corpus_keeps_its_texts_packed(tmp_path):
    """After ``parse_corpus`` the seed-0 1x corpus keeps under 240 traced
    bytes per report: a ``str`` per id, title and abstract kept 331, the
    packed columns keep about 142."""
    path = tmp_path / "corpus.csv"
    serialize_corpus(generate(SynthSpec(seed=0)).records, path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = parse_corpus(path).records
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == 10_000
    assert kept / len(reports) < 240


def test_clean_text_normalises_whitespace_and_control_chars():
    raw = "  First\tline\r\nsecond​line\x00end  "
    # ​ is a format character (Cf) and \x00 a control (Cc): both
    # become spaces, then whitespace runs collapse.
    assert clean_text(raw) == "First line second line end"


def test_clean_text_cuts_boilerplate_tails():
    body = "A" * 80
    text = f"{body} 风险提示 macro risks remain"
    assert clean_text(text, ("风险提示",)) == body
    # a marker in the body (outside the trailing fraction) is kept
    early = f"风险提示 {body}"
    assert clean_text(early, ("风险提示",)) == early
    # the earliest in-window marker wins even when listed last
    double = f"{body} 免责声明 x 风险提示 y"
    assert clean_text(double, ("风险提示", "免责声明")) == body


def test_clean_text_cuts_repeatedly_until_no_marker_remains():
    text = "B" * 40 + " 风险提示 " + "C" * 40 + " 风险提示 tail"
    cleaned = clean_text(text, ("风险提示",), tail_fraction=0.6)
    assert "风险提示" not in cleaned


def test_clean_text_is_idempotent():
    raw = "Text​with  noise 风险提示 trailing risk boilerplate"
    once = clean_text(raw, ("风险提示",))
    assert clean_text(once, ("风险提示",)) == once


def test_clean_text_matches_the_scalar_reference():
    patterns = load_risk_warning_patterns(packaged_data_path("risk_warnings.txt"))
    reports = generate(SynthSpec(seed=0)).records
    texts = [f"{title} {abstract}" for title, abstract in zip(reports.titles, reports.abstracts)]
    texts += MESSY_TEXTS
    for tail_fraction in (0.25, 0.6):
        for text in texts:
            want = reference_text.clean_text(text, patterns, tail_fraction)
            assert clean_text(text, patterns, tail_fraction) == want


def test_clean_text_tail_fraction_bounds():
    # tail_fraction 0 scans no tail at all, so nothing is ever cut
    assert clean_text("abc 风险提示", ("风险提示",), tail_fraction=0.0) == "abc 风险提示"
    # tail_fraction 1 scans the whole text, so even a leading marker cuts
    assert clean_text("风险提示 abc", ("风险提示",), tail_fraction=1.0) == ""


def test_segment_prefers_longest_match():
    words = SegmentDictionary(["增长", "快速增长", "业绩"])
    assert segment("业绩快速增长", words) == ["业绩", "快速增长"]


def test_segment_falls_back_to_single_characters():
    words = SegmentDictionary(["增长"])
    assert segment("X增长Y", words) == ["X", "增长", "Y"]


def test_segment_skips_whitespace():
    words = SegmentDictionary(["ab", "cd"])
    assert segment("ab  cd\nab", words) == ["ab", "cd", "ab"]


def test_segment_dictionary_rejects_degenerate_input():
    with pytest.raises(ArgumentError):
        SegmentDictionary([])
    with pytest.raises(ArgumentError):
        SegmentDictionary([""])


def test_packaged_lexicon_words_round_trip_through_segmentation():
    """Every ordered pair of packaged lexicon words must re-segment into
    exactly those two words when concatenated; greedy matching may not
    merge across the seam or split either word."""
    lexicon = load_lexicon(packaged_data_path("lexicon.csv"))
    dictionary = SegmentDictionary(w for label in (POSITIVE, NEUTRAL, NEGATIVE) for w in lexicon.words(label))
    words = sorted(dictionary.words)
    assert len(words) == 23
    checked = 0
    for first in words:
        for second in words:
            if first == second:
                continue
            if segment(first + second, dictionary) == [first, second]:
                checked += 1
    # every pair either round-trips or legitimately re-merges; with this
    # lexicon no pair re-merges, so all 23*22 ordered pairs round-trip
    assert checked == len(words) * (len(words) - 1)


def test_prepare_report_joins_title_and_abstract():
    title, abstract = "业绩突破", "公司有望 保持领先地位 风险提示 注意"
    # "注意" follows the risk-warning marker, so the cut text never holds it
    lexicon = SentimentLexicon(
        [("突破", POSITIVE), ("有望", POSITIVE), ("领先地位", POSITIVE), ("业绩", NEUTRAL), ("注意", NEGATIVE)]
    )
    # the cleaned text "业绩突破 公司有望 保持领先地位" segments as
    # 业绩 突破 公 司 有望 保 持 领先地位
    assert prepare_report(title, abstract, lexicon, ("风险提示",), tail_fraction=0.5) == (3, 1, 0)
    assert prepare_report(title, abstract, lexicon) == (3, 1, 1)


def test_lexicon_hits_match_the_reference_segmenter():
    """``SentimentLexicon.hits`` counts exactly the lexicon tokens of the
    reference greedy segmenter, on the packaged lexicon over generated
    report texts and on random lexicons over texts built to stress it."""
    lexicon = load_lexicon(packaged_data_path("lexicon.csv"))
    patterns = load_risk_warning_patterns(packaged_data_path("risk_warnings.txt"))
    reports = small_dataset().records
    texts = [clean_text(f"{title} {abstract}", patterns) for title, abstract in zip(reports.titles, reports.abstracts)]
    assert any(lexicon.hits(text) != (0, 0, 0) for text in texts)
    for text in texts:
        assert lexicon.hits(text) == reference_text.token_hits(text, lexicon)

    rng = random.Random(7)
    alphabet = "abcd增长业 "
    classes = (POSITIVE, NEUTRAL, NEGATIVE)
    for _ in range(200):
        words = {"".join(rng.choices(alphabet, k=rng.randint(1, 4))).strip() for _ in range(rng.randint(1, 30))}
        # a single character, an inner space, and a leading space (which
        # never matches, since matching skips whitespace)
        words = (words - {""}) | {rng.choice("abcd"), "a b", " " + rng.choice("abcd")}
        lexicon = SentimentLexicon([(word, rng.choice(classes)) for word in words])
        long_words = sorted(word for word in words if len(word) > 1)
        for _ in range(20):
            pieces = rng.choices(sorted(words) + list(alphabet) + ["  ", "\t", " \t\n "], k=rng.randint(0, 12))
            text = "".join(pieces)
            word = rng.choice(long_words)
            # the text, and the text running one character into a word and
            # one character short of its end
            for probe in (text, text + word[:1], text + word[:-1]):
                assert lexicon.hits(probe) == reference_text.token_hits(probe, lexicon)


def test_load_risk_warning_patterns_skips_comments(tmp_path):
    path = tmp_path / "warnings.txt"
    path.write_text("# comment\n风险提示\n\n免责声明\n", encoding="utf-8")
    assert load_risk_warning_patterns(path) == ("风险提示", "免责声明")
    packaged = load_risk_warning_patterns(packaged_data_path("risk_warnings.txt"))
    assert "风险提示" in packaged


def test_corpus_index_counts_inclusive_windows():
    """The reports citing a stock within [lo, hi] are one contiguous run of
    sorted keys, found by two binary searches on the keys of (stock, lo)
    and (stock, hi)."""
    records = [
        ReportRecord(f"r{i}", "t", "a", codes, day)
        for i, (codes, day) in enumerate(
            [
                (("600000.SH",), Date(2019, 3, 4)),
                (("600000.SH", "000001.SZ"), Date(2019, 3, 6)),
                (("600000.SH",), Date(2019, 3, 10)),
            ]
        )
    ]
    reports = columns_of(records)
    index = CorpusIndex(reports)
    assert len(index.keys) == 4  # one key per (cited stock, report) pair
    assert np.bincount(index.keys >> 32).tolist() == [3, 1]  # by stock position
    assert np.all(np.diff(index.keys) >= 0)

    def count_between(sid, lo, hi):
        stock = reports.stocks.index(sid)
        lo_key, hi_key = index.keys_of([stock, stock], [lo.toordinal(), hi.toordinal()])
        n = np.searchsorted(index.keys, hi_key, "right") - np.searchsorted(index.keys, lo_key, "left")
        return max(int(n), 0)

    assert count_between("600000.SH", Date(2019, 3, 4), Date(2019, 3, 10)) == 3
    assert count_between("600000.SH", Date(2019, 3, 5), Date(2019, 3, 9)) == 1
    assert count_between("600000.SH", Date(2019, 3, 6), Date(2019, 3, 6)) == 1
    assert count_between("000001.SZ", Date(2019, 3, 1), Date(2019, 3, 31)) == 1
    assert count_between("600000.SH", Date(2019, 3, 10), Date(2019, 3, 4)) == 0


def test_pairs_expand_the_reports_of_a_date_range():
    """One (report position, stock position, release ordinal) per cited
    stock of each report released in [start, end], inclusive, in report and
    citation order."""
    reports = columns_of(
        ReportRecord(f"r{i}", "t", "a", codes, day)
        for i, (codes, day) in enumerate(
            [
                (("600000.SH",), Date(2019, 3, 4)),
                (("600001.SH", "000001.SZ"), Date(2019, 3, 6)),
                (("600002.SH",), Date(2019, 3, 10)),
                (("600003.SH", "000003.SZ"), Date(2019, 3, 5)),
            ]
        )
    )
    report_of, cited, days = reports.pairs(Date(2019, 3, 5), Date(2019, 3, 6))
    assert report_of.tolist() == [1, 1, 3, 3]
    assert cited.dtype.kind == "i"
    assert [reports.stocks[s] for s in cited] == ["600001.SH", "000001.SZ", "600003.SH", "000003.SZ"]
    assert days.tolist() == [Date(2019, 3, d).toordinal() for d in (6, 6, 5, 5)]
    report_of, cited, _ = reports.pairs(Date(2019, 3, 4), Date(2019, 3, 10))
    assert report_of.tolist() == [0, 1, 1, 2, 3, 3]
    assert cited.tolist() == reports.cited.tolist()
    assert reports.pairs(Date(2019, 3, 11), Date(2019, 3, 31))[1].tolist() == []


def test_parse_tables_each_cited_stock_once(tmp_path):
    """The stock table lists each cited code once, in first-cited order;
    each citation is its code's position there, and serializing the parse
    gives back the file."""
    text = (
        "report_id,title,abstract,stock_codes,release_date\n"
        "r1,t,a,600000.SH,2019-03-04\n"
        "r2,t,a,000001.SZ;600000.SH,2019-03-05\n"
        "r3,t,a,600519.SH;000001.SZ,2019-03-06\n"
        "r4,t,a,600519.SH,2019-03-07\n"
    )
    reports = parse_corpus(text_file(tmp_path / "corpus.csv", text)).records
    assert reports.stocks == ["600000.SH", "000001.SZ", "600519.SH"]
    assert reports.cited.tolist() == [0, 1, 0, 2, 1, 2]
    assert reports.offsets.tolist() == [0, 1, 3, 5, 6]
    serialize_corpus(reports, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text(encoding="utf-8") == text


def test_open_output_replaces_a_file_whole_or_not_at_all(tmp_path):
    target = tmp_path / "out.txt"
    write_text(target, "old\n")
    with pytest.raises(RuntimeError):
        with open_output(target) as stream:
            stream.write("half of a new file")
            raise RuntimeError("stopped mid-write")
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [target]

    # text is UTF-8 with "\n" line ends; "wb" round-trips bytes
    write_text(target, "caf\u00e9\nend\n")
    assert target.read_bytes() == b"caf\xc3\xa9\nend\n"
    payload = bytes(range(256)) + b"\r\n"
    with open_output(target, "wb") as stream:
        stream.write(payload)
    assert target.read_bytes() == payload
    assert list(tmp_path.iterdir()) == [target]

    # a path that cannot be written is a configuration error naming it
    taken = tmp_path / "taken"
    taken.mkdir()
    for blocked in (tmp_path / "missing" / "out.txt", taken):
        with pytest.raises(ConfigurationError) as caught:
            write_text(blocked, "x")
        assert str(caught.value).startswith(f"cannot write {blocked}: ")
    assert sorted(tmp_path.iterdir()) == [target, taken]
