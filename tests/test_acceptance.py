"""End-to-end acceptance checks for the shipped pipeline.

Each test guards one headline guarantee: the range estimator against a
high-precision reference, the exact labeling counts, the regression
engine against a brute-force normal-equations oracle, planted-effect
recovery through the real command line, false-positive calibration on
null panels, simplex preservation everywhere scores are produced, the
two-sample test against frozen reference values, report layout against
golden files, the sha256 of every output of the seed-0 chain, and the
majority-vote classifier.

Every test finishes by printing one PASS line with its measured numbers;
run ``pytest tests/test_acceptance.py -v -s`` to see them.  The golden
files under ``tests/data/golden`` are regenerated with::

    reportsignal synth --out /tmp/golden/data --seed 0
    reportsignal ingest --config /tmp/golden/data/config.json --out /tmp/golden/run
    reportsignal analyze --config /tmp/golden/data/config.json --out /tmp/golden/run
    cp /tmp/golden/run/{regressions,industry,mean_tests}.txt tests/data/golden/

and ``tests/data/golden/digests.json``, the digests of ``CHAIN``, with::

    PYTHONPATH=src python -m tests.test_acceptance
"""

import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np
import pytest

import reportsignal
from reportsignal.config import RunConfig, packaged_data_path
from reportsignal.econometrics import (
    MAJORITY_VARIABLES,
    OUTCOME_NAMES,
    REGRESSOR_NAMES,
    build_panel,
    mean_difference_test,
    ols_fit,
    run_pooled_regressions,
)
from reportsignal.labeling import NEGATIVE, NEUTRAL, POSITIVE, assign_labels
from reportsignal.sentiment import (
    SentimentScore,
    classify_majority,
    daily_average_sentiment,
    lexicon_score,
    load_external_scores,
    load_lexicon,
)
from reportsignal.synthkit import DEFAULT_BETAS, SynthSpec, default_betas, generate

from tests.helpers import assemble, estimate, flat_bar, ranges_of, small_spec, text_file

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
DIGESTS = GOLDEN_DIR / "digests.json"

# The seed-0 chain at the default scale, (name, verb arguments) in order,
# every path relative to one base directory: the dataset, then each verb
# on it, with analyze under both scorers.
CHAIN = (
    ("synth", ("synth", "--out", "data", "--seed", "0")),
    ("ingest", ("ingest", "--config", "data/config.json", "--out", "run")),
    ("label", ("label", "--config", "data/config.json", "--out", "run")),
    ("score", ("score", "--config", "data/config.json", "--out", "run", "--scorer", "lexicon")),
    ("analyze", ("analyze", "--config", "data/config.json", "--out", "run")),
    ("analyze_lexicon", ("analyze", "--config", "data/config.json", "--out", "run_lexicon", "--scorer", "lexicon")),
)

# The five planted sentiment coefficients the pipeline must recover:
# (pooled-regression outcome, regressor, planted value).
PLANTED = (
    ("range", "pos[t-1]", DEFAULT_BETAS["range"]["pos"]),
    ("range", "neg[t-1]", DEFAULT_BETAS["range"]["neg"]),
    ("ret_ex", "pos[t-1]", DEFAULT_BETAS["ret_ex"]["pos"]),
    ("ret_ex", "neg[t-1]", DEFAULT_BETAS["ret_ex"]["neg"]),
    ("delta_volume", "pos[t-1]", DEFAULT_BETAS["delta_volume"]["pos"]),
)


def announce(name: str, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail}; {elapsed:.2f}s)")


def run_cli(base: Path, *argv) -> subprocess.CompletedProcess:
    """Run one verb as a child process in ``base``; it must succeed."""
    # the child imports the package under test, installed or not
    src = str(Path(reportsignal.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "reportsignal", *argv],
        capture_output=True,
        cwd=base,
        env=env,
    )
    assert proc.returncode == 0, f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
    return proc


def run_chain(base: Path) -> dict:
    """Each verb of ``CHAIN`` run in ``base``, its finished process by name."""
    return {name: run_cli(base, *argv) for name, argv in CHAIN}


def chain_digests(base: Path, procs: dict) -> dict:
    """The sha256 of every file under ``base`` (``market.json`` without its
    ``code`` key, which hashes the package source) and of each verb's
    stdout and stderr, each verb's exit code, and the Python and numpy
    versions that produced them."""
    files = {}
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "market.json":
            manifest = json.loads(data)
            del manifest["code"]
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.relative_to(base).as_posix()] = hashlib.sha256(data).hexdigest()
    verbs = {
        name: {
            "exit": proc.returncode,
            "stdout": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": hashlib.sha256(proc.stderr).hexdigest(),
        }
        for name, proc in procs.items()
    }
    return {"python": platform.python_version(), "numpy": np.__version__, "files": files, "verbs": verbs}


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One full command-line pass of ``CHAIN`` over the default dataset,
    seed 0: the output directory of its ``analyze``, the chain's wall time,
    and its digests.

    Shared by the recovery cross-check, the golden-file comparison and the
    digest check, so the (deliberately full-sized) dataset is generated
    only once.
    """
    base = tmp_path_factory.mktemp("acceptance")
    started = time.perf_counter()
    procs = run_chain(base)
    return base / "run", time.perf_counter() - started, chain_digests(base, procs)


def high_precision_range(opn, high, low, close):
    """The range formula evaluated in extended precision."""
    o, h, l, c = (np.longdouble(v) for v in (opn, high, low, close))
    u = np.log(h / o)
    d = np.log(l / o)
    x = np.log(c / o)
    est = 0.511 * (u - d) ** 2 - 0.019 * (x * (u + d) - 2.0 * u * d) - 0.383 * x**2
    return float(est)


def test_range_estimator_tracks_high_precision_reference():
    """10,000 random valid bars agree with extended precision to 1e-10."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 10_000
    opens = rng.lognormal(3.0, 1.0, size=n)
    ups = rng.uniform(1e-4, 0.4, size=n)
    downs = rng.uniform(1e-4, 0.4, size=n)
    highs = opens * np.exp(ups)
    lows = opens * np.exp(-downs)
    closes = rng.uniform(lows, highs)

    day = Date(2021, 1, 4)
    bars = [
        ("000001.SZ", day, float(o), float(h), float(l), float(c), 1e6)
        for o, h, l, c in zip(opens, highs, lows, closes)
    ]
    worst = 0.0
    for got, o, h, l, c in zip(ranges_of(bars).values, opens, highs, lows, closes):
        ref = high_precision_range(o, h, l, c)
        worst = max(worst, abs(got - ref) / abs(ref))

    flat = ranges_of([flat_bar("000001.SZ", day)]).values[0]
    elapsed = time.perf_counter() - started

    assert worst < 1e-10
    assert flat == 0.0
    assert elapsed < 1.0
    announce("range-estimator oracle", elapsed, f"max rel diff {worst:.2e} over {n} bars")


def test_label_slices_follow_exact_floor_counts():
    """Every pool size 1..500 gets exact floor counts, stable under
    positive rescaling and permutation."""
    started = time.perf_counter()
    rng = np.random.default_rng(23)
    for n in range(1, 501):
        returns = rng.normal(0.0, 0.05, size=n)
        while len(np.unique(returns)) < n:
            returns = rng.normal(0.0, 0.05, size=n)
        pool = [(f"r{i:04d}", "000001.SZ", float(returns[i])) for i in range(n)]

        labeled = assign_labels(pool)
        counts = Counter(entry.label for entry in labeled)
        expected = (3 * n) // 10
        assert counts[POSITIVE] == expected
        assert counts[NEGATIVE] == expected
        assert counts[NEUTRAL] == n - 2 * expected

        by_key = {(e.report_id, e.stock_id): e.label for e in labeled}

        scale = float(rng.uniform(0.1, 10.0))
        rescaled = assign_labels([(r, s, w * scale) for r, s, w in pool])
        assert {(e.report_id, e.stock_id): e.label for e in rescaled} == by_key

        order = rng.permutation(n)
        shuffled = assign_labels([pool[i] for i in order])
        assert {(e.report_id, e.stock_id): e.label for e in shuffled} == by_key

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce("labeling floor counts", elapsed, "n = 1..500 with rescale and permutation invariance")


def test_regression_engine_matches_normal_equations():
    """100 random systems agree with a brute-force normal-equations
    oracle to 1e-8 relative, with orthogonal residuals."""
    started = time.perf_counter()
    rng = np.random.default_rng(37)
    worst_rel = 0.0
    worst_orth = 0.0
    smallest_coef = math.inf
    for case in range(100):
        k = int(rng.integers(1, 11))
        n = int(rng.integers(k + 2, 501))
        X = rng.normal(size=(n, k))
        if case % 2 == 0:
            X[:, 0] = 1.0
        beta = rng.normal(size=k)
        y = X @ beta + rng.normal(size=n)

        fit = ols_fit(X, {"y": y}, tuple(f"x{j}" for j in range(k)), "classical")["y"]

        xtx = X.T @ X
        coef = np.linalg.solve(xtx, X.T @ y)
        resid = y - X @ coef
        sigma2 = float(resid @ resid) / (n - k)
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtx)))
        t_stats = coef / se

        smallest_coef = min(smallest_coef, float(np.min(np.abs(coef))))
        for got, want in ((fit.coef, coef), (fit.se, se), (fit.t_stats, t_stats)):
            rel = float(np.max(np.abs(np.asarray(got) - want) / np.abs(want)))
            worst_rel = max(worst_rel, rel)

        fit_resid = y - X @ np.asarray(fit.coef)
        col_norms = np.sqrt((X * X).sum(axis=0))
        scale = col_norms * float(np.linalg.norm(fit_resid))
        orth = float(np.max(np.abs(X.T @ fit_resid) / scale))
        worst_orth = max(worst_orth, orth)

    elapsed = time.perf_counter() - started
    assert smallest_coef > 1e-4, "relative comparison would be vacuous near zero"
    assert worst_rel < 1e-8
    assert worst_orth < 1e-8
    assert elapsed < 10.0
    announce(
        "regression oracle",
        elapsed,
        f"100 systems, max rel diff {worst_rel:.2e}, max residual cosine {worst_orth:.2e}",
    )


def recover_planted(seed: int):
    """Generate one default dataset and fit the pooled regressions on
    its evaluation window, exactly as the command line does."""
    ds = generate(SynthSpec(seed=seed))
    market, corpus_index, scores = assemble(ds)
    built = build_panel(
        ds.records, scores, market, corpus_index, start=ds.test_range[0], end=ds.test_range[1]
    )
    return run_pooled_regressions(built.rows)


def test_pipeline_recovers_planted_coefficients(cli_run):
    """Planted sentiment effects come back within 3 SE with the planted
    sign in at least 95 of 100 seeds; the in-memory loop matches the
    real command-line run bit-for-bit on seed 0."""
    started = time.perf_counter()
    failing = []
    fits_seed0 = None
    for seed in range(100):
        fits = recover_planted(seed)
        if seed == 0:
            fits_seed0 = fits
        ok = True
        for outcome, regressor, planted in PLANTED:
            coef, se, _t, _p = estimate(fits[outcome], regressor)
            if abs(coef - planted) > 3.0 * se or (coef > 0) != (planted > 0):
                ok = False
        if not ok:
            failing.append(seed)

    recovered = 100 - len(failing)
    assert recovered >= 95, f"only {recovered}/100 seeds recovered; failing {failing}"

    # Cross-check: the same numbers must come out of the real CLI run.
    out, _cli_elapsed, _digests = cli_run
    from_csv = {}
    with open(out / "regressions.csv", encoding="utf-8", newline="") as stream:
        for row in csv.DictReader(stream):
            from_csv[(row["outcome"], row["regressor"])] = (
                float(row["coef"]),
                float(row["se"]),
                float(row["t_stat"]),
            )
    for outcome, regressor, planted in PLANTED:
        coef, se, t, _p = estimate(fits_seed0[outcome], regressor)
        cli_coef, cli_se, cli_t = from_csv[(OUTCOME_NAMES[outcome], regressor)]
        assert abs(cli_coef - coef) <= 1e-9 * abs(coef)
        assert abs(cli_se - se) <= 1e-9 * se
        assert abs(cli_t - t) <= 1e-9 * abs(t)
        assert abs(cli_coef - planted) <= 3.0 * cli_se
        assert (cli_coef > 0) == (planted > 0)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    announce(
        "planted-effect recovery",
        elapsed,
        f"{recovered}/100 seeds within 3 SE with planted sign; CLI agrees on seed 0",
    )


def test_null_panels_rarely_show_significant_sentiment():
    """With sentiment effects planted at zero, |t| >= 3 shows up in at
    most 1% of 1,000 small-panel runs for each sentiment regressor."""
    started = time.perf_counter()

    betas = default_betas()
    for outcome in betas:
        betas[outcome]["pos"] = 0.0
        betas[outcome]["neg"] = 0.0

    hits = {
        (outcome, regressor): 0
        for outcome in ("range", "ret_ex", "delta_volume")
        for regressor in ("pos[t-1]", "neg[t-1]")
    }
    runs = 1000
    for seed in range(runs):
        ds = generate(small_spec(seed=seed, betas={k: dict(v) for k, v in betas.items()}))
        market, corpus_index, scores = assemble(ds)
        built = build_panel(
            ds.records, scores, market, corpus_index, start=ds.test_range[0], end=ds.test_range[1]
        )
        fits = run_pooled_regressions(built.rows)
        for outcome, regressor in hits:
            _c, _s, t, _p = estimate(fits[outcome], regressor)
            if abs(t) >= 3.0:
                hits[(outcome, regressor)] += 1

    elapsed = time.perf_counter() - started
    worst = max(hits.values())
    assert worst <= runs // 100, f"false-positive counts {hits}"
    assert elapsed < 300.0
    announce(
        "null calibration",
        elapsed,
        f"worst false-positive rate {worst}/{runs} across {len(hits)} sentiment statistics",
    )


def test_scores_everywhere_stay_on_the_simplex(tmp_path):
    """10,000 scores from all three producers sum to 1 within 1e-9."""
    started = time.perf_counter()
    rng = np.random.default_rng(53)
    lexicon = load_lexicon(packaged_data_path("lexicon.csv"))
    vocabulary = lexicon.words(POSITIVE) + lexicon.words(NEUTRAL) + lexicon.words(NEGATIVE)
    fillers = ["甲", "乙", "丙"]
    checked = 0

    def on_simplex(score):
        return abs(math.fsum((score.pos, score.neu, score.neg)) - 1.0) <= 1e-9

    for i in range(4000):
        length = int(rng.integers(0, 40))
        tokens = list(rng.choice(vocabulary + fillers, size=length)) if length else []
        temperature = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        score = lexicon_score(lexicon.hits(" ".join(tokens)), temperature=temperature, report_id=f"r{i}")
        assert on_simplex(score), (tokens, temperature)
        checked += 1

    triples = rng.dirichlet((1.4, 1.1, 1.3), size=4000)
    noise = rng.uniform(-0.01, 0.01, size=triples.shape)
    messy = np.clip(triples + noise, 0.0, 1.0)
    lines = ["report_id,pos,neu,neg"]
    for i, (p, u, m) in enumerate(messy):
        lines.append(f"e{i:04d},{p:.12g},{u:.12g},{m:.12g}")
    scores, rejects = load_external_scores(
        text_file(tmp_path / "scores.csv", "\n".join(lines) + "\n"),
        known_ids=[f"e{i:04d}" for i in range(len(messy))],
        max_error_rate=RunConfig.max_error_rate,
        sum_tolerance=0.05,
    )
    assert not rejects
    assert len(scores) == 4000
    for score in scores:
        assert on_simplex(score), score
        checked += 1

    day_zero = Date(2020, 1, 1)
    entries = []
    for i in range(2000):
        day = day_zero + timedelta(days=i)
        for j in range(int(rng.integers(1, 6))):
            p, u, m = rng.dirichlet((2.0, 2.4, 2.0))
            entries.append((day, SentimentScore(f"d{i}-{j}", float(p), float(u), float(m))))
    for daily in daily_average_sentiment(entries):
        total = math.fsum((daily.mean_pos, daily.mean_neu, daily.mean_neg))
        assert abs(total - 1.0) <= 1e-9
        checked += 1

    elapsed = time.perf_counter() - started
    assert checked == 10_000
    assert elapsed < 1.0
    announce("simplex preservation", elapsed, f"{checked} scores, all within 1e-9 of unit sum")


def test_two_sample_test_reference_values():
    """The unequal-variance test reproduces frozen reference values and
    its exact symmetries."""
    started = time.perf_counter()
    group_a = (2.1, 2.5, 2.3, 2.7)
    group_b = (1.1, 1.4, 1.2)

    res = mean_difference_test(group_a, group_b, "welch")
    assert abs(res.t_stat - 7.462) < 1e-3
    assert abs(res.t_stat - 7.4620250724463652) < 1e-12
    assert abs(res.df - 4.864321608040201) < 1e-12
    assert abs(res.p_value - 7.6854542580066421e-4) < 1e-15

    identical = mean_difference_test(group_a, group_a, "welch")
    assert identical.t_stat == 0.0

    swapped = mean_difference_test(group_b, group_a, "welch")
    assert swapped.t_stat == -res.t_stat
    assert swapped.df == res.df
    assert swapped.p_value == res.p_value

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce("two-sample reference", elapsed, f"t = {res.t_stat:.6f}, df = {res.df:.4f}")


def test_report_tables_match_golden_files(cli_run):
    """The rendered tables are byte-identical to the golden copies and
    keep the expected layout."""
    out, cli_elapsed, _digests = cli_run
    started = time.perf_counter()

    for name in ("regressions.txt", "industry.txt", "mean_tests.txt"):
        got = (out / name).read_text(encoding="utf-8")
        want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert got == want, f"{name} drifted from its golden copy"

    pooled = (out / "regressions.txt").read_text(encoding="utf-8").splitlines()
    coef_rows = [line for line in pooled if line.split() and line.split()[0] in REGRESSOR_NAMES]
    assert [line.split()[0] for line in coef_rows] == list(REGRESSOR_NAMES)
    assert len(coef_rows) == 12
    for line in coef_rows:
        below = pooled[pooled.index(line) + 1].split()
        assert below and all(cell.startswith("(") and cell.endswith(")") for cell in below)
    assert any(line.startswith("Observations") for line in pooled)
    assert any(line.startswith("R-squared") for line in pooled)
    assert "* p-value < 0.05, ** p-value < 0.01, *** p-value < 0.001" in pooled

    means = (out / "mean_tests.txt").read_text(encoding="utf-8").splitlines()
    variable_rows = [
        line.split()[0] for line in means if line.split() and line.split()[0] in MAJORITY_VARIABLES
    ]
    assert variable_rows == list(MAJORITY_VARIABLES)

    elapsed = time.perf_counter() - started
    assert cli_elapsed + elapsed < 60.0
    announce(
        "report layout",
        cli_elapsed + elapsed,
        "three tables byte-identical to goldens; 12 coefficient rows, 6 comparison rows",
    )


def test_majority_vote_follows_word_count_sign():
    """Exhaustive count fixtures: the classifier is the sign of
    (positive hits - negative hits), and it agrees with the score argmax
    whenever that argmax is unique and directional."""
    started = time.perf_counter()
    lexicon = load_lexicon(packaged_data_path("lexicon.csv"))
    pos_word = lexicon.words(POSITIVE)[0]
    neu_word = lexicon.words(NEUTRAL)[0]
    neg_word = lexicon.words(NEGATIVE)[0]

    fixtures = [(n_pos, n_neu, n_neg) for n_pos in range(7) for n_neu in range(7) for n_neg in range(7)]
    all_hits = [
        lexicon.hits(" ".join([pos_word] * n_pos + [neu_word] * n_neu + [neg_word] * n_neg))
        for n_pos, n_neu, n_neg in fixtures
    ]
    # the 343 fixtures classified as one matrix
    verdicts = classify_majority(np.array(all_hits)).tolist()
    agreements = 0
    for (n_pos, n_neu, n_neg), hits, verdict in zip(fixtures, all_hits, verdicts):
        assert hits == (n_pos, n_neu, n_neg)
        if n_pos > n_neg:
            assert verdict == POSITIVE
        elif n_neg > n_pos:
            assert verdict == NEGATIVE
        else:
            assert verdict == NEUTRAL

        score = lexicon_score(hits, RunConfig.temperature, "m")
        counts = {POSITIVE: n_pos, NEUTRAL: n_neu, NEGATIVE: n_neg}
        by_score = {POSITIVE: score.pos, NEUTRAL: score.neu, NEGATIVE: score.neg}
        top = max(counts.values())
        leaders = [label for label, count in counts.items() if count == top]
        if len(leaders) == 1:
            assert max(by_score, key=by_score.get) == leaders[0]
            if leaders[0] != NEUTRAL:
                assert verdict == leaders[0]
                agreements += 1

    # A neutral-dominated report can still lean positive on the
    # directional counts; both readings are deliberate, so the argmax
    # agreement above is scoped to directional leaders.
    hits = lexicon.hits(" ".join([pos_word] * 2 + [neu_word] * 5 + [neg_word]))
    score = lexicon_score(hits, RunConfig.temperature, "m")
    assert classify_majority(np.array([hits]))[0] == POSITIVE
    assert max(((score.pos, POSITIVE), (score.neu, NEUTRAL), (score.neg, NEGATIVE)))[1] == NEUTRAL

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(
        "majority classifier",
        elapsed,
        f"343 count fixtures exact; {agreements} directional argmax agreements",
    )


def test_chain_outputs_match_their_digests(cli_run):
    """Every file the seed-0 chain writes, and each verb's stdout, stderr
    and exit code, keep the digests in ``digests.json``. They hold for the
    libm, BLAS and float ``repr`` of the platform that recorded them; a
    difference names each changed entry and both Python and numpy versions."""
    _out, cli_elapsed, got = cli_run
    started = time.perf_counter()
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = [
        f"{kind} {name}"
        for kind in ("files", "verbs")
        for name in sorted(want[kind].keys() | got[kind].keys())
        if want[kind].get(name) != got[kind].get(name)
    ]
    assert not changed, (
        f"{', '.join(changed)} differ from {DIGESTS.name}, recorded under Python {want['python']} "
        f"and numpy {want['numpy']}; this run is under Python {got['python']} and numpy {got['numpy']}"
    )
    elapsed = time.perf_counter() - started
    announce(
        "output digests",
        cli_elapsed + elapsed,
        f"{len(got['files'])} files and {len(got['verbs'])} verbs of the seed-0 chain unchanged",
    )


def write_digests() -> None:
    """Run ``CHAIN`` in a fresh directory and record its digests in ``DIGESTS``."""
    with tempfile.TemporaryDirectory() as base:
        digests = chain_digests(Path(base), run_chain(Path(base)))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_digests()
