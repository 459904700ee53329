"""Analyst-report sentiment scoring and market-reaction analysis.

The pipeline turns a corpus of analyst reports plus daily market data
into rank-based sentiment labels, per-report sentiment scores, and
pooled regressions of next-day stock behaviour (intraday range, excess
return, volume change) on lagged sentiment. A synthetic-data generator
with planted coefficients makes the whole chain verifiable end to end.
"""

from .config import RunConfig, load_config, packaged_data_path
from .corpus import (
    CorpusIndex,
    ParseResult,
    ReportColumns,
    RowReject,
    clean_text,
    parse_corpus,
    serialize_corpus,
)
from .econometrics import (
    MAJORITY_VARIABLES,
    OUTCOME_NAMES,
    REGRESSOR_NAMES,
    MeanTestResult,
    PanelBuildResult,
    RegressionFit,
    SectorResult,
    build_majority_samples,
    build_panel,
    majority_group_tests,
    mean_difference_test,
    ols_fit,
    run_industry_regressions,
    run_pooled_regressions,
    student_t_sf2,
    write_panel,
)
from .errors import (
    ArgumentError,
    ConfigurationError,
    DataError,
    DomainError,
    MappingError,
    NumericalError,
    PipelineError,
    SchemaError,
    SingularityError,
)
from .labeling import LabeledReport, assign_labels, write_labels
from .market import (
    IndexStore,
    IndustryMap,
    MarketData,
    TradingCalendar,
    load_calendar,
    load_market,
)
from .metrics import (
    delta_volume,
    excess_return,
    garman_klass_range,
    label_window_return,
    recommendation_counts,
)
from .sentiment import (
    DailySentiment,
    SentimentLexicon,
    SentimentScore,
    classify_majority,
    daily_average_sentiment,
    lexicon_score,
    load_external_scores,
    load_lexicon,
    prepare_report,
    write_scores,
)
from .synthkit import SynthDataset, SynthSpec, generate, write_dataset

__version__ = "0.1.0"
