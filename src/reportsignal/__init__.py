"""Analyst-report sentiment scoring and market-reaction analysis.

The pipeline turns a corpus of analyst reports plus daily market data
into rank-based sentiment labels, per-report sentiment scores, and
pooled regressions of next-day stock behaviour (intraday range, excess
return, volume change) on lagged sentiment. A synthetic-data generator
with planted coefficients makes the whole chain verifiable end to end.
"""

__version__ = "0.1.0"
