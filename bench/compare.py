#!/usr/bin/env python3
"""Print two sets of benchmark results side by side.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``bench/run.py`` saves under
``.bench_work/results`` (one JSON file per workload, seed and trace
setting).  For every workload and metric the table gives each side's
median and quartiles over its runs, and the change of the medians.
Metrics from the result line and the detail line are both listed; only
the result line's end-to-end metrics carry a bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict:
    """(workload, trace, metric) -> ([values], unit)."""
    table = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        metrics = {**record["result"]["metrics"], **record.get("detail", {})}
        for name, entry in metrics.items():
            key = (record["workload"], record["trace"], name)
            values, _unit = table.setdefault(key, ([], entry["unit"]))
            values.append(entry["value"])
    return table


def summary(values) -> str:
    if not values:
        return f"{'-':>32s}"
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):>10.4g} [{q1:.4g}, {q3:.4g}]".rjust(32)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("error: no result files in one of the directories", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'t':1s} {'metric':40s} {'unit':6s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'change':>8s}")
    for key in sorted(set(base) | set(new)):
        workload, trace, metric = key
        base_values, unit = base.get(key, ([], ""))
        new_values, unit = new.get(key, ([], unit))
        change = ""
        if base_values and new_values and statistics.median(base_values):
            ratio = statistics.median(new_values) / statistics.median(base_values) - 1.0
            change = f"{ratio:+.1%}"
        print(f"{workload:16s} {trace:1d} {metric:40s} {unit:6s} {summary(base_values)} "
              f"{summary(new_values)} {change:>8s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
