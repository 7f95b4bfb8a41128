#!/usr/bin/env python3
"""Compare a fresh modb-bench-v1 JSON dump against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json \
        [--tolerance PCT] [--table-tolerance NAME=PCT ...] [--out DIFF.md]

Tables are matched by name, rows by their first column (the independent
variable: N, mean_gap, ...) and columns by header name, so a column added
to or dropped from either side shifts nothing. Only time-like columns are
compared — headers containing "time", "ms", "us", "sec" or "throughput" —
because event counts (m_per_update, swaps) are deterministic and belong
to the differential tests, not a tolerance check. Throughput columns
regress downward; everything else regresses upward.

Exit codes: 0 = within tolerance, 1 = regression past tolerance,
2 = bad invocation or unreadable input. The CI step runs this
non-blocking (continue-on-error) and uploads --out as an artifact:
bench timings on shared runners are weather, not verdicts, but the
diff makes a real regression visible the day it lands.

Stdlib only; do not add dependencies.
"""

import argparse
import json
import sys

TIME_MARKERS = ("time", "_ms", "_us", "us_", "sec", "micros")
THROUGHPUT_MARKERS = ("throughput", "per_sec", "ops")


def classify(header):
    """Returns 'time', 'throughput', or None (not compared)."""
    name = header.lower()
    if any(marker in name for marker in THROUGHPUT_MARKERS):
        return "throughput"
    if any(marker in name for marker in TIME_MARKERS):
        return "time"
    return None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "modb-bench-v1":
        print(f"error: {path} is not a modb-bench-v1 document",
              file=sys.stderr)
        sys.exit(2)
    return doc


def index_tables(doc):
    return {table["name"]: table for table in doc.get("tables", [])}


def compare(baseline, fresh, default_tol, table_tols):
    """Yields (table, row_key, column, base, new, delta_pct, regressed)."""
    fresh_tables = index_tables(fresh)
    for name, base_table in index_tables(baseline).items():
        fresh_table = fresh_tables.get(name)
        if fresh_table is None:
            continue  # Fresh run skipped the table (e.g. --quick).
        tolerance = table_tols.get(name, default_tol)
        headers = base_table.get("headers", [])
        fresh_columns = {header: col for col, header
                         in enumerate(fresh_table.get("headers", []))}
        fresh_rows = {row[0]: row for row in fresh_table.get("rows", [])
                      if row}
        for base_row in base_table.get("rows", []):
            if not base_row:
                continue
            fresh_row = fresh_rows.get(base_row[0])
            if fresh_row is None:
                continue
            for col in range(1, min(len(base_row), len(headers))):
                kind = classify(headers[col])
                fresh_col = fresh_columns.get(headers[col])
                if (kind is None or fresh_col is None
                        or fresh_col >= len(fresh_row)):
                    continue
                base_value = base_row[col]
                new_value = fresh_row[fresh_col]
                if not isinstance(base_value, (int, float)) or base_value == 0:
                    continue
                delta = (new_value - base_value) / abs(base_value) * 100.0
                worse = -delta if kind == "throughput" else delta
                yield (name, base_row[0], headers[col], base_value,
                       new_value, delta, worse > tolerance)


def main():
    parser = argparse.ArgumentParser(
        description="Diff a fresh bench JSON against a committed baseline.")
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        help="allowed regression, percent (default 25)")
    parser.add_argument("--table-tolerance", action="append", default=[],
                        metavar="NAME=PCT",
                        help="per-table override, repeatable")
    parser.add_argument("--out", help="write a markdown diff report here")
    args = parser.parse_args()

    table_tols = {}
    for override in args.table_tolerance:
        name, _, pct = override.partition("=")
        if not pct:
            print(f"error: bad --table-tolerance {override!r}",
                  file=sys.stderr)
            return 2
        table_tols[name] = float(pct)

    rows = list(compare(load(args.baseline), load(args.fresh),
                        args.tolerance, table_tols))
    regressions = [row for row in rows if row[6]]

    lines = ["# Bench regression report", "",
             f"baseline: `{args.baseline}`  fresh: `{args.fresh}`  "
             f"tolerance: {args.tolerance:.0f}%"
             + (f"  overrides: {table_tols}" if table_tols else ""), "",
             "| table | row | column | baseline | fresh | delta |",
             "| --- | --- | --- | --- | --- | --- |"]
    for name, key, col, base, new, delta, regressed in rows:
        flag = " **REGRESSION**" if regressed else ""
        lines.append(f"| {name} | {key} | {col} | {base:.4g} | {new:.4g} "
                     f"| {delta:+.1f}%{flag} |")
    if not rows:
        lines.append("| (no comparable rows) | | | | | |")
    report = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    print(report)
    if regressions:
        print(f"{len(regressions)} timing(s) regressed past tolerance",
              file=sys.stderr)
        return 1
    print("all timings within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
