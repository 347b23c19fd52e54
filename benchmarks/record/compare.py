"""Compare two result sets of the benchmark of record.

    python3 benchmarks/record/compare.py BASE CHANGE
    python3 benchmarks/record/compare.py --summarize SET \\
        [--write FILE --key KEY]

A result set is a directory of files written by ``run.py --out`` (or
one such file); every workload result in it is one run.  Runs of the
two sets are paired in file order.  For each workload and metric the
comparison prints both medians and quartiles, the share of pairs the
change won, and a verdict:

``gain``        there are at least ten pairs, the change won at least
                nine tenths of them, and the medians differ by more
                than the base's quartile spread, in the better
                direction;
``regression``  the change's median is worse than the base's by more
                than the metric's bound in ``BENCHMARK.json``;
``unresolved``  the base's own spread is wider than the bound and not
                every run of the change beats every run of the base;
``unchanged``   none of the above.

End-to-end counts (units in ``EXACT_UNITS``, such as
``peak_live_nodes``) are exact: their bound here is 0, so any
worsening is a regression.  Per-layer metrics have no bound: they read
``gain``, ``changed`` or ``unchanged`` and never fail the comparison.
The exit status is non-zero on any end-to-end regression, when the
change fails a larger share of its operations than the base on some
workload, or when it attempts a different number of operations per
pass (it then ran other work, and nothing else compares).

``--summarize`` prints each workload's per-metric median and quartiles
instead; with ``--write`` it stores them under the dotted ``--key`` of
a JSON file (how ``baseline.json`` is recorded).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from common import load_json, load_spec, quartiles

VERDICT_GAIN = "gain"
VERDICT_REGRESSION = "regression"
VERDICT_UNRESOLVED = "unresolved"
VERDICT_UNCHANGED = "unchanged"
VERDICT_CHANGED = "changed"
#: Units of end-to-end metrics that are counts, compared exactly.
EXACT_UNITS = frozenset({"count", "nodes"})
#: Pairs a gain needs: with five, identical code won every pair of
#: ``serve`` by 4% when the recorded baseline was taken.
GAIN_PAIRS = 10


def load_set(path: Path) -> dict[str, list[dict]]:
    """Workload name -> its results, in file order."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        for result in load_json(file)["results"]:
            runs.setdefault(result["workload"], []).append(result)
    if not runs:
        raise SystemExit(f"compare.py: no results under {path}")
    return runs


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[str, float, float]:
    """``(verdict, share of pairs won, relative worsening)``.

    The worsening is the change's median over the base's, signed so
    that a positive value is worse whatever the metric's direction.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base)
    _, change_median, _ = quartiles(change)
    pairs = list(zip(base, change))
    won = sum(sign * (c - b) < 0 for b, c in pairs) / len(pairs)
    delta = sign * (change_median - base_median)
    if base_median:
        worse = delta / abs(base_median)
    else:
        worse = 0.0 if delta == 0 else math.copysign(math.inf, delta)
    if len(pairs) >= GAIN_PAIRS and won >= 0.9 and delta < 0 \
            and abs(change_median - base_median) > q3 - q1:
        return VERDICT_GAIN, won, worse
    if bound is None:
        return (VERDICT_UNCHANGED if delta == 0 else VERDICT_CHANGED,
                won, worse)
    if worse > bound:
        return VERDICT_REGRESSION, won, worse
    base_spread = (q3 - q1) / abs(base_median) if base_median else 0.0
    beats_all = all(sign * (c - b) < 0 for c in change for b in base)
    if base_spread > bound and not beats_all:
        return VERDICT_UNRESOLVED, won, worse
    return VERDICT_UNCHANGED, won, worse


def failure_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted \
        else 0.0


def measured(result: dict, spec: dict) -> dict[str, float]:
    """The result's values of the metrics ``BENCHMARK.json`` defines:
    end-to-end ones for untraced runs, per-layer ones for traced runs."""
    kind = "per_layer" if result["traced"] else "end_to_end"
    values = result[kind]
    return {m["name"]: values[m["name"]] for m in spec[kind]
            if m["name"] in values}


def bound_of(metric: dict) -> float | None:
    """The bound ``compare`` applies: 0 for end-to-end counts."""
    if "bound" in metric and metric["unit"] in EXACT_UNITS:
        return 0.0
    return metric.get("bound")


def compare(base: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict) -> tuple[list[list[str]], bool]:
    """Table rows and whether the change passes."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    ok = True
    for workload in sorted(set(base) & set(change)):
        base_ops = {r["ops_per_pass"] for r in base[workload]}
        change_ops = {r["ops_per_pass"] for r in change[workload]}
        if base_ops != change_ops:
            ok = False
            rows.append([workload, "ops_per_pass",
                         ",".join(map(str, sorted(base_ops))), "",
                         ",".join(map(str, sorted(change_ops))), "", "",
                         "", VERDICT_REGRESSION])
            continue
        base_runs = [measured(r, spec) for r in base[workload]]
        change_runs = [measured(r, spec) for r in change[workload]]
        for name in [n for n in base_runs[0] if n in change_runs[0]]:
            before = [values[name] for values in base_runs]
            after = [values[name] for values in change_runs]
            result, won, worse = verdict(before, after,
                                         metrics[name]["better"],
                                         bound_of(metrics[name]))
            ok &= result != VERDICT_REGRESSION
            q1, median, q3 = quartiles(before)
            c1, change_median, c3 = quartiles(after)
            rows.append([workload, name, f"{median:.6g}",
                         f"[{q1:.4g}, {q3:.4g}]", f"{change_median:.6g}",
                         f"[{c1:.4g}, {c3:.4g}]", f"{100 * worse:+.1f}%",
                         f"{won:.0%}", result])
        before_share = failure_share(base[workload])
        after_share = failure_share(change[workload])
        if after_share > before_share:
            ok = False
            rows.append([workload, "failure_share", f"{before_share:.4g}",
                         "", f"{after_share:.4g}", "", "", "",
                         VERDICT_REGRESSION])
    return rows, ok


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    """Per workload: run count, failures, per-metric median/quartiles."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload, results in sorted(runs.items()):
        values = [measured(r, spec) for r in results]
        metrics = {}
        for name in values[0]:
            q1, median, q3 = quartiles([v[name] for v in values])
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "unit": units[name]}
        summary[workload] = {
            "runs": len(results),
            "seeds": sorted({r["seed"] for r in results}),
            "backend": results[0]["backend"],
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    return summary


def write_summary(path: Path, key: str, summary: dict) -> None:
    data = load_json(path) if path.exists() else {}
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = summary
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="*", type=Path,
                        help="BASE and CHANGE result sets")
    parser.add_argument("--summarize", type=Path, metavar="SET")
    parser.add_argument("--write", type=Path, metavar="FILE")
    parser.add_argument("--key", default="object",
                        help="dotted key for --write (default: object)")
    args = parser.parse_args(argv)
    if args.summarize is not None:
        summary = summarize(load_set(args.summarize), load_spec())
        if args.write is not None:
            write_summary(args.write, args.key, summary)
        else:
            print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    if len(args.sets) != 2:
        parser.error("give BASE and CHANGE, or --summarize SET")
    rows, ok = compare(load_set(args.sets[0]), load_set(args.sets[1]),
                       load_spec())
    header = ["workload", "metric", "base", "base q1..q3", "change",
              "change q1..q3", "worse", "won", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    print("PASS" if ok else "FAIL: regression or larger failure share")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
