#!/usr/bin/env python3
"""Compares two captures of the end-to-end benchmark (bench/e2e/run.py).

  python3 bench/e2e/compare.py BASE NEW [--claim=METRIC@WORKLOAD ...]
  python3 bench/e2e/compare.py --selftest

BASE and NEW are result.json files written by run.py, or directories whose
*.json captures are pooled. For every workload and end-to-end metric of
BENCHMARK.json it prints both sides' median and quartiles and a verdict:

  ok          NEW's median is within the metric's bound of BASE's
  better      every NEW run beats every BASE run
  unresolved  a side's interquartile range, as a share of its median, is
              wider than the bound (and not every NEW run is better)
  REGRESSION  NEW's median is worse than BASE's by more than the bound

failed_frac (failed or wrong jobs / attempted) has an absolute bound of 0:
any failed job or failed check in NEW is a regression.

--claim=METRIC@WORKLOAD applies the rule for claiming a gain: NEW wins at
least 9 of every 10 BASE/NEW pairs (runs paired in capture order, ties
count for neither, at least 10 pairs) and the medians differ by more than
BASE's interquartile range.

Exit status 1 on any regression or unmet claim.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load(path):
    """{workload: [untraced run, ...]} pooled over one capture or a dir."""
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    pooled = {}
    for p in paths:
        with open(p) as f:
            capture = json.load(f)
        for workload, kinds in capture["workloads"].items():
            pooled.setdefault(workload, []).extend(kinds["untraced"])
    if not pooled:
        sys.exit("error: no captures in " + path)
    return pooled


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def failed_frac(run):
    failed = run["failed"] if run["correct"] else max(1, run["failed"])
    return failed / max(1, run["attempted"])


def verdict(base, new, better, bound):
    """One workload x metric: (verdict, signed relative change)."""
    sign = 1 if better == "lower" else -1
    base_med, new_med = statistics.median(base), statistics.median(new)
    worse = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    if all(sign * n < sign * b for n in new for b in base):
        return "better", worse
    if max(spread(base), spread(new)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "REGRESSION", worse
    return "ok", worse


def compare(base, new, metrics):
    """Rows of (workload, metric, base values, new values, verdict, change)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            rows.append((workload, name, b, n) +
                        verdict(b, n, metric["better"], metric["bound"]))
        b = [failed_frac(r) for r in base[workload]]
        n = [failed_frac(r) for r in new[workload]]
        rows.append((workload, "failed_frac", b, n,
                     "REGRESSION" if any(n) else "ok", max(n) - max(b)))
    return rows


def claim(base, new, name, workload, better):
    """(met, detail) under the gain rule for METRIC@WORKLOAD."""
    if workload not in base or workload not in new:
        return False, "workload %s missing" % workload
    b = [r["metrics"][name]["value"] for r in base[workload]]
    n = [r["metrics"][name]["value"] for r in new[workload]]
    sign = 1 if better == "lower" else -1
    pairs = list(zip(b, n))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    q1, base_med, q3 = quartiles(b)
    gap = sign * (base_med - statistics.median(n))
    met = (len(pairs) >= MIN_CLAIM_PAIRS and
           wins >= CLAIM_WIN_SHARE * len(pairs) and gap > q3 - q1)
    return met, ("%d/%d pairs won, median gap %.6g vs BASE IQR %.6g" %
                 (wins, len(pairs), gap, q3 - q1))


def report(base, new, metrics, claims):
    rows = compare(base, new, metrics)
    print("%-14s %-20s %33s %33s %8s  %s" %
          ("workload", "metric", "BASE q1/median/q3", "NEW q1/median/q3",
           "worse", "verdict"))
    for workload, name, b, n, result, worse in rows:
        print("%-14s %-20s %33s %33s %+7.2f%%  %s" % (
            workload, name, "%.4g/%.4g/%.4g" % quartiles(b),
            "%.4g/%.4g/%.4g" % quartiles(n), 100 * worse, result))
    ok = all(row[4] != "REGRESSION" for row in rows)
    by_name = {m["name"]: m for m in metrics}
    for spec in claims:
        name, _, workload = spec.partition("@")
        if name not in by_name:
            sys.exit("error: --claim names no end-to-end metric: " + spec)
        met, detail = claim(base, new, name, workload,
                            by_name[name]["better"])
        print("claim %s: %s (%s)" % (spec, "met" if met else "NOT MET",
                                     detail))
        ok = ok and met
    return ok


def selftest():
    """Synthetic captures covering every verdict and both claim outcomes."""
    metrics = [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1},
               {"name": "r", "unit": "1/s", "better": "higher",
                "bound": 0.1}]

    def runs(ts, rs=None, failed=0):
        rs = rs or [100.0] * len(ts)
        return {"w": [{"correct": True, "attempted": 100, "failed": failed,
                       "metrics": {"t": {"value": t}, "r": {"value": r}}}
                      for t, r in zip(ts, rs)]}

    def verdicts(base, new):
        return {row[1]: row[4] for row in compare(base, new, metrics)}

    tight = [100.0 + 0.1 * i for i in range(10)]
    base = runs(tight)
    assert verdicts(base, runs(tight))["t"] == "ok"
    assert verdicts(base, runs([t * 1.2 for t in tight]))["t"] == "REGRESSION"
    assert verdicts(base, runs([t * 1.05 for t in tight]))["t"] == "ok"
    wide = [60.0 + 10 * i for i in range(10)]
    assert verdicts(runs(wide), runs(wide))["t"] == "unresolved"
    assert verdicts(runs(wide), runs([50.0] * 10))["t"] == "better"
    assert verdicts(base, runs(tight, [80.0] * 10))["r"] == "REGRESSION"
    assert verdicts(base, runs(tight, failed=1))["failed_frac"] == "REGRESSION"
    assert claim(base, runs([t * 0.8 for t in tight]), "t", "w", "lower")[0]
    noisy = [100.0 + (5 if i % 2 else -5) for i in range(10)]
    assert not claim(runs(noisy), runs([t * 0.98 for t in noisy]), "t", "w",
                     "lower")[0]
    assert not claim(base, runs([t * 0.8 for t in tight[:5]]), "t", "w",
                     "lower")[0]
    print("selftest ok")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--claim", action="append", default=[])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if not args.base or not args.new:
        parser.error("BASE and NEW are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    if not report(load(args.base), load(args.new), metrics, args.claim):
        sys.exit(1)


if __name__ == "__main__":
    main()
