#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit with runs of a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records, one JSON object per line, as
perfbench/run.py appends them to .perfbench/runs.jsonl (lines that are
not run records are skipped, so captured stdout works too).  Run both
sides with the same --seconds and, for pairing, the same seeds.

For every workload and every end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles, the paired win count and a
verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's quartile distance;
  unresolved  the run-to-run spread (quartile distance over median, the
              wider side) exceeds the metric's bound and not every run
              of the change reads better than every run of the parent;
  worse       the change's median is worse than the parent's by more
              than the bound;
  unchanged   otherwise.

Then it prints the failed share of each side, the per-layer medians of
the traced runs and the deterministic counters, with their deltas.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "workload" in rec and "end_to_end" in rec:
                runs.append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def e2e_values(run):
    values = dict(run["end_to_end"])
    values["peak_rss_mb"] = run.get("peak_rss_mb")
    return values


def pairs(parent, change):
    """Runs paired by seed; by order when no seed appears on both sides."""
    by_seed = {r["seed"]: r for r in change}
    matched = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return matched or list(zip(parent, change))


def verdict(metric, parent, change, paired):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in paired if better(c, p))
    worsening = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    all_better = all(better(c, p) for c in change for p in parent)
    if paired and wins >= 0.9 * len(paired) and abs(cmed - pmed) > pq3 - pq1 \
            and better(cmed, pmed):
        v = "improved"
    elif spread > metric["bound"]:
        v = "unchanged" if all_better else "unresolved"
    elif worsening > metric["bound"]:
        v = "worse"
    else:
        v = "unchanged"
    return (pq1, pmed, pq3), (cq1, cmed, cq3), wins, v


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def delta(a, b):
    if a == b:
        return "="
    if a:
        return "%+.1f%%" % (100.0 * (b - a) / abs(a))
    return "new"


def median_of(runs, section):
    names = []
    for r in runs:
        names += [n for n in r[section] if n not in names]
    return {n: statistics.median([r[section][n] for r in runs if n in r[section]])
            for n in names}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent_runs, change_runs = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        ps = [r for r in parent_runs if r["workload"] == w]
        cs = [r for r in change_runs if r["workload"] == w]
        if not ps or not cs:
            print("== %s: no runs on %s side" % (w, "parent" if not ps else "change"))
            continue
        p0 = [r for r in ps if not r["trace"]]
        c0 = [r for r in cs if not r["trace"]]
        paired = pairs(p0, c0)
        print("== %s: %d parent runs, %d change runs, %d pairs (untraced)"
              % (w, len(p0), len(c0), len(paired)))
        for side, runs in (("parent", ps), ("change", cs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            bad = sum(1 for r in runs if not r.get("correct", True))
            print("   %s failed share %d/%d, incorrect runs %d"
                  % (side, failed, attempted, bad))
        if p0 and c0:
            print("   %-20s %-32s %-32s %-6s %s"
                  % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                     "wins", "verdict"))
            for m in spec["end_to_end"]:
                pv = [e2e_values(r)[m["name"]] for r in p0]
                cv = [e2e_values(r)[m["name"]] for r in c0]
                pair_vals = [(e2e_values(a)[m["name"]], e2e_values(b)[m["name"]])
                             for a, b in paired]
                pq, cq, wins, v = verdict(m, pv, cv, pair_vals)
                print("   %-20s %-32s %-32s %-6s %s (bound %g)"
                      % (m["name"], fmt(pq), fmt(cq),
                         "%d/%d" % (wins, len(pair_vals)), v, m["bound"]))
        p1 = [r for r in ps if r["trace"]]
        c1 = [r for r in cs if r["trace"]]
        if p1 and c1:
            print("   per-layer medians (traced runs: %d parent, %d change)"
                  % (len(p1), len(c1)))
            pm, cm = median_of(p1, "per_layer"), median_of(c1, "per_layer")
            for m in spec["per_layer"]:
                n = m["name"]
                if n in pm and n in cm:
                    print("   %-26s %14.6g -> %-14.6g %s"
                          % (n, pm[n], cm[n], delta(pm[n], cm[n])))
        print("   deterministic counters (first run of each side; * = varies within a side)")
        for n in sorted(set().union(*[r["counters"] for r in ps + cs])):
            pvals = {r["counters"][n] for r in ps if n in r["counters"]}
            cvals = {r["counters"][n] for r in cs if n in r["counters"]}
            if not pvals or not cvals:
                continue
            pf = next(r["counters"][n] for r in ps if n in r["counters"])
            cf = next(r["counters"][n] for r in cs if n in r["counters"])
            print("   %-26s %14.0f%s -> %-14.0f%s %s"
                  % (n, pf, "*" if len(pvals) > 1 else " ", cf,
                     "*" if len(cvals) > 1 else " ", delta(pf, cf)))


if __name__ == "__main__":
    main()
