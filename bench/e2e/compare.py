#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 bench/e2e/compare.py --parent p1.json p2.json ... \\
                                 --change c1.json c2.json ...
    python3 bench/e2e/compare.py --self --parent a*.json --change b*.json

Each file is a run document written by run.py (--out, or
build-e2e/BENCH_e2e.json). The i-th parent run pairs with the i-th change
run; alternate which side runs first when collecting them. One row per
(workload, metric): each side's median and quartiles, the share of pairs
the change won (ties count for neither side), and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (metrics without a bound:
              it lost 9/10 of the pairs by more than the parent's spread);
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beat every parent run; or a pair-based
              verdict from fewer than 10 pairs, too few to call;
  unchanged   otherwise.

Exits 1 when a bounded metric regressed; with --self (both sets ran the
same code), when any row is improved or regressed. Also exits 1, before
the table, when the two runs of a pair differ in seed, or any run differs
in seconds, scale or trace from the first, or when a (workload, metric)
row is missing from some run.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load(paths):
    return [json.loads(Path(path).read_text()) for path in paths]


def rows_of(doc):
    return {(w, name): m for w, res in doc["workloads"].items()
            for name, m in res["metrics"].items()}


def check_settings(parent_docs, change_docs, paths):
    """Exits unless every run measured the same thing: one run length,
    scale and mode throughout, and one seed within each pair."""
    first = parent_docs[0]
    for doc, path in zip(parent_docs + change_docs, paths):
        for field in ("seconds", "scale", "trace"):
            if doc[field] != first[field]:
                sys.exit(f"compare.py: {path}: {field}={doc[field]}, but "
                         f"{paths[0]} has {field}={first[field]}")
    n = len(parent_docs)
    for i, (p, c) in enumerate(zip(parent_docs, change_docs)):
        if p["seed"] != c["seed"]:
            sys.exit(f"compare.py: pair {i + 1}: {paths[i]} has seed "
                     f"{p['seed']}, {paths[n + i]} has seed {c['seed']}")


def verdict(parent, change, better, bound):
    """Returns the row's verdict and the share of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = p3 - p1
    worse = sign * (cm - pm)  # > 0: the change is worse
    worse_rel = worse / abs(pm) if pm else (float("inf") if worse > 0 else 0.0)
    spread_rel = spread / abs(pm) if pm else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    n = len(pairs)
    won = wins >= 0.9 * n and -worse > spread
    lost = losses >= 0.9 * n and worse > spread
    if won or (bound is None and lost):
        # 9/10 wins happen by chance about 1 % of the time over 10 pairs,
        # 5/5 about 3 %: below 10 pairs the rule cannot decide.
        if n < 10:
            v = "unresolved"
        else:
            v = "improved" if won else "regressed"
    elif bound is None:
        v = "unchanged"
    elif spread_rel > bound and not all_better:
        v = "unresolved"
    elif worse_rel > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, wins / len(pairs)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--self", action="store_true", dest="same",
                    help="both sets ran the same code: fail on any "
                         "improved or regressed row")
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare.py: --parent and --change need the same number "
                 "of runs (they pair up in order)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent_docs, change_docs = load(args.parent), load(args.change)
    check_settings(parent_docs, change_docs, args.parent + args.change)
    parent = [rows_of(d) for d in parent_docs]
    change = [rows_of(d) for d in change_docs]
    every = set.union(*(set(r) for r in parent + change))
    for run, path in zip(parent + change, args.parent + args.change):
        missing = sorted(every - set(run))
        if missing:
            sys.exit(f"compare.py: {path} lacks " +
                     ", ".join(f"{w}/{m}" for w, m in missing))
    if len(parent) < 10:
        print(f"note: {len(parent)} pairs; a claimed gain needs at least 10, "
              "and below 10 only the bounded metrics can be judged")

    keys = sorted(every)
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "delta", "wins", "bound", "verdict")
    rows = []
    failed = False
    for workload, name in keys:
        unit = parent[0][(workload, name)]["unit"]
        better = parent[0][(workload, name)]["better"]
        pv = [r[(workload, name)]["value"] for r in parent]
        cv = [r[(workload, name)]["value"] for r in change]
        bound = bounds.get(name)
        v, win_share = verdict(pv, cv, better, bound)
        p1, pm, p3 = quartiles(pv)
        c1, cm, c3 = quartiles(cv)
        delta = f"{100 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
        rows.append((workload, name,
                     f"{pm:.4g} [{p1:.4g}, {p3:.4g}] {unit}",
                     f"{cm:.4g} [{c1:.4g}, {c3:.4g}] {unit}", delta,
                     f"{win_share:.2f}",
                     "-" if bound is None else f"{100 * bound:.0f}%", v))
        if v == "regressed" and bound is not None:
            failed = True
        if args.same and v in ("improved", "regressed"):
            failed = True
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    counts = {v: sum(1 for r in rows if r[-1] == v)
              for v in ("improved", "regressed", "unresolved", "unchanged")}
    print(" ".join(f"{k}={n}" for k, n in counts.items()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
