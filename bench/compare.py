"""Compare two sets of benchmark run records.

    python3 bench/compare.py A_DIR B_DIR

``A_DIR`` holds the records of the parent commit, ``B_DIR`` those of the
change (``bench/run.py --out DIR`` writes one JSON record per workload
run).  Untraced, non-smoke records are grouped by workload; for each
(workload, end-to-end metric) the tool prints both sides' median and
quartiles over their runs and a verdict:

* ``within bound``: the change's median is no worse than the parent's by
  more than the metric's bound;
* ``worse`` / ``better``: the median moved by more than the bound;
* ``unresolved``: one side's run-to-run spread (interquartile distance over
  median) is wider than the bound, so the comparison cannot tell, unless
  every run of one side reads better than every run of the other.

A ``fail_frac`` row per workload compares failed over attempted ops.  The
exit code is 1 if any metric is worse or the change fails more ops, else 0.
Records from machines with different fingerprints, or from runs of
different lengths (``run_seconds``), are compared with a warning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

SCHEMA = "bench-record-v1"


def load_records(directory) -> dict:
    """Untraced full-length records under ``directory``, by workload."""
    out: dict[str, list] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if (isinstance(rec, dict) and rec.get("schema") == SCHEMA
                and not rec["trace"] and not rec["smoke"]):
            out.setdefault(rec["workload"], []).append(rec)
    return out


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """Verdict on moving from runs ``a`` to runs ``b`` of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    _, a_med, _ = stats.quartiles(a)
    _, b_med, _ = stats.quartiles(b)
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    # Badness: larger is worse whichever direction the metric prefers.
    bad_a = [sign * x for x in a]
    bad_b = [sign * x for x in b]
    if max(bad_b) < min(bad_a):
        separated = "better"
    elif min(bad_b) > max(bad_a):
        separated = "worse"
    else:
        separated = None
    if max(stats.spread(a), stats.spread(b)) > bound:
        if separated == "better" or (separated == "worse" and worse_by > bound):
            return separated
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def fingerprints(records) -> set:
    return {json.dumps(r["machine"], sort_keys=True) for r in records}


def compare(a_dir, b_dir) -> int:
    a_all, b_all = load_records(a_dir), load_records(b_dir)
    a_prints = fingerprints(r for rs in a_all.values() for r in rs)
    b_prints = fingerprints(r for rs in b_all.values() for r in rs)
    if len(a_prints | b_prints) > 1:
        print("WARNING: the records come from machines with different "
              "fingerprints; their timings are not comparable:")
        for p in sorted(a_prints | b_prints):
            print(f"  {p}")
    lengths = {r.get("run_seconds") for recs in (*a_all.values(), *b_all.values())
               for r in recs}
    if len(lengths) > 1:
        print(f"WARNING: the records come from runs of different lengths "
              f"(run_seconds {sorted(lengths, key=str)}); they did not do the same work")
    regress = False
    print(f"{'workload':<9} {'metric':<16} {'A median':>11} {'A q1..q3':>21} "
          f"{'B median':>11} {'B q1..q3':>21} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a_all) | set(b_all)):
        a_recs, b_recs = a_all.get(workload, []), b_all.get(workload, [])
        if not a_recs or not b_recs:
            print(f"{workload:<9} missing on side {'A' if not a_recs else 'B'}")
            continue
        for name, decl in a_recs[0]["metrics"].items():
            a = [r["metrics"][name]["value"] for r in a_recs]
            b = [r["metrics"][name]["value"] for r in b_recs if name in r["metrics"]]
            if not b:
                print(f"{workload:<9} {name:<16} missing on side B")
                continue
            v = verdict(a, b, decl["better"], decl["bound"])
            regress |= v == "worse"
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(f"{workload:<9} {name:<16} {qa[1]:11.4f} {qa[0]:10.4f}..{qa[2]:<9.4f} "
                  f"{qb[1]:11.4f} {qb[0]:10.4f}..{qb[2]:<9.4f} {change:+8.2%} "
                  f"{decl['bound']:6.0%}  {v}")
        fa = sum(r["failed"] for r in a_recs) / sum(r["attempted"] for r in a_recs)
        fb = sum(r["failed"] for r in b_recs) / sum(r["attempted"] for r in b_recs)
        regress |= fb > fa
        print(f"{workload:<9} {'fail_frac':<16} {fa:11.4f} {'':21} {fb:11.4f} {'':21} "
              f"{'':8} {'0':>6}  {'worse' if fb > fa else 'within bound'}")
    return 1 if regress else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two sets of benchmark records.")
    ap.add_argument("a_dir", help="records of the parent commit")
    ap.add_argument("b_dir", help="records of the change")
    args = ap.parse_args(argv)
    return compare(args.a_dir, args.b_dir)


if __name__ == "__main__":
    sys.exit(main())
