#!/usr/bin/env python3
"""Gate a fresh bench run against the checked-in baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [options]

Reads bench_check's BENCH_check.json (whole checks) or
bench_ordering_ablation's BENCH_ordering.json. Compares every
(family, arm, sift) row present in both files:

  * states must be a finite number in every row of either file (an
    overflowed count is a wrong answer, however equal it compares; the
    JSON writer spells a non-finite number null), and must match
    exactly -- a drifting state count is a correctness bug, not a perf
    regression, and fails regardless of thresholds;
  * peak_live_nodes may grow by at most --peak-threshold (default 25%).
    The kernel is sequential and deterministic, so with
    --exact-sequential-peaks the budget tightens to bit-identical: any
    drift means the kernel's recursion order changed. A whole-check row
    whose baseline tripped its node budget (tripped: true) keeps the
    percentage budget even then: its peak is the cap plus however many
    nodes the kernel made before its next budget poll, which any change
    to node creation order moves either way;
  * with --exact-sequential-peaks, the traversal's shape must match the
    baseline exactly too: passes, images, reorders, the traversal's own
    peak (traversal_peak_live_nodes) and the reached set's peak and final
    sizes (peak_reached_nodes, final_reached_nodes), each one the
    baseline row records (the counts are as deterministic as the peaks,
    and a drift in any of them means the traversal or the sift did
    different work); a field the baseline has and the fresh row lacks
    fails;
  * a whole-check row's outcome -- level, tripped and limit, where the
    baseline records them -- must match exactly, regardless of flags: a
    changed verdict or budget trip is a different answer, not a cost;
  * seconds may grow by at most --time-threshold (default 25%), but only
    for rows whose baseline is at least --min-seconds (default 0.5s):
    shorter rows are timer noise on shared CI runners.

The smoke job runs a family subset of the full baseline, so baseline rows
of families the fresh run does not cover are ignored. Within a covered
family every baseline row must be present in the fresh run: an arm
dropped from the bench binary but left in the baseline fails the gate
instead of shrinking the comparison. Fresh rows without a baseline are
reported but do not fail.

--require-arm NAME (repeatable) fails the gate unless the fresh run
contains at least one row whose arm is exactly NAME: it pins the bench's
arm roster, so an arm silently dropped from both the bench binary and
the baseline still trips CI.

Exit status: 0 when every compared row is within budget, 1 otherwise.
To see the gate trip, inflate any peak_live_nodes value in the baseline's
muller16/mutex12 rows by >25% (or deflate the fresh one) and rerun.
"""

import argparse
import json
import math
import sys


def load_rows(path):
    with open(path) as fh:
        rows = json.load(fh)
    table = {}
    for row in rows:
        key = (row["family"], row["arm"], row["sift"])
        if key in table:
            raise SystemExit(f"{path}: duplicate row {key}")
        table[key] = row
    return table


def fmt(key):
    family, arm, sift = key
    return f"{family} / {arm}" + (" [sift]" if sift else "")


# Counts that --exact-sequential-peaks holds to the baseline.
EXACT_COUNTS = ("passes", "images", "reorders", "traversal_peak_live_nodes",
                "peak_reached_nodes", "final_reached_nodes")
# Whole-check outcomes (BENCH_check.json), always held to the baseline.
EXACT_OUTCOMES = ("level", "tripped", "limit")


def is_finite_number(value):
    """True for a JSON number that is finite (null, a string or a bool is
    not a count)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def direction(base, cur):
    """The drift of an exact gauge as words: "rose 12.5%" / "fell 62%"."""
    if base == 0:
        return "rose from 0" if cur > base else "unchanged"
    change = (cur - base) / base
    word = "rose" if change > 0 else "fell"
    return f"{word} {abs(change):.1%}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--peak-threshold", type=float, default=0.25,
                        help="allowed relative growth of peak_live_nodes")
    parser.add_argument("--time-threshold", type=float, default=0.25,
                        help="allowed relative growth of seconds")
    parser.add_argument("--min-seconds", type=float, default=0.5,
                        help="baseline seconds below which timing is ignored")
    parser.add_argument("--require-arm", action="append", default=[],
                        metavar="NAME",
                        help="fail unless the fresh run has a row for this "
                             "arm (exact match)")
    parser.add_argument("--exact-sequential-peaks", action="store_true",
                        help="require bit-identical peak node counts "
                             "instead of the percentage budget, and "
                             "identical passes, images, reorders, "
                             "traversal peak and reached sizes (the "
                             "sequential kernel is deterministic; any "
                             "drift is a recursion-order change, not "
                             "noise); a row whose baseline tripped its "
                             "node budget keeps the percentage budget "
                             "for its peak")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    fresh = load_rows(args.fresh)

    non_finite = [f"{path}: {fmt(key)} has states "
                  f"{json.dumps(row['states'])}"
                  for path, table in ((args.baseline, baseline),
                                      (args.fresh, fresh))
                  for key, row in sorted(table.items())
                  if not is_finite_number(row["states"])]
    if non_finite:
        print("error: non-finite state count(s):")
        for line in non_finite:
            print(f"  - {line}")
        return 1

    missing_arms = [name for name in args.require_arm
                    if not any(arm == name for _, arm, _ in fresh)]
    if missing_arms:
        print("error: required arm(s) missing from the fresh run: "
              + ", ".join(missing_arms))
        return 1

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print("error: no common rows between baseline and fresh run")
        return 1
    for key in sorted(set(fresh) - set(baseline)):
        print(f"note: row {key} has no baseline; skipping")
    covered = {family for family, _, _ in fresh}
    lost = [key for key in sorted(set(baseline) - set(fresh))
            if key[0] in covered]
    if lost:
        print("error: baseline row(s) missing from the fresh run of a "
              "covered family:")
        for key in lost:
            print(f"  - {fmt(key)}")
        return 1
    failures = []

    print(f"comparing {len(shared)} rows "
          f"(peak +{args.peak_threshold:.0%}, time +{args.time_threshold:.0%} "
          f"over {args.min_seconds}s)")
    for key in shared:
        base, cur = baseline[key], fresh[key]

        changed = [f"{field} {base[field]!r} -> {cur.get(field)!r}"
                   for field in EXACT_OUTCOMES
                   if field in base and base[field] != cur.get(field)]
        if changed:
            failures.append(f"{fmt(key)}: " + ", ".join(changed) +
                            " (a different answer, not perf)")
            print(f"  FAIL  {fmt(key):44s} " + ", ".join(changed))
            continue

        if base["states"] != cur["states"]:
            failures.append(
                f"{fmt(key)}: states changed {base['states']:g} -> "
                f"{cur['states']:g} (correctness, not perf)")
            print(f"  FAIL  {fmt(key):44s} states {base['states']:g} -> "
                  f"{cur['states']:g}")
            continue

        b_peak, c_peak = base["peak_live_nodes"], cur["peak_live_nodes"]
        exact_peak = args.exact_sequential_peaks and not base.get("tripped")
        if exact_peak and b_peak != c_peak:
            failures.append(
                f"{fmt(key)}: peak_live_nodes {b_peak} -> {c_peak} "
                f"({direction(b_peak, c_peak)}; must be bit-identical)")
        else:
            peak_ratio = c_peak / b_peak if b_peak else 1.0
            if peak_ratio > 1.0 + args.peak_threshold:
                failures.append(
                    f"{fmt(key)}: peak_live_nodes {b_peak} -> {c_peak} "
                    f"(+{peak_ratio - 1.0:.1%})")

        if args.exact_sequential_peaks:
            for field in EXACT_COUNTS:
                if field in base and base[field] != cur.get(field):
                    failures.append(
                        f"{fmt(key)}: {field} {base[field]} -> "
                        f"{cur.get(field)} (must be identical)")

        b_sec, c_sec = base["seconds"], cur["seconds"]
        if b_sec >= args.min_seconds:
            time_ratio = c_sec / b_sec
            if time_ratio > 1.0 + args.time_threshold:
                failures.append(
                    f"{fmt(key)}: seconds {b_sec:.3f} -> {c_sec:.3f} "
                    f"(+{time_ratio - 1.0:.1%})")

        marker = "FAIL" if failures and failures[-1].startswith(fmt(key)) else "ok"
        print(f"  {marker:>4}  {fmt(key):44s} peak {b_peak:>9} -> {c_peak:>9}"
              f"  time {b_sec:7.3f}s -> {c_sec:7.3f}s")

    if failures:
        print(f"\n{len(failures)} regression(s) past budget:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nall rows within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
