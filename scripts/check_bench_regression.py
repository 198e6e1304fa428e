#!/usr/bin/env python3
"""Compare two BENCH_<spec>.json artifacts for wall-time regressions.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json \
        [--tolerance 2.0] [--floor-seconds 0.001]

The two artifacts must come from the same spec.  Rows are grouped by their
identity columns (micro specs: bench + param; grid specs: solver + p + z)
and the group wall times are compared as CURRENT / BASELINE ratios.

The check is deliberately generous -- it exists to catch order-of-magnitude
regressions on shared CI runners, not single-digit percentages:
  * a group only fails when CURRENT > tolerance * speed * max(BASELINE,
    floor), where speed is 1.0 by default;
  * with --calibrate, speed is the median CURRENT/BASELINE ratio over the
    *anchor* groups only (--anchor-pattern, default: the DES and gemm
    micros).  Anchors measure the machine, not the code this gate guards:
    calibrating on all groups would let a uniform slowdown of the guarded
    code (e.g. the exact simplex) masquerade as machine speed.  When no
    anchor group qualifies, the factor stays 1.0;
  * the floor keeps sub-millisecond groups (dominated by timer and
    scheduler noise) from flaking the gate;
  * groups present in only one artifact are reported but never fail.

Rows that carry an `lp_pivots` column (grid rows; the simplex pivot count
of the final LP) are additionally compared *exactly*: pivot counts are
deterministic for a given spec, so any increase over the baseline is a
code regression -- no tolerance, no calibration.  Disable with
--no-pivot-check when intentionally changing pivot rules.

The subset-scan counters subsets_pruned / subsets_screened are compared
exactly against the baseline (per-group sums, any difference fails): the
knapsack-bound pruning and the double-LP screen are deterministic, and a
change in either count means the scan's work profile changed.  And the
default subset scan (affine_subset_select) must spend strictly fewer
pivots than its affine_subset_cold twin (pruning and screening off) at
the same param: a scan whose pruning or screening silently stopped firing
keeps wall times plausible while losing exactly this margin.

Exit status: 0 when no group regressed, 1 otherwise, 2 on usage errors.
"""

import argparse
import json
import re
import sys


def load_rows(path):
    with open(path) as handle:
        doc = json.load(handle)
    spec = doc.get("spec", {})
    return spec, doc.get("rows", [])


def group_key(row):
    """Identity of a row within its spec (everything but measurements)."""
    if "bench" in row:  # micro spec
        return (row["bench"], row.get("param"))
    return (row.get("solver"), row.get("p"), row.get("z"))


SCAN_COUNTERS = ("subsets_pruned", "subsets_screened")


def group_counter_sums(rows, column):
    """Group key -> summed `column` over solved rows that carry it."""
    sums = {}
    for row in rows:
        if row.get("solved") is False or column not in row:
            continue
        key = group_key(row)
        sums[key] = sums.get(key, 0) + int(row[column])
    return sums


def scan_counter_failures(base_rows, cur_rows):
    """Exact comparison of the pruning / screening counters on the groups
    both artifacts carry; returns failure strings."""
    failures = []
    for column in SCAN_COUNTERS:
        base = group_counter_sums(base_rows, column)
        cur = group_counter_sums(cur_rows, column)
        for key in sorted((k for k in cur if k in base), key=str):
            if cur[key] != base[key]:
                failures.append(
                    f"{key}: {column} {base[key]} -> {cur[key]}")
    return failures


def cold_twin_failures(rows):
    """The default subset scan must spend strictly fewer pivots than its
    affine_subset_cold twin at the same param.  Only fires on specs that
    carry both benches (micro_substrate); returns failure strings."""
    failures = []
    cold_pivots = {}
    for row in rows:
        if row.get("bench") == "affine_subset_cold" and "lp_pivots" in row:
            cold_pivots[row.get("param")] = int(row["lp_pivots"])
    for row in rows:
        if row.get("bench") != "affine_subset_select":
            continue
        cold = cold_pivots.get(row.get("param"))
        if cold is None:
            continue
        if "lp_pivots" not in row or int(row["lp_pivots"]) >= cold:
            failures.append(
                f"('affine_subset_select', {row.get('param')}): lp_pivots "
                f"{row.get('lp_pivots')} not strictly below the cold "
                f"twin's {cold}")
    return failures


def group_wall_times(rows):
    """Group key -> mean wall seconds (micro rows use wall_min_seconds:
    the repetition minimum is the stable, noise-resistant statistic the
    micro runner already computes)."""
    sums, counts = {}, {}
    for row in rows:
        if row.get("solved") is False:
            continue
        if "wall_min_seconds" in row:
            wall = row["wall_min_seconds"]
        elif "wall_seconds" in row:
            wall = row["wall_seconds"]
        else:
            continue
        key = group_key(row)
        sums[key] = sums.get(key, 0.0) + wall
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="fail when current > tolerance * baseline "
                             "(default: 2.0)")
    parser.add_argument("--floor-seconds", type=float, default=0.001,
                        help="baselines below this are clamped up to it, so "
                             "timer-noise groups cannot flake (default: 1ms)")
    parser.add_argument("--calibrate", action="store_true",
                        help="normalize by the median current/baseline ratio "
                             "over the anchor groups (machine-speed factor), "
                             "so baselines recorded on different hardware "
                             "still gate correctly")
    parser.add_argument("--anchor-pattern",
                        default="engine_events|gemm|des_execute",
                        help="regex selecting the machine-speed anchor "
                             "groups; anchors must not exercise the code "
                             "this gate guards (default: DES + gemm micros)")
    parser.add_argument("--no-pivot-check", action="store_true",
                        help="skip the exact lp_pivots comparison (use when "
                             "intentionally changing pivot rules)")
    args = parser.parse_args()

    base_spec, base_rows = load_rows(args.baseline)
    cur_spec, cur_rows = load_rows(args.current)
    if base_spec.get("name") != cur_spec.get("name"):
        print(f"error: spec mismatch: baseline is "
              f"'{base_spec.get('name')}', current is '{cur_spec.get('name')}'")
        return 2

    baseline = group_wall_times(base_rows)
    current = group_wall_times(cur_rows)

    speed = 1.0
    if args.calibrate:
        # Anchors use half the floor as their qualification bar (they are
        # chosen for stability, and e.g. the sub-ms gemm rows are still a
        # clean speed signal), but both sides must clear it: floor-clamped
        # microsecond groups would poison the median with timer noise.
        anchor = re.compile(args.anchor_pattern)
        bar = args.floor_seconds / 2.0
        anchor_ratios = sorted(
            current[key] / baseline[key]
            for key in current
            if key in baseline and anchor.search(str(key)) and
            baseline[key] >= bar and current[key] >= bar)
        if anchor_ratios:
            mid = len(anchor_ratios) // 2
            speed = (anchor_ratios[mid] if len(anchor_ratios) % 2
                     else (anchor_ratios[mid - 1] + anchor_ratios[mid]) / 2)
            print(f"machine-speed calibration: median ratio {speed:.3f} "
                  f"over {len(anchor_ratios)} anchor group(s)\n")
        else:
            print("machine-speed calibration: no qualifying anchor groups; "
                  "factor stays 1.0\n")

    regressions = []
    width = max((len(str(k)) for k in current), default=10)
    print(f"{'group'.ljust(width)}  baseline_s    current_s     ratio")
    for key in sorted(current, key=str):
        cur = current[key]
        if key not in baseline:
            print(f"{str(key).ljust(width)}  {'-':>12}  {cur:12.6f}  (new group)")
            continue
        base = baseline[key]
        effective = max(base, args.floor_seconds) * speed
        ratio = cur / effective
        flag = ""
        if cur > args.tolerance * effective:
            regressions.append((key, base, cur, ratio))
            flag = "  << REGRESSION"
        print(f"{str(key).ljust(width)}  {base:12.6f}  {cur:12.6f}  "
              f"{ratio:8.3f}{flag}")
    for key in sorted(set(baseline) - set(current), key=str):
        print(f"{str(key).ljust(width)}  {baseline[key]:12.6f}  "
              f"{'-':>12}  (group disappeared)")

    pivot_regressions = []
    if not args.no_pivot_check:
        # Reps within a group have distinct seeds, but the set of reps is
        # fixed by the spec, so the per-group sum is deterministic.
        base_pivots = group_counter_sums(base_rows, "lp_pivots")
        cur_pivots = group_counter_sums(cur_rows, "lp_pivots")
        shared = sorted((k for k in cur_pivots if k in base_pivots), key=str)
        if shared:
            print("\npivot counts (deterministic; current > baseline fails):")
            for key in shared:
                flag = ""
                if cur_pivots[key] > base_pivots[key]:
                    pivot_regressions.append(
                        (key, base_pivots[key], cur_pivots[key]))
                    flag = "  << PIVOT REGRESSION"
                print(f"  {str(key).ljust(width)}  {base_pivots[key]:>8} -> "
                      f"{cur_pivots[key]:>8}{flag}")

    scan_failures = (scan_counter_failures(base_rows, cur_rows) +
                     cold_twin_failures(cur_rows))
    if scan_failures:
        print(f"\n{len(scan_failures)} subset-scan assertion(s) failed:")
        for failure in scan_failures:
            print(f"  {failure}")

    if regressions:
        print(f"\n{len(regressions)} group(s) regressed beyond "
              f"{args.tolerance}x (floor {args.floor_seconds}s):")
        for key, base, cur, ratio in regressions:
            print(f"  {key}: {base:.6f}s -> {cur:.6f}s ({ratio:.2f}x)")
    if pivot_regressions:
        print(f"\n{len(pivot_regressions)} group(s) increased their exact "
              f"pivot count:")
        for key, base, cur in pivot_regressions:
            print(f"  {key}: {base} -> {cur} pivots")
    if regressions or pivot_regressions or scan_failures:
        return 1
    print(f"\nno regressions beyond {args.tolerance}x "
          f"({len(current)} group(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
