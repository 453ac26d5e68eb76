#!/usr/bin/env python3
"""Diff two benchmark metrics JSON files (e.g. BENCH_hac.json runs).

Walks both documents, aligns numeric leaves by their JSON path, and
prints old -> new with absolute and relative deltas. Array elements that
carry an identifying key (entities, threads) are aligned by that key
rather than by index, so a run with an extra size row still lines up.

Leaves split into two classes with different CI semantics:

  * identity leaves (rounds, merges, edges) —
    counters that are a pure function of the input and the algorithm.
    Any change means the candidate run is computing something different
    from the baseline, which is a hard failure, never machine noise.
  * timing leaves (everything else, *_seconds in particular) — vary
    with runner hardware, so the diff is informational unless an
    explicit --fail_above bound is requested.

A third mode, `--mode latency`, gates serving-latency coverage: every
quantile leaf (p50_us/p90_us/p99_us/p999_us) present in the baseline
must still be reported by the candidate — a harness change that stops
reporting tail quantiles is a coverage regression even when nothing got
slower. Quantile *values* vary with runner hardware, so they diff
informationally unless --latency_fail_above bounds the allowed growth.

A fourth mode, `--mode incremental`, gates the taxonomy daemon's
update-vs-rebuild contract in BENCH_incremental.json runs: every
stability and speedup leaf present in the baseline must still be
reported by the candidate (coverage), every candidate stability leaf —
tier minima and per-cycle values alike — must stay at or above
--min_stability, and every candidate speedup leaf at a size tier of at
least --speedup_min_entities entities must stay at or above
--min_speedup (smaller tiers diff informationally: fixed per-cycle
costs dominate tiny windows, so the paper-scale claim is gated where
it is meaningful). Stability is deterministic (seeded drift workload,
bit-identical topic comparison), so a drop below the floor is an
algorithmic regression; speedup is a wall-clock ratio whose noise is
shared between numerator and denominator, so the floor is set well
below the committed value. The companion counters (delta_entries,
dirty_entities, *_topics, graph_identical, thread_identical) are
identity leaves and gate under --mode identity.

Usage: perf_diff.py OLD.json NEW.json
           [--mode all|identity|timing|latency|incremental]

Exit codes: 0 clean; 1 identity mismatch (modes all/identity) or a
timing regression beyond --fail_above; 2 usage/IO errors (argparse);
4 missing quantile coverage or a latency regression beyond --latency_fail_above (mode
latency); 6 missing stability/speedup coverage, stability below
--min_stability, or gated speedup below --min_speedup (mode
incremental).
"""

import argparse
import json
import re
import sys

# Keys that identify an array element (checked in order).
_ID_KEYS = ("entities", "threads", "name", "bench", "day")

# Leaves where a change is identity-relevant, not perf-relevant: a
# changed merge count means the run is not comparable at all. For
# serving runs (BENCH_serving.json) the same applies to error counts
# and the served artefact version — a candidate that errors or serves a
# different index version is not a timing data point; and because
# endpoint rows are keyed by "name", a missing endpoint surfaces as a
# missing identity leaf rather than silently shrinking the diff.
# crossover_entities reports which baseline-table size (if any) first
# has parallel at or below sequential — part of the committed run
# identity, so drift is a gate failure, not a perf footnote.
_INVARIANT_KEYS = {"rounds", "merges", "edges", "errors", "index_version",
                   "crossover_entities",
                   # bench_incremental daemon-cycle counters: the drift
                   # workload is seeded and every maintenance stage is
                   # deterministic, so these are pure functions of the
                   # committed flags on any machine.
                   "delta_entries", "dirty_entities", "num_topics",
                   "touched_topics", "carried_topics", "untouched_topics",
                   "stable_topics", "graph_identical", "thread_identical"}

# Leaves the `latency` mode gates: the coordinated-omission-safe
# quantiles the serving harness must keep reporting.
_LATENCY_GATE_KEYS = {"p50_us", "p90_us", "p99_us", "p999_us"}

# Leaves the `incremental` mode gates (see module docstring).
_INCREMENTAL_GATE_KEYS = {"stability", "speedup"}


def _element_key(value, index):
    if isinstance(value, dict):
        for key in _ID_KEYS:
            if key in value:
                return f"{key}={value[key]}"
    return f"[{index}]"


def flatten(value, prefix=""):
    """Yields (path, number) for every numeric leaf."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], f"{prefix}/{key}")
    elif isinstance(value, list):
        for index, element in enumerate(value):
            yield from flatten(element,
                               f"{prefix}/{_element_key(element, index)}")
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        yield prefix, float(value)


def _is_identity(path):
    return path.rsplit("/", 1)[-1] in _INVARIANT_KEYS


def check_identity(old, new):
    """Returns a list of human-readable identity violations."""
    problems = []
    identity_paths = sorted(p for p in set(old) | set(new) if _is_identity(p))
    for path in identity_paths:
        if path not in new:
            problems.append(f"{path}: missing from candidate "
                            f"(baseline {old[path]:g})")
        elif path not in old:
            problems.append(f"{path}: missing from baseline "
                            f"(candidate {new[path]:g})")
        elif old[path] != new[path]:
            problems.append(f"{path}: {old[path]:g} -> {new[path]:g}")
    return problems


def check_latency(old, new, fail_above, gate_quantiles=None, floor_us=0.0):
    """Returns (coverage_problems, regressions, info_rows) for quantiles.

    Coverage (every baseline quantile leaf must survive) always gates all
    of _LATENCY_GATE_KEYS. Growth gating applies only to `gate_quantiles`
    when given — on shared runners, high quantiles of a few thousand
    open-loop samples swing orders of magnitude on a single scheduler
    stall, while medians stay within a few percent, so CI gates the
    stable quantiles hard and keeps the tails informational. `floor_us`
    additionally waives growth while the candidate value stays below an
    absolute bound: a tail that "regressed" to a few ms is runner noise,
    one that regressed past the floor is an event-loop stall.
    """
    gate_paths = sorted(
        p for p in set(old) | set(new)
        if p.rsplit("/", 1)[-1] in _LATENCY_GATE_KEYS)
    coverage, regressions, rows = [], [], []
    for path in gate_paths:
        if path not in new:
            coverage.append(f"{path}: missing from candidate "
                            f"(baseline {old[path]:g})")
            continue
        if path not in old:
            rows.append(f"{path}: new coverage = {new[path]:g}")
            continue
        before, after = old[path], new[path]
        pct = ((after - before) / before * 100.0) if before else 0.0
        rows.append(f"{path}: {before:g} -> {after:g} ({pct:+.1f}%)")
        gated = (gate_quantiles is None
                 or path.rsplit("/", 1)[-1] in gate_quantiles)
        if (gated and fail_above is not None and pct > fail_above
                and after >= floor_us):
            regressions.append(f"{path}: {before:g} -> {after:g} "
                               f"({pct:+.1f}% > {fail_above:.1f}%)")
    return coverage, regressions, rows


def _path_entities(path):
    """Returns the entities=N tier a leaf belongs to, or None."""
    match = re.search(r"entities=(\d+)", path)
    return int(match.group(1)) if match else None


def check_incremental(old, new, min_stability, min_speedup,
                      speedup_min_entities):
    """Returns (coverage_problems, floor_problems, info_rows).

    Coverage: every baseline stability/speedup leaf must survive in the
    candidate — a bench change that stops measuring a tier or a cycle is
    a regression even if the surviving leaves pass. Floors: every
    candidate stability leaf must be >= min_stability; every candidate
    speedup leaf whose path sits under an entities=N tier with
    N >= speedup_min_entities must be >= min_speedup (smaller tiers are
    informational — see module docstring).
    """
    gate_paths = sorted(
        p for p in set(old) | set(new)
        if p.rsplit("/", 1)[-1] in _INCREMENTAL_GATE_KEYS)
    coverage, floors, rows = [], [], []
    for path in gate_paths:
        if path not in new:
            coverage.append(f"{path}: missing from candidate "
                            f"(baseline {old[path]:g})")
            continue
        value = new[path]
        if path in old:
            rows.append(f"{path}: {old[path]:g} -> {value:g}")
        else:
            rows.append(f"{path}: new coverage = {value:g}")
        leaf = path.rsplit("/", 1)[-1]
        if leaf == "stability":
            if value < min_stability:
                floors.append(f"{path}: {value:g} < {min_stability:g}")
        elif leaf == "speedup":
            tier = _path_entities(path)
            if tier is not None and tier >= speedup_min_entities:
                if value < min_speedup:
                    floors.append(f"{path}: {value:g} < {min_speedup:g} "
                                  f"(gated: {tier} entities)")
            else:
                rows.append(f"{path}: informational "
                            f"(tier below {speedup_min_entities} entities)")
    return coverage, floors, rows


def diff_timing(old, new, threshold):
    """Returns (rows, only_old, only_new, worst_seconds_regression_pct)."""
    shared = sorted(set(old) & set(new))
    worst_regression = 0.0
    rows = []
    for path in shared:
        if _is_identity(path):
            continue
        before, after = old[path], new[path]
        delta = after - before
        pct = (delta / before * 100.0) if before else float("inf")
        if "seconds" in path.rsplit("/", 1)[-1]:
            worst_regression = max(worst_regression, pct)
        if delta == 0 or abs(pct) < threshold:
            continue
        rows.append((path, before, after, delta, pct))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    return rows, only_old, only_new, worst_regression


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline metrics JSON")
    parser.add_argument("new", help="candidate metrics JSON")
    parser.add_argument("--mode",
                        choices=("all", "identity", "timing", "latency",
                                 "incremental"),
                        default="all",
                        help="identity: hard-fail determinism check only; "
                             "timing: informational perf diff only; "
                             "all: both (default); latency: gate "
                             "p50/p90/p99/p999_us coverage and optional "
                             "regressions (exit 4); incremental: gate "
                             "stability/speedup coverage and the "
                             "--min_stability/--min_speedup floors "
                             "(exit 6)")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="suppress timing rows whose |delta| is below "
                             "this percent (default 2)")
    parser.add_argument("--fail_above", type=float, default=None,
                        help="exit 1 if any *_seconds leaf regresses by "
                             "more than this percent (timing/all modes)")
    parser.add_argument("--latency_fail_above", type=float, default=None,
                        help="latency mode: exit 4 if any gated quantile "
                             "grows by more than this percent (default: "
                             "values diff informationally)")
    parser.add_argument("--latency_gate_quantiles", default=None,
                        help="latency mode: comma-separated quantile keys "
                             "(e.g. p50_us,p90_us) the growth gate applies "
                             "to; others stay informational. Coverage is "
                             "always checked for all quantiles. Default: "
                             "gate every quantile")
    parser.add_argument("--latency_floor_us", type=float, default=0.0,
                        help="latency mode: waive a growth regression while "
                             "the candidate value stays below this many "
                             "microseconds (default 0 = never waive)")
    parser.add_argument("--min_stability", type=float, default=0.95,
                        help="incremental mode: exit 6 if any candidate "
                             "stability leaf is below this floor "
                             "(default 0.95)")
    parser.add_argument("--min_speedup", type=float, default=5.0,
                        help="incremental mode: exit 6 if any candidate "
                             "speedup leaf at a gated size tier is below "
                             "this floor (default 5)")
    parser.add_argument("--speedup_min_entities", type=int, default=20000,
                        help="incremental mode: gate the --min_speedup "
                             "floor only at size tiers with at least this "
                             "many entities; smaller tiers diff "
                             "informationally (default 20000)")
    args = parser.parse_args()

    with open(args.old) as f:
        old = dict(flatten(json.load(f)))
    with open(args.new) as f:
        new = dict(flatten(json.load(f)))

    failed = False

    if args.mode == "latency":
        gate_quantiles = None
        if args.latency_gate_quantiles is not None:
            gate_quantiles = {
                key.strip() for key in
                args.latency_gate_quantiles.split(",") if key.strip()}
        coverage, regressions, rows = check_latency(
            old, new, args.latency_fail_above, gate_quantiles,
            args.latency_floor_us)
        for row in rows:
            print(f"  {row}")
        if coverage:
            print("LATENCY COVERAGE REGRESSION — quantile leaves "
                  "disappeared from the candidate:")
            for problem in coverage:
                print(f"  {problem}")
            return 4
        if regressions:
            print("LATENCY REGRESSION — quantiles grew beyond "
                  f"{args.latency_fail_above:.1f}%:")
            for problem in regressions:
                print(f"  {problem}")
            return 4
        gated = sum(1 for p in old
                    if p.rsplit("/", 1)[-1] in _LATENCY_GATE_KEYS)
        print(f"latency: {gated} quantile leaves covered")
        return 0

    if args.mode == "incremental":
        coverage, floors, rows = check_incremental(
            old, new, args.min_stability, args.min_speedup,
            args.speedup_min_entities)
        for row in rows:
            print(f"  {row}")
        if coverage:
            print("INCREMENTAL COVERAGE REGRESSION — stability/speedup "
                  "leaves disappeared from the candidate:")
            for problem in coverage:
                print(f"  {problem}")
            return 6
        if floors:
            print(f"INCREMENTAL REGRESSION — floors violated "
                  f"(stability >= {args.min_stability:g}, gated speedup "
                  f">= {args.min_speedup:g}):")
            for problem in floors:
                print(f"  {problem}")
            return 6
        gated = sum(1 for p in new
                    if p.rsplit("/", 1)[-1] in _INCREMENTAL_GATE_KEYS)
        print(f"incremental: {gated} leaves within floors "
              f"(stability >= {args.min_stability:g}, speedup >= "
              f"{args.min_speedup:g} at >= {args.speedup_min_entities} "
              f"entities)")
        return 0

    if args.mode in ("all", "identity"):
        problems = check_identity(old, new)
        if problems:
            print("IDENTITY MISMATCH — run-identity leaves differ:")
            for problem in problems:
                print(f"  {problem}")
            failed = True
        else:
            identity_count = sum(1 for p in old if _is_identity(p))
            print(f"identity: {identity_count} leaves match")

    if args.mode in ("all", "timing"):
        rows, only_old, only_new, worst = diff_timing(
            old, new, args.threshold)
        shared = len(set(old) & set(new))
        print(f"{shared} aligned leaves; "
              f"{len(rows)} changed beyond {args.threshold:.1f}%")
        for path, before, after, delta, pct in rows:
            print(f"  {path}: {before:g} -> {after:g}  "
                  f"({delta:+g}, {pct:+.1f}%)")
        for path in only_old:
            print(f"  removed: {path} (was {old[path]:g})")
        for path in only_new:
            print(f"  added: {path} = {new[path]:g}")
        if args.fail_above is not None and worst > args.fail_above:
            print(f"FAIL: worst seconds regression {worst:+.1f}% "
                  f"exceeds {args.fail_above:.1f}%")
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
