#!/usr/bin/env python3
"""Compare a freshly generated BENCH_*.json against its checked-in baseline.

Usage: compare_bench.py BASELINE FRESH [--tolerance 0.25] [--subset]
                        [--changed FIELD ...]

Entries are matched by (section, label). Every simulated statistic is a pure
function of (config, seed), so every numeric field present in both entries
must match EXACTLY: Q/T/M means, extremes and percentiles, the recovery
counters, events, active_links, the modeled mem_* byte peaks, run counts and
any other deterministic field. So must the `fingerprint` string, a hash over
every run's full report (bench::RepeatStats), which sees a move in any
simulated statistic, not just the ones the entry summarizes. The only
exceptions are the values measured on the machine that ran the bench:

  * mem_unattributed_frac is gated as an ABSOLUTE difference within
    --tolerance (the fraction sits near 0 on healthy runs, where a relative
    gate is meaningless);
  * wall_ms and rss_mb are printed with their relative drift but never gate:
    they depend on the machine and build type, and the committed baseline
    need not come from the machine running the comparison.

`failures` must not increase (a drop is an improvement). A change that moves
deterministic fields on purpose declares each one with --changed FIELD: its
differences are then listed as declared changes instead of regressions. A
declared field that moved nowhere is noted, so stale declarations show.
Other non-numeric fields (e.g. the rss_mechanism tag) are skipped, and a
field present on one side only is skipped too, so baselines written before a
field existed keep working.

Entries present only in the baseline are errors (a silently dropped series is
a regression); entries only in the fresh file are reported but allowed (new
series land with their PR). With --subset, baseline-only entries become notes
instead of errors: the fresh run is allowed to cover a prefix of the baseline
(CI runs the scale sweep capped at small k via ASYNCDR_SCALE_MAX_K; the
committed baseline carries the full sweep).

Exit status: 0 = no regression, 1 = regression, 2 = usage/parse error.
"""

import argparse
import json
import sys

# Measured on the bench machine: shown with their drift, never gated.
MEASURED_FIELDS = ("wall_ms", "rss_mb")
# Measured, but machine-independent in meaning: absolute bound.
MEM_FRAC_METRIC = "mem_unattributed_frac"
# The one string field gated exactly: a hash over every run's report.
FINGERPRINT = "fingerprint"


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def fmt(x):
    """Renders a value exactly: integral values without exponent or '.0'."""
    return str(int(x)) if x.is_integer() else repr(x)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "asyncdr-bench-v1":
        print(f"error: {path} is not an asyncdr-bench-v1 file", file=sys.stderr)
        sys.exit(2)
    # Benches may record one (section, label) across several entries (one
    # field each, e.g. bench_scale's S1-substrate events and active_links):
    # merge them, so no field hides behind a later entry with the same key.
    entries = {}
    for e in doc.get("entries", []):
        entries.setdefault((e.get("section", ""), e.get("label", "")),
                           {}).update(e)
    return doc.get("bench", "?"), entries


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="absolute bound on the mem_unattributed_frac drift "
                         "(default 0.25)")
    ap.add_argument("--subset", action="store_true",
                    help="allow the fresh run to cover only a subset of the "
                         "baseline entries (capped sweeps in CI)")
    ap.add_argument("--changed", action="append", default=[],
                    metavar="FIELD",
                    help="a deterministic field this change moves on purpose "
                         "(repeatable); its differences are listed, not "
                         "gated")
    args = ap.parse_args()
    declared = set(args.changed)
    for field in sorted(declared):
        if field in MEASURED_FIELDS or field == MEM_FRAC_METRIC:
            print(f"error: --changed {field}: measured fields are not gated "
                  f"exactly", file=sys.stderr)
            sys.exit(2)

    name, base = load(args.baseline)
    _, fresh = load(args.fresh)

    problems = []
    changes = []
    moved = set()
    checked = 0
    for key, be in sorted(base.items()):
        fe = fresh.get(key)
        if fe is None:
            if args.subset:
                print(f"note: baseline entry not in this capped run: {key}")
            else:
                problems.append(
                    f"{key}: present in baseline, missing in fresh run")
            continue
        for field in sorted(set(be) & set(fe)):
            if field == FINGERPRINT:
                checked += 1
                b, f = be[field], fe[field]
                if b == f:
                    continue
                if field in declared:
                    moved.add(field)
                    changes.append(f"{key}: {field} {b} -> {f}")
                else:
                    problems.append(
                        f"{key}: {field} {b} -> {f} (a simulated statistic "
                        f"moved; declare a deliberate move with --changed "
                        f"{field})")
                continue
            if not (is_number(be[field]) and is_number(fe[field])):
                continue
            b, f = float(be[field]), float(fe[field])
            checked += 1
            if field in MEASURED_FIELDS:
                drift = 100 * (f - b) / max(abs(b), 1e-9)
                print(f"measured: {key}: {field} {fmt(b)} -> {fmt(f)} "
                      f"({drift:+.1f}%, not gated)")
            elif field == MEM_FRAC_METRIC:
                diff = abs(f - b)
                if diff > args.tolerance:
                    problems.append(
                        f"{key}: {field} {fmt(b)} -> {fmt(f)} "
                        f"(absolute drift {diff:.3f} > {args.tolerance:g})")
            elif field == "failures":
                if f > b:
                    problems.append(
                        f"{key}: failures rose {fmt(b)} -> {fmt(f)}")
            elif f != b:
                if field in declared:
                    moved.add(field)
                    changes.append(f"{key}: {field} {fmt(b)} -> {fmt(f)}")
                else:
                    problems.append(
                        f"{key}: {field} {fmt(b)} -> {fmt(f)} (exact field; "
                        f"declare a deliberate move with --changed {field})")

    new_only = sorted(set(fresh) - set(base))
    for key in new_only:
        print(f"note: new entry (not in baseline): {key}")
    for field in sorted(declared - moved):
        print(f"note: --changed {field} declared, but it did not move")

    print(f"{name}: compared {checked} metric(s) across {len(base)} "
          f"entr{'y' if len(base) == 1 else 'ies'}, "
          f"{len(changes)} declared change(s), {len(problems)} problem(s)")
    for c in changes:
        print(f"CHANGED {c}")
    for p in problems:
        print(f"REGRESSION {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
