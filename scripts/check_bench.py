#!/usr/bin/env python3
"""Perf regression gate: compare a fresh perf_gate JSON against the
committed BENCH_core.json baseline.

Usage:
    check_bench.py CURRENT.json [--baseline BENCH_core.json]
                   [--threshold 0.30] [--sections stab,box_intersect,...]

Fails (exit 1) when any gated section's ops_per_sec drops more than
--threshold below the baseline. Two noise-tolerance mechanisms keep CI
honest without flaking:

  * jitter widening via the recorded p50/p99 latency fields: a section
    whose baseline p99/p50 ratio is large is inherently noisy (allocator
    spikes, cache effects at the measured size), so its allowed drop is
    widened proportionally (capped at +20 percentage points);
  * scale awareness: the committed baseline is a FULL-size run while the
    CI smoke runs --small. When the config sizes differ the comparison is
    one-sided sanity only — the small run must not be SLOWER than the
    full-size baseline (smaller working sets are strictly faster on every
    gated path, so dropping below the full-size number means a real,
    catastrophic regression) — and the report says so.

Multi-scale files: both perf_gate and index_scaling emit a "scales" array
(one block per active-set tier, each with its own config + sections). The
tiers are paired positionally — tier i of the current run against tier i
of the baseline — and each pair independently picks two-sided or one-sided
mode from its own configs, so a --small smoke (tiers 2k/6k) gates cleanly
against the full baseline (tiers 100k/1M) without tripping the small-scale
mode for the whole file. Files without "scales" (pre-multi-scale
baselines) fall back to the top-level sections only.

Asymmetry fails loudly: a gated section present in only one file, a tier
present in only one file, or a "scales" block on only one side is an exit-1
failure, never a silent skip — a harness that stops emitting a gated
metric must not pass the gate by omission.

Latency gating: sections in P99_GATED (the broker publish paths) also gate
on p99_ns — same-scale pairs allow threshold + jitter of rise, cross-scale
pairs are one-sided (a smaller run must not have a larger p99).

Absolute ratchets: stab, box_intersect, insert_erase_churn_amortized and
broker_publish throughput at the reference scale (100k actives, 4
attributes, 20k queries) have absolute floors. Any file containing a tier
at exactly that scale — in particular the committed full-size baseline —
must meet the RATCHET_FLOORS, so the trajectory can never silently slide
back below them even if both baseline and current regress together.

Correctness is never noise: gates.oracle_divergences must be 0 in both
files, and every scale block that records index/flat-scan checksums must
have them equal.

Soak artifacts (bench == "soak", every scenario of bench/soak) are
recording-only: a soak's wall clock is not a regression signal (for the
tcp scenario it is kernel-scheduler noise), so nothing is perf-compared
against any baseline. Their correctness gates are hard: the artifact must
have runs, every run's gates_pass must be true, gates.oracle_divergences
must be 0 and gates.pass must be true, or the check exits 1.
"""

import argparse
import json
import math
import os
import sys

DEFAULT_SECTIONS = [
    "stab",
    "box_intersect",
    "insert_erase_churn_amortized",
    "broker_publish",
]
# Sections whose p99 latency is gated alongside throughput: same-scale
# pairs fail when current p99 rises more than threshold + jitter above the
# baseline; cross-scale pairs are one-sided (the smaller run's p99 must not
# exceed the full-size baseline's at all).
P99_GATED = {"broker_publish"}
JITTER_CAP = 0.20  # max extra allowance from latency jitter, absolute

# Minimum ops/sec at REFERENCE_SCALE. stab/box_intersect: 3x the
# pre-vectorization baseline (stab 3792.8, box_intersect 378.6 —
# BENCH_core.json as of the tiered-index PR). insert_erase_churn_amortized:
# 3x the last recorded eager sorted-endpoint index (5968.52), the in-run
# speedup gate it replaces. broker_publish: 5x the old sequential
# routing-table publish (1121.7) — the floor the staged pipeline set, now
# carried by the one publish path (publish lanes). Ratchet upward only.
RATCHET_FLOORS = {
    "stab": 11378.3,
    "box_intersect": 1135.7,
    "insert_erase_churn_amortized": 17905.5,
    "broker_publish": 5608.5,
}
REFERENCE_SCALE = {"actives": 100000, "attributes": 4, "queries": 20000}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"check_bench: cannot read {path}: {error}")


def jitter_allowance(section):
    """Extra allowed drop derived from the baseline's own latency spread."""
    p50 = section.get("p50_ns", 0.0)
    p99 = section.get("p99_ns", 0.0)
    if p50 <= 0 or p99 <= p50:
        return 0.0
    # p99/p50 of 2 -> ~3pp, 4 -> ~6pp, 32 -> capped 20pp.
    return min(JITTER_CAP, 0.03 * math.log2(p99 / p50) / math.log2(2.0))


def same_scale_configs(base_config, cur_config):
    return all(
        base_config.get(key) == cur_config.get(key)
        for key in ("actives", "attributes", "queries", "churn_ops")
    )


def compare_sections(base_config, base_sections, cur_config, cur_sections,
                     gated, threshold, label, rows, failures):
    """Gates `gated` section names of one (baseline, current) config pair;
    missing sections only fail when absent from the CURRENT side of a
    same-name pair (harness sets may legitimately differ per tier)."""
    same_scale = same_scale_configs(base_config, cur_config)
    if not same_scale:
        print(f"check_bench: config sizes differ at {label} "
              f"(baseline actives={base_config.get('actives')}, "
              f"current actives={cur_config.get('actives')}); "
              "applying one-sided scale-aware comparison")
    for name in gated:
        base = base_sections.get(name)
        cur = cur_sections.get(name)
        if base is None or cur is None:
            failures.append(f"{label} section {name}: missing from "
                            f"{'baseline' if base is None else 'current'}")
            continue
        base_ops = base.get("ops_per_sec", 0.0)
        cur_ops = cur.get("ops_per_sec", 0.0)
        if base_ops <= 0:
            failures.append(
                f"{label} section {name}: baseline ops_per_sec is {base_ops}")
            continue
        if same_scale:
            allowed = threshold + jitter_allowance(base)
        else:
            # One-sided cross-scale mode: the smaller run must not be
            # slower than the full-size baseline AT ALL — its working set
            # is strictly smaller, so even matching the baseline already
            # signals a large real regression. No threshold slack here.
            allowed = 0.0
        floor = base_ops * (1.0 - allowed)
        ratio = cur_ops / base_ops
        verdict = "ok" if cur_ops >= floor else "REGRESSION"
        rows.append((f"{name} {label}", base_ops, cur_ops, ratio, allowed,
                     verdict))
        if cur_ops < floor:
            failures.append(
                f"{label} section {name}: {cur_ops:.1f} ops/sec is "
                f"{(1.0 - ratio) * 100.0:.1f}% below baseline "
                f"{base_ops:.1f} (allowed {allowed * 100.0:.0f}%)")
        if name not in P99_GATED:
            continue
        base_p99 = base.get("p99_ns", 0.0)
        cur_p99 = cur.get("p99_ns", 0.0)
        if base_p99 <= 0 or cur_p99 <= 0:
            failures.append(
                f"{label} section {name}: p99_ns missing or non-positive "
                f"(baseline {base_p99}, current {cur_p99})")
            continue
        allowed_rise = threshold + jitter_allowance(base) if same_scale else 0.0
        ceiling = base_p99 * (1.0 + allowed_rise)
        p99_ratio = cur_p99 / base_p99
        p99_verdict = "ok" if cur_p99 <= ceiling else "REGRESSION"
        rows.append((f"{name} p99 {label}", base_p99, cur_p99, p99_ratio,
                     allowed_rise, p99_verdict))
        if cur_p99 > ceiling:
            failures.append(
                f"{label} section {name}: p99 {cur_p99:.1f} ns is "
                f"{(p99_ratio - 1.0) * 100.0:.1f}% above baseline "
                f"{base_p99:.1f} (allowed {allowed_rise * 100.0:.0f}%)")


def check_ratchet(config, sections, label, failures, require_all=False):
    """Absolute floors, applied to every block at exactly REFERENCE_SCALE.

    The primary sections block of a full-size run records every floored
    metric, so it is checked with require_all: a floored section going
    missing there fails loudly rather than silently un-arming its floor.
    Scale-tier blocks record only the index sections (the broker sections
    are primary-only), so floors apply to the sections a tier records.
    """
    if not all(config.get(k) == v for k, v in REFERENCE_SCALE.items()):
        return
    for name, floor in RATCHET_FLOORS.items():
        if name not in sections:
            if require_all:
                failures.append(
                    f"{label} section {name}: missing, so its absolute "
                    f"ratchet floor {floor:.1f} cannot be checked")
            continue
        ops = sections[name].get("ops_per_sec", 0.0)
        if ops < floor:
            failures.append(
                f"{label} section {name}: {ops:.1f} ops/sec is below the "
                f"absolute ratchet floor {floor:.1f} at the reference scale")


def check_checksums(blob, name, failures):
    """index/flat-scan result checksums recorded per scale block must agree."""
    for scale in blob.get("scales", []):
        if "checksum_index" not in scale and "checksum_flat" not in scale:
            continue
        index = scale.get("checksum_index")
        flat = scale.get("checksum_flat")
        if index != flat:
            actives = scale.get("config", {}).get("actives")
            failures.append(
                f"{name} @{actives}: index/flat checksum mismatch "
                f"({index} vs {flat})")


def check_soak(current):
    """Correctness gates of a bench/soak artifact; never perf-compared."""
    scenario = current.get("scenario")
    gates = current.get("gates", {})
    runs = current.get("runs", [])
    failures = []
    if not runs:
        failures.append(f"{scenario} soak artifact has no runs")
    for run in runs:
        if not run.get("gates_pass", False):
            failures.append(f"run {run.get('name')}/{run.get('seed')}: "
                            f"gates_pass false {run.get('failures', [])}")
    divergences = gates.get("oracle_divergences")
    if divergences is None:
        failures.append("missing gates.oracle_divergences")
    elif divergences != 0:
        failures.append(f"{divergences} oracle divergences")
    if not gates.get("pass", False):
        failures.append(f"gates.pass false {gates.get('matrix_failures', [])}")
    if failures:
        print(f"check_bench: FAIL ({scenario} soak correctness gates)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"check_bench: {scenario} soak artifact sound — {len(runs)} runs, "
          "0 oracle divergences. Recording only; soak wall clock is never "
          "perf-gated.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh perf_gate JSON")
    parser.add_argument("--baseline", default="BENCH_core.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max fractional ops/sec drop (default 0.30)")
    parser.add_argument("--sections", default=",".join(DEFAULT_SECTIONS),
                        help="comma-separated gated section names "
                             "(top-level sections block)")
    args = parser.parse_args()

    current = load(args.current)
    if current.get("bench") == "soak":
        sys.exit(check_soak(current))
    if not os.path.exists(args.baseline):
        # First run on a fresh checkout (or a new machine): nothing to gate
        # against yet. Still insist the current file is well-formed and its
        # correctness gates hold — a broken harness must not bootstrap
        # itself into a baseline — then succeed explicitly so CI treats
        # the run as "recording", not "passing by accident".
        failures = []
        divergences = current.get("gates", {}).get("oracle_divergences")
        if divergences is None:
            failures.append("current: missing gates.oracle_divergences")
        elif divergences != 0:
            failures.append(f"current: {divergences} oracle divergences")
        check_checksums(current, "current", failures)
        if failures:
            print("check_bench: FAIL (no baseline, current file unsound)")
            for failure in failures:
                print(f"  - {failure}")
            sys.exit(1)
        print(f"check_bench: no baseline at {args.baseline}; "
              "recording only, nothing gated. Commit the current JSON as "
              "the baseline to arm the gate.")
        sys.exit(0)

    baseline = load(args.baseline)

    failures = []
    for name, blob in (("baseline", baseline), ("current", current)):
        divergences = blob.get("gates", {}).get("oracle_divergences")
        if divergences is None:
            failures.append(f"{name}: missing gates.oracle_divergences")
        elif divergences != 0:
            failures.append(f"{name}: {divergences} oracle divergences")
        check_checksums(blob, name, failures)

    rows = []
    gated = [name for name in args.sections.split(",") if name]
    compare_sections(baseline.get("config", {}), baseline.get("sections", {}),
                     current.get("config", {}), current.get("sections", {}),
                     gated, args.threshold, "(primary)", rows, failures)

    # Scale tiers, paired positionally: perf_gate tiers carry
    # stab/box_intersect/churn, an index_scaling file carries its
    # match_active sections — both flow through the same comparison.
    # Asymmetry is never silently skipped: a tier or a section present on
    # one side only means the two files don't measure the same thing, and a
    # gate that quietly compares the intersection would wave through a
    # harness that stopped emitting a gated metric.
    base_scales = baseline.get("scales", [])
    cur_scales = current.get("scales", [])
    if bool(base_scales) != bool(cur_scales):
        failures.append(
            f"scales block present only in "
            f"{'baseline' if base_scales else 'current'} "
            f"({len(base_scales)} vs {len(cur_scales)} tiers)")
    if base_scales and cur_scales and len(base_scales) != len(cur_scales):
        failures.append(
            f"tier count differs (baseline {len(base_scales)}, "
            f"current {len(cur_scales)}); comparing the common prefix")
    for tier, (base, cur) in enumerate(zip(base_scales, cur_scales)):
        base_sections = base.get("sections", {})
        cur_sections = cur.get("sections", {})
        for name in sorted(set(base_sections) ^ set(cur_sections)):
            failures.append(
                f"tier {tier} section {name}: present only in "
                f"{'baseline' if name in base_sections else 'current'}")
        shared = sorted(set(base_sections) & set(cur_sections))
        if not shared:
            failures.append(f"tier {tier}: no shared sections to gate")
            continue
        compare_sections(base.get("config", {}), base_sections,
                         cur.get("config", {}), cur_sections, shared,
                         args.threshold, f"[tier {tier}]", rows, failures)

    # Absolute ratchets at the reference scale, on BOTH files (the
    # committed baseline must itself stay above the floors).
    for name, blob in (("baseline", baseline), ("current", current)):
        check_ratchet(blob.get("config", {}), blob.get("sections", {}),
                      f"{name} (primary)", failures, require_all=True)
        for scale in blob.get("scales", []):
            actives = scale.get("config", {}).get("actives")
            check_ratchet(scale.get("config", {}), scale.get("sections", {}),
                          f"{name} @{actives}", failures)

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'section':<{width}}  {'baseline':>14}  {'current':>14}  "
          f"{'ratio':>6}  {'allowed_drop':>12}  verdict")
    for name, base_ops, cur_ops, ratio, allowed, verdict in rows:
        print(f"{name:<{width}}  {base_ops:>14.1f}  {cur_ops:>14.1f}  "
              f"{ratio:>6.2f}  {allowed * 100.0:>11.0f}%  {verdict}")

    if failures:
        print("\ncheck_bench: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ncheck_bench: OK — no gated metric regressed beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
