#!/usr/bin/env python3
"""Diff two EPCC artifact snapshots (bench/artifacts/*.json).

Prints a per-directive table of overhead deltas (absolute and relative)
between a baseline and a candidate snapshot, so cross-PR regressions are
visible from the committed artifacts instead of being re-measured by hand.

    python3 bench/diff_artifacts.py bench/artifacts/epcc_before.json \
                                    bench/artifacts/epcc_after.json

Informational by default (always exits 0).  With --threshold PCT it exits 1
when any directive's overhead regressed by more than PCT percent — CI keeps
it informational, release checklists can tighten it.

Also understands analyze_trace.py --json artifacts: unknown sections are
skipped, and when both sides carry a trace_summary with a fork critical
path, the mean fork-critical-path delta is printed after the table.

serverbench artifacts additionally carry a "tenants" map (per tenant
count: p50/p95/p99 dispatch latency and throughput); when both sides have
one, a per-tenant table with those columns is printed, and the latency
percentiles participate in --threshold regression accounting (throughput
does not: higher is better, and the curve is load-sensitive).

Live-monitor streams (OMPMCA_MONITOR=... JSON Lines, one sample object per
line with "monitor": "ompmca") are detected automatically: when both inputs
are monitor streams the diff is over time instead of over directives — per
histogram, the mean p99 across all ticks it appeared in, plus a
stall-count delta line.  The p99 means participate in --threshold.
"""

import argparse
import json
import sys


def load_artifact(path):
    """Returns (meta, overheads, trace_summary, tenants) for any artifact.

    Unknown sections are ignored; an artifact without an 'overheads' map
    (e.g. an analyze_trace.py trace-summary) yields an empty table instead
    of a hard exit, so mixed-flavour diffs degrade gracefully.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"diff_artifacts: cannot read {path}: {e}")
    if not isinstance(doc, dict):
        sys.exit(
            f"diff_artifacts: {path} is not an artifact object "
            f"(top-level {type(doc).__name__})"
        )
    overheads = doc.get("overheads")
    if not isinstance(overheads, dict):
        overheads = {}
    for key, entry in overheads.items():
        if not isinstance(entry, dict):
            sys.exit(
                f"diff_artifacts: {path}: entry {key!r} is not an object "
                f"(truncated artifact?)"
            )
        v = entry.get("overhead_us")
        if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
            sys.exit(
                f"diff_artifacts: {path}: entry {key!r} has non-numeric "
                f"overhead_us ({v!r})"
            )
    meta = doc.get("_meta", {})
    if not isinstance(meta, dict):
        meta = {}
    trace_summary = doc.get("trace_summary")
    if not isinstance(trace_summary, dict):
        trace_summary = None
    tenants = doc.get("tenants")
    if not isinstance(tenants, dict):
        tenants = None
    elif any(not isinstance(entry, dict) for entry in tenants.values()):
        sys.exit(f"diff_artifacts: {path}: malformed 'tenants' section")
    return meta, overheads, trace_summary, tenants


def load_monitor_stream(path):
    """Returns the list of monitor samples if @p path is a monitor JSONL
    stream (every non-empty line a {"monitor": "ompmca", ...} object),
    else None."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError:
        return None
    if not lines:
        return None
    samples = []
    for ln in lines:
        try:
            doc = json.loads(ln)
        except ValueError:
            return None
        if not isinstance(doc, dict) or doc.get("monitor") != "ompmca":
            return None
        samples.append(doc)
    return samples


def monitor_p99_means(samples):
    """{hist name: mean p99_ns across the ticks it appeared in}."""
    sums, counts = {}, {}
    for s in samples:
        hists = s.get("hists")
        if not isinstance(hists, dict):
            continue
        for name, entry in hists.items():
            p99 = entry.get("p99_ns") if isinstance(entry, dict) else None
            if isinstance(p99, bool) or not isinstance(p99, (int, float)):
                continue
            sums[name] = sums.get(name, 0.0) + p99
            counts[name] = counts.get(name, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def monitor_stalls(samples):
    """Final cumulative stall count in a monitor stream."""
    for s in reversed(samples):
        n = s.get("stalls_total")
        if not isinstance(n, bool) and isinstance(n, int):
            return n
    return 0


def diff_monitor_streams(base_path, cand_path, base_s, cand_s, threshold):
    """p99-over-time diff between two monitor JSONL streams."""
    print(f"baseline : {base_path} ({len(base_s)} ticks)")
    print(f"candidate: {cand_path} ({len(cand_s)} ticks)")
    print()
    base_p99 = monitor_p99_means(base_s)
    cand_p99 = monitor_p99_means(cand_s)
    header = (
        f"{'histogram (mean p99 over ticks)':<34} {'base_us':>9} "
        f"{'cand_us':>9} {'delta_us':>9} {'delta_%':>8}"
    )
    print(header)
    print("-" * len(header))
    worst_pct, worst_key = 0.0, None
    keys = [k for k in base_p99 if k in cand_p99]
    keys += [k for k in cand_p99 if k not in base_p99]
    for key in keys:
        b, c = base_p99.get(key), cand_p99.get(key)
        if b is None or c is None:
            side = "baseline" if c is None else "candidate"
            print(f"{key:<34} {'(only in ' + side + ')':>38}")
            continue
        b_us, c_us = b / 1e3, c / 1e3
        delta = c_us - b_us
        if b_us:
            pct = delta / b_us * 100.0
            print(
                f"{key:<34} {fmt_us(b_us)} {fmt_us(c_us)} {fmt_us(delta)} "
                f"{pct:7.1f}%"
            )
            if pct > worst_pct:
                worst_pct, worst_key = pct, key
        else:
            print(
                f"{key:<34} {fmt_us(b_us)} {fmt_us(c_us)} {fmt_us(delta)} "
                f"{'n/a':>8}"
            )
    b_stalls, c_stalls = monitor_stalls(base_s), monitor_stalls(cand_s)
    print()
    print(
        f"stalls detected: {b_stalls} -> {c_stalls} "
        f"(delta {c_stalls - b_stalls:+d})"
    )
    print()
    if worst_key is not None and worst_pct > 0:
        print(f"worst regression: {worst_key} ({worst_pct:+.1f}%)")
    else:
        print("no histogram p99 regressed")
    if threshold is not None and worst_pct > threshold:
        print(
            f"FAIL: {worst_key} exceeds --threshold {threshold}%",
            file=sys.stderr,
        )
        return 1
    return 0


def fork_cp_mean(trace_summary):
    """Mean fork critical path (us) from a trace_summary, or None."""
    if not trace_summary:
        return None
    cp = trace_summary.get("fork_critical_path_us")
    if not isinstance(cp, dict):
        return None
    mean = cp.get("mean_us")
    if isinstance(mean, bool) or not isinstance(mean, (int, float)):
        return None
    return mean


def fmt_us(v):
    return f"{v:9.3f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline artifact JSON")
    ap.add_argument("candidate", help="candidate artifact JSON")
    ap.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 if any overhead regresses by more than PCT percent",
    )
    args = ap.parse_args()

    # Monitor streams are multi-line JSONL, not one JSON document — detect
    # them before load_artifact would hard-exit on the parse.
    base_stream = load_monitor_stream(args.baseline)
    cand_stream = load_monitor_stream(args.candidate)
    if base_stream is not None and cand_stream is not None:
        return diff_monitor_streams(
            args.baseline, args.candidate, base_stream, cand_stream,
            args.threshold,
        )
    if (base_stream is None) != (cand_stream is None):
        which = args.baseline if base_stream is not None else args.candidate
        sys.exit(
            f"diff_artifacts: {which} is a monitor JSONL stream but the "
            f"other input is not — diff monitor streams against each other"
        )

    base_meta, base, base_trace, base_tenants = load_artifact(args.baseline)
    cand_meta, cand, cand_trace, cand_tenants = load_artifact(args.candidate)

    print(f"baseline : {args.baseline}")
    if base_meta.get("build_state"):
        print(f"           ({base_meta['build_state']})")
    print(f"candidate: {args.candidate}")
    if cand_meta.get("build_state"):
        print(f"           ({cand_meta['build_state']})")
    print()
    if not base and not cand:
        if fork_cp_mean(base_trace) is None or fork_cp_mean(cand_trace) is None:
            sys.exit(
                "diff_artifacts: neither artifact has an 'overheads' map or "
                "a comparable 'trace_summary'"
            )
        print("no EPCC overhead tables in these artifacts")
    header = (
        f"{'directive':<18} {'base_us':>9} {'cand_us':>9} "
        f"{'delta_us':>9} {'delta_%':>8}"
    )
    if base or cand:
        print(header)
        print("-" * len(header))

    # Keep the baseline's ordering; append candidate-only rows at the end.
    keys = [k for k in base if k in cand]
    keys += [k for k in cand if k not in base]
    worst_pct = 0.0
    worst_key = None
    for key in keys:
        b = base.get(key, {}).get("overhead_us")
        c = cand.get(key, {}).get("overhead_us")
        if b is None or c is None:
            side = "baseline" if c is None else "candidate"
            print(f"{key:<18} {'(only in ' + side + ')':>38}")
            continue
        delta = c - b
        if b:
            # A zero/missing baseline has no meaningful relative delta;
            # print n/a and keep it out of the worst-regression threshold
            # (the absolute column still shows the change).
            pct = delta / b * 100.0
            print(
                f"{key:<18} {fmt_us(b)} {fmt_us(c)} {fmt_us(delta)} "
                f"{pct:7.1f}%"
            )
            if pct > worst_pct:
                worst_pct, worst_key = pct, key
        else:
            print(
                f"{key:<18} {fmt_us(b)} {fmt_us(c)} {fmt_us(delta)} "
                f"{'n/a':>8}"
            )

    missing_base = [k for k in cand if k not in base]
    missing_cand = [k for k in base if k not in cand]
    if missing_base or missing_cand:
        print()
        if missing_cand:
            print(f"dropped from candidate: {', '.join(missing_cand)}")
        if missing_base:
            print(f"new in candidate: {', '.join(missing_base)}")

    # Tenant curve (serverbench): per tenant count, dispatch-latency
    # percentiles and throughput.  Latency percentiles count toward the
    # worst-regression threshold; throughput is printed but not scored.
    if base_tenants is not None and cand_tenants is not None:
        metrics = ("p50_us", "p95_us", "p99_us", "throughput_rps")
        t_header = (
            f"{'tenants':<8} {'metric':<14} {'base':>10} {'cand':>10} "
            f"{'delta':>10} {'delta_%':>8}"
        )
        print()
        print("tenant curve (dispatch latency / throughput):")
        print(t_header)
        print("-" * len(t_header))
        t_keys = [k for k in base_tenants if k in cand_tenants]
        t_keys += [k for k in cand_tenants if k not in base_tenants]
        for key in t_keys:
            b_entry = base_tenants.get(key)
            c_entry = cand_tenants.get(key)
            if b_entry is None or c_entry is None:
                side = "baseline" if c_entry is None else "candidate"
                print(f"{key:<8} {'(only in ' + side + ')':<40}")
                continue
            for metric in metrics:
                b = b_entry.get(metric)
                c = c_entry.get(metric)
                if isinstance(b, bool) or not isinstance(b, (int, float)):
                    continue
                if isinstance(c, bool) or not isinstance(c, (int, float)):
                    continue
                delta = c - b
                pct_text = f"{delta / b * 100.0:7.1f}%" if b else f"{'n/a':>8}"
                print(
                    f"{key:<8} {metric:<14} {b:10.3f} {c:10.3f} "
                    f"{delta:+10.3f} {pct_text}"
                )
                if b and metric != "throughput_rps":
                    pct = delta / b * 100.0
                    if pct > worst_pct:
                        worst_pct = pct
                        worst_key = f"tenants[{key}].{metric}"

    # Fork-critical-path delta: only when both artifacts carry a
    # trace_summary with paired forks (analyze_trace.py --json output, or
    # an EPCC artifact that embeds one).
    b_cp = fork_cp_mean(base_trace)
    c_cp = fork_cp_mean(cand_trace)
    if b_cp is not None and c_cp is not None:
        delta = c_cp - b_cp
        rel = f" ({delta / b_cp * 100.0:+.1f}%)" if b_cp else ""
        print()
        print(
            f"fork critical path (mean): {b_cp:.3f} us -> {c_cp:.3f} us, "
            f"delta {delta:+.3f} us{rel}"
        )

    print()
    if worst_key is not None and worst_pct > 0:
        print(f"worst regression: {worst_key} ({worst_pct:+.1f}%)")
    elif base or cand:
        print("no directive regressed")

    if args.threshold is not None and worst_pct > args.threshold:
        print(
            f"FAIL: {worst_key} exceeds --threshold {args.threshold}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
