#!/usr/bin/env python3
"""Analyze an ompmca Chrome/Perfetto trace (OMPMCA_TRACE export).

Computes, from the flight-recorder JSON that src/obs/trace.cpp exports:

  * per-construct time breakdown — count / total / mean / max per event
    name, plus share of the traced wall-clock span;
  * fork critical path — for every doorbell epoch, the time from the
    master's fork_ring to the *last* worker_wake it caused (the paper's
    fork overhead is exactly this path);
  * steals — attempts and successes of the loop scheduler's range
    stealing.

    python3 bench/analyze_trace.py bench/artifacts/trace_table1_epcc.json

With --json the same numbers are emitted as a {"trace_summary": ...}
artifact object (bench/diff_artifacts.py understands it), so a trace
summary can be committed next to the EPCC artifacts and diffed across PRs.

With --monitor FILE (a live-monitor JSONL stream from the same run), ticks
whose cumulative stall count increased are cross-referenced against the
trace: both streams share the monotonic clock (the trace export records
base_mono_ns in otherData), so each stall window [previous tick, stall
tick] is mapped onto trace time and the longest spans overlapping it are
listed — the "what was the runtime doing when the watchdog fired" view.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    """Returns (traceEvents, base_mono_ns or None)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"analyze_trace: cannot read {path}: {e}")
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        sys.exit(f"analyze_trace: {path} has no traceEvents array")
    other = doc.get("otherData") if isinstance(doc, dict) else None
    base_mono_ns = other.get("base_mono_ns") if isinstance(other, dict) else None
    if isinstance(base_mono_ns, bool) or not isinstance(base_mono_ns, int):
        base_mono_ns = None
    return events, base_mono_ns


def load_monitor_samples(path):
    """Monitor JSONL stream -> list of sample dicts."""
    samples = []
    try:
        with open(path, encoding="utf-8") as f:
            for ln in f:
                ln = ln.strip()
                if not ln:
                    continue
                try:
                    doc = json.loads(ln)
                except ValueError as e:
                    sys.exit(f"analyze_trace: {path}: bad JSONL line: {e}")
                if isinstance(doc, dict) and doc.get("monitor") == "ompmca":
                    samples.append(doc)
    except OSError as e:
        sys.exit(f"analyze_trace: cannot read {path}: {e}")
    if not samples:
        sys.exit(f"analyze_trace: {path} has no monitor samples")
    return samples


def stall_xref(events, base_mono_ns, samples, top_n=8):
    """Cross-references stall ticks against trace spans.

    Returns {"windows": [...], "stalls_total": N} — one entry per tick whose
    cumulative stall count increased, with the longest trace spans that
    overlap the [previous tick, stall tick] window (trace ts and monitor
    mono_ns share the monotonic clock; base_mono_ns anchors them).
    """
    windows = []
    prev_mono = None
    prev_stalls = 0
    final_stalls = 0
    for s in samples:
        mono = s.get("mono_ns")
        stalls = s.get("stalls_total", 0)
        if not isinstance(mono, int) or isinstance(mono, bool):
            continue
        if not isinstance(stalls, int) or isinstance(stalls, bool):
            stalls = 0
        final_stalls = stalls
        if stalls > prev_stalls:
            interval_s = s.get("interval_s", 0.0)
            lo_ns = prev_mono
            if lo_ns is None:
                lo_ns = mono - int(float(interval_s) * 1e9)
            win = {
                "tick": s.get("tick"),
                "new_stalls": stalls - prev_stalls,
                "window_mono_ns": [lo_ns, mono],
                "spans": [],
            }
            if base_mono_ns is not None:
                lo_us = (lo_ns - base_mono_ns) / 1e3
                hi_us = (mono - base_mono_ns) / 1e3
                overlapping = []
                for e in events:
                    if e.get("ph") != "X":
                        continue
                    ts = float(e.get("ts", 0.0))
                    dur = float(e.get("dur", 0.0))
                    if ts < hi_us and ts + dur > lo_us:
                        overlapping.append(e)
                overlapping.sort(key=lambda e: -float(e.get("dur", 0.0)))
                win["spans"] = [
                    {
                        "name": e.get("name", "?"),
                        "tid": e.get("tid"),
                        "ts_us": float(e.get("ts", 0.0)),
                        "dur_us": float(e.get("dur", 0.0)),
                    }
                    for e in overlapping[:top_n]
                ]
            windows.append(win)
        prev_stalls = stalls
        prev_mono = mono
    return {
        "stalls_total": final_stalls,
        "clock_anchored": base_mono_ns is not None,
        "windows": windows,
    }


def print_stall_xref(xref):
    print()
    n = xref["stalls_total"]
    if not xref["windows"]:
        print(f"stall cross-ref: {n} stalls in the monitor stream, "
              "none attributable to a tick window")
        return
    if not xref["clock_anchored"]:
        print("stall cross-ref: trace lacks otherData.base_mono_ns "
              "(older export?) — windows listed without span overlap")
    for w in xref["windows"]:
        lo, hi = w["window_mono_ns"]
        print(f"stall tick {w['tick']}: +{w['new_stalls']} stall(s) in "
              f"window [{lo}, {hi}] ns ({(hi - lo) / 1e6:.1f} ms)")
        for sp in w["spans"]:
            print(f"    {sp['name']:<16} tid {sp['tid']:<4} "
                  f"ts {sp['ts_us']:.1f} us  dur {sp['dur_us']:.1f} us")
        if xref["clock_anchored"] and not w["spans"]:
            print("    (no trace spans overlap this window)")


def analyze(events):
    constructs = defaultdict(lambda: {"count": 0, "total_us": 0.0,
                                      "max_us": 0.0})
    span_lo, span_hi = None, None
    ring_ts = {}          # epoch -> fork_ring ts
    ring_width = {}       # epoch -> team width
    wakes = defaultdict(list)  # epoch -> [worker_wake ts]
    steals = {"attempts": 0, "steals": 0}

    for e in events:
        if e.get("ph") != "X":
            continue
        name = e.get("name", "?")
        ts = float(e.get("ts", 0.0))
        dur = float(e.get("dur", 0.0))
        c = constructs[name]
        c["count"] += 1
        c["total_us"] += dur
        c["max_us"] = max(c["max_us"], dur)
        span_lo = ts if span_lo is None else min(span_lo, ts)
        span_hi = ts + dur if span_hi is None else max(span_hi, ts + dur)

        args = e.get("args", {})
        if name == "fork_ring":
            epoch = args.get("epoch")
            if epoch is not None:
                ring_ts[epoch] = ts
                ring_width[epoch] = args.get("width")
        elif name == "worker_wake":
            epoch = args.get("epoch")
            if epoch is not None:
                wakes[epoch].append(ts)
        elif name == "steal_attempt":
            steals["attempts"] += 1
        elif name == "steal":
            steals["steals"] += 1

    wall_us = (span_hi - span_lo) if span_lo is not None else 0.0

    # Fork critical path: ring -> last wake of the same epoch.  Epochs whose
    # wakes were overwritten in the ring (flight-recorder mode) are skipped —
    # a path needs both ends.
    paths = []
    for epoch, t_ring in ring_ts.items():
        if epoch not in wakes:
            continue
        last_wake = max(wakes[epoch])
        if last_wake >= t_ring:
            paths.append({"epoch": epoch, "us": last_wake - t_ring,
                          "width": ring_width.get(epoch)})
    fork_cp = None
    if paths:
        us = sorted(p["us"] for p in paths)
        fork_cp = {
            "count": len(us),
            "mean_us": sum(us) / len(us),
            "max_us": us[-1],
            "p95_us": us[min(len(us) - 1, int(len(us) * 0.95))],
        }

    return {
        "constructs": {k: dict(v) for k, v in sorted(constructs.items())},
        "wall_us": wall_us,
        "fork_critical_path_us": fork_cp,
        "forks_paired": len(paths),
        "forks_seen": len(ring_ts),
        "steal": steals,
    }


def print_human(summary):
    wall = summary["wall_us"]
    print(f"traced span: {wall:.1f} us")
    print()
    header = (f"{'construct':<16} {'count':>8} {'total_us':>12} "
              f"{'mean_us':>10} {'max_us':>10} {'%span':>7}")
    print(header)
    print("-" * len(header))
    for name, c in summary["constructs"].items():
        mean = c["total_us"] / c["count"] if c["count"] else 0.0
        pct = 100.0 * c["total_us"] / wall if wall > 0 else 0.0
        print(f"{name:<16} {c['count']:>8} {c['total_us']:>12.1f} "
              f"{mean:>10.3f} {c['max_us']:>10.1f} {pct:>6.1f}%")
    print()
    cp = summary["fork_critical_path_us"]
    if cp:
        print(f"fork critical path (ring -> last worker wake), "
              f"{cp['count']} forks paired of {summary['forks_seen']} seen:")
        print(f"  mean {cp['mean_us']:.3f} us   p95 {cp['p95_us']:.3f} us   "
              f"max {cp['max_us']:.3f} us")
    else:
        print("fork critical path: no ring/wake pairs in this trace")
    st = summary["steal"]
    if st["attempts"] or st["steals"]:
        print(f"steals: {st['steals']} of {st['attempts']} attempts")
    else:
        print("steals: none recorded")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace JSON (OMPMCA_TRACE export)")
    ap.add_argument("--json", action="store_true",
                    help="emit a trace_summary artifact object on stdout")
    ap.add_argument("--monitor", metavar="FILE", default=None,
                    help="live-monitor JSONL from the same run: "
                         "cross-reference stall ticks against trace spans")
    args = ap.parse_args()

    events, base_mono_ns = load_events(args.trace)
    summary = analyze(events)
    xref = None
    if args.monitor:
        xref = stall_xref(events, base_mono_ns,
                          load_monitor_samples(args.monitor))
    if args.json:
        doc = {"_meta": {"source": args.trace, "tool": "analyze_trace.py"},
               "trace_summary": summary}
        if xref is not None:
            doc["stall_xref"] = xref
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print_human(summary)
        if xref is not None:
            print_stall_xref(xref)
    return 0


if __name__ == "__main__":
    sys.exit(main())
