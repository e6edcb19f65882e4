#!/usr/bin/env python3
"""Differ for perfbench artifacts ({bench, host, topology, config, metrics}).

    python3 perfbench/diff.py BASE.json NEW.json
    python3 perfbench/diff.py BASE1.json BASE2.json ... -- NEW1.json ...
    python3 perfbench/diff.py --self-check ARTIFACT.json

Matches metrics by name and prints each side's median and quartiles
(statistics.quantiles, n=4) of the samples.  With one artifact per side
the samples are that run's; with several, each run contributes its median,
so the quartiles are run-to-run (the form for comparing two commits over
many runs, where host drift dominates).  A metric is flagged as a
regression only when the two interquartile ranges do not overlap and the
new one lies on the worse side (per the metric's "better"); metrics with
fewer than three samples on either side are shown but never flagged.
Exits 1 when anything regressed.

--self-check diffs an artifact against itself (must report no change) and
against a copy whose samples are worse by their range plus half their
median (must be flagged, and nothing improved).
"""
import json
import statistics
import sys

MIN_SAMPLES = 3


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def compare(base, new):
    """Rows (name, unit, base quartiles, new quartiles, verdict)."""
    old = {m["name"]: m for m in base["metrics"]}
    rows = []
    for m in new["metrics"]:
        b = old.get(m["name"])
        if b is None:
            continue
        qa, qb = quartiles(b["samples"]), quartiles(m["samples"])
        verdict = "~"
        if min(len(b["samples"]), len(m["samples"])) < MIN_SAMPLES:
            verdict = "n/a"
        elif qb[0] > qa[2]:
            verdict = "REGRESSED" if m["better"] == "lower" else "improved"
        elif qb[2] < qa[0]:
            verdict = "REGRESSED" if m["better"] == "higher" else "improved"
        rows.append((m["name"], m["unit"], qa, qb, verdict))
    return rows


def render(rows):
    print("%-40s %-6s %32s %32s  %s" % ("metric", "unit", "base q1/med/q3",
                                         "new q1/med/q3", "verdict"))
    for name, unit, qa, qb, verdict in rows:
        print("%-40s %-6s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g  %s"
              % (name, unit, *qa, *qb, verdict))


def slowed(artifact, share=0.5):
    """A copy whose every sample is worse by the metric's range plus @p share
    of its median magnitude (a shift, so negative samples get worse too).
    The range term clears the spread of any run, however noisy, so the
    self-check never fails on a correct differ."""
    out = dict(artifact)
    out["metrics"] = []
    for m in artifact["metrics"]:
        s = m["samples"]
        step = max(s) - min(s) + share * abs(statistics.median(s))
        if m["better"] == "higher":
            step = -step
        out["metrics"].append(dict(m, samples=[v + step for v in s]))
    return out


def self_check(artifact):
    same = [r for r in compare(artifact, artifact) if r[4] not in ("~", "n/a")]
    worse = [r[4] for r in compare(artifact, slowed(artifact))]
    return not same and "improved" not in worse and "REGRESSED" in worse


def load(path):
    with open(path) as f:
        return json.load(f)


def side(paths):
    """One artifact, or several merged into one sample (median) per run."""
    arts = [load(p) for p in paths]
    if len(arts) == 1:
        return arts[0]
    merged = {}
    for a in arts:
        for m in a["metrics"]:
            merged.setdefault(m["name"], dict(m, samples=[]))["samples"].append(
                statistics.median(m["samples"]))
    return {"metrics": list(merged.values())}


def main(argv):
    if len(argv) == 3 and argv[1] == "--self-check":
        ok = self_check(load(argv[2]))
        print("self-check " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    args = argv[1:]
    if "--" in args:
        cut = args.index("--")
        base, new = args[:cut], args[cut + 1:]
    elif len(args) == 2:
        base, new = args[:1], args[1:]
    else:
        base, new = [], []
    if not base or not new:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(side(base), side(new))
    render(rows)
    regressed = [r[0] for r in rows if r[4] == "REGRESSED"]
    print("%d metric(s) regressed%s" % (len(regressed), (": " + ", ".join(
        regressed)) if regressed else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
