#!/usr/bin/env python3
"""Layered benchmark of the OpenMP-MCA runtime (see perfbench/README.md).

    python3 perfbench/run.py --workload epcc|tenants|npb --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (and through it the
runtime under src/) into .bench_build/perfbench, runs the workload, writes
one artifact JSON under .bench_build/artifacts/, and prints the result as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, measured on
the workload; --trace 1 runs the whole layered suite under
OMPMCA_TRACE=ring, plus the host-libgomp twin at both wait policies, and
reports every per-layer metric.  Exits non-zero on any failed operation.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
ARTIFACTS = os.path.join(ROOT, ".bench_build", "artifacts")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import diff  # noqa: E402  (the artifact differ, self-checked every run)

WORKLOADS = ("epcc", "tenants", "npb")
DIRECTIVES = ["parallel", "for", "for_dynamic", "parallel_for", "barrier",
              "single", "critical", "reduction"]
# The libgomp twin's wait policies: the host default, and passive, the
# policy ulibgomp runs by default.
TWIN_POLICIES = {"default": None, "passive": "passive"}
TWIN_SECONDS = 2
TWIN_METRICS = ("ref.libgomp.", "ref.mca_libgomp_ratio.", "ref.omp_lock_ns")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def run_json(cmd, env):
    """Runs @p cmd and parses its stdout as one JSON document."""
    p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S, check=False)
    if p.stderr:
        sys.stderr.write(p.stderr[-4000:])
    try:
        return json.loads(p.stdout), p.returncode
    except json.JSONDecodeError:
        log("unparsable output from %s (exit %d)" % (cmd[0], p.returncode))
        return None, p.returncode


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_info():
    cpu = "/sys/devices/system/cpu"
    model = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    idx = os.path.join(cpu, "cpu0", "cache")
    for name in sorted(os.listdir(idx)) if os.path.isdir(idx) else []:
        d = os.path.join(idx, name)
        caches.append({"level": read(os.path.join(d, "level")),
                       "type": read(os.path.join(d, "type")),
                       "size": read(os.path.join(d, "size")),
                       "shared_cpu_list":
                           read(os.path.join(d, "shared_cpu_list"))})
    topo = []
    for c in sorted(os.sched_getaffinity(0)):
        t = os.path.join(cpu, "cpu%d" % c, "topology")
        topo.append({"cpu": c,
                     "package_id": read(os.path.join(t, "physical_package_id")),
                     "core_id": read(os.path.join(t, "core_id")),
                     "cluster_id": read(os.path.join(t, "cluster_id")),
                     "core_cpus_list": read(os.path.join(t, "core_cpus_list"))})
    host = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "machine": platform.machine(),
            "kernel": platform.release()}
    return host, {"online": read(os.path.join(cpu, "online")), "cpus": topo}


def metric(name, layer, unit, better, samples):
    return {"name": name, "layer": layer, "unit": unit, "better": better,
            "samples": samples}


def twin_metrics(nproc, seed, mca):
    """Host libgomp reference, one process per wait policy, run after the
    perfbench process has exited (never concurrently)."""
    exe = os.path.join(BUILD, "libgomp_twin")
    if not os.path.exists(exe):
        log("libgomp_twin not built (no OpenMP); reference skipped")
        return None, 0, 0
    out, attempted, failed = [], 0, 0
    for policy, value in TWIN_POLICIES.items():
        env = dict(os.environ)
        env.pop("OMP_WAIT_POLICY", None)
        if value:
            env["OMP_WAIT_POLICY"] = value
        doc, rc = run_json([exe, "--threads", str(nproc), "--seed", str(seed),
                            "--seconds", str(TWIN_SECONDS)], env)
        attempted += 1
        if doc is None or rc != 0 or not doc.get("verified"):
            failed += 1
            continue
        for d in DIRECTIVES:
            s = doc["overhead_us"][d]
            out.append(metric("ref.libgomp.%s.%s_us" % (policy, d), "ref",
                              "us", "lower", s))
            if d in mca:
                out.append(metric("ref.mca_libgomp_ratio.%s.%s" % (policy, d),
                                  "ref", "ratio", "lower",
                                  [statistics.median(mca[d]) /
                                   statistics.median(s)]))
        if policy == "default":
            out.append(metric("ref.omp_lock_ns", "ref", "ns", "lower",
                              doc["omp_lock_ns"]))
    return out, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "gomp", "runtime.hpp")):
        log("runtime sources (src/) not found next to perfbench/")
        return 2
    if not build():
        log("build failed")
        return 2

    traced = args.trace == 1
    env = dict(os.environ)
    env["OMPMCA_TRACE"] = "ring" if traced else "off"
    env.pop("OMPMCA_TELEMETRY", None)  # no shutdown report on stderr
    cmd = [os.path.join(BUILD, "perfbench"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if traced:
        cmd.append("--trace")
    doc, rc = run_json(cmd, env)
    if doc is None:
        return 1
    metrics = doc["metrics"]
    attempted, failed = doc["attempted"], doc["failed"]
    if rc != 0 and failed == 0:
        failed = 1
    twin = None
    if traced:
        mca = {m["name"].split(".")[-1][:-3]: m["samples"] for m in metrics
               if m["layer"] == "epcc" and ".native." not in m["name"]
               and m["name"].endswith("_us")}
        twin, t_att, t_fail = twin_metrics(doc["config"]["nproc"], args.seed,
                                           mca)
        metrics += twin or []
        attempted += t_att
        failed += t_fail
    metrics.append(metric("failed_ratio", "bench", "ratio", "lower",
                          [failed / max(1, attempted)]))

    host, topology = host_info()
    config = dict(doc["config"])
    config["env"] = {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(("OMP_", "OMPMCA_"))}
    config["env"]["OMPMCA_TRACE"] = env["OMPMCA_TRACE"]
    artifact = {"bench": "perfbench", "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds, "trace": traced,
                "host": host, "topology": topology, "config": config,
                "attempted": attempted, "failed": failed,
                "failures": doc["failures"], "metrics": metrics,
                "spans": doc["spans"]}
    os.makedirs(ARTIFACTS, exist_ok=True)
    path = os.path.join(ARTIFACTS, "perfbench-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(artifact, f, indent=1)
    log("artifact " + os.path.relpath(path, ROOT))
    for what in doc["failures"]:
        log("FAILED: " + what)

    differ_ok = diff.self_check(artifact)
    if not differ_ok:
        log("artifact differ self-check failed")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if traced:
        names = [m["name"] for m in bench["per_layer"]]
        if twin is None:  # no OpenMP: the twin's references are absent
            names = [n for n in names if not n.startswith(TWIN_METRICS)]
    else:
        names = [m["name"] for m in bench["end_to_end"]]
    by_name = {m["name"]: m for m in metrics}
    out, missing = {}, []
    for n in names:
        if n not in by_name:
            missing.append(n)
            continue
        m = by_name[n]
        out[n] = {"value": statistics.median(m["samples"]), "unit": m["unit"]}
    for n in missing:
        log("metric %s was not measured" % n)
    correct = failed == 0 and not missing and differ_ok
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
