#!/usr/bin/env sh
# Tier-1 verification with warnings-as-errors, as CI runs it.
#
#   ./ci.sh            runs the full matrix:
#                        1. normal build + full ctest        (./build)
#                        2. ThreadSanitizer, all suites      (./build-tsan)
#                        3. ASan+UBSan, all suites           (./build-asan)
#                        4. correctness checker, all suites  (./build-check)
#                        5. fault injection + checker, chaos  (./build-fault)
#                        6. clang-tidy over src/ (skipped when absent)
#                        7. EPCC artifact diff (informational)
#                        8. flight-recorder trace export validation
#                        9. taskbench artifact diff (informational)
#                       10. placement ablation (model checks gate)
#                       11. thread-safety analysis build + ompmca-lint
#                       12. serverbench artifact diff (informational)
#                       13. live monitor: sustained serverbench
#                       14. co-location probe (disabled in ctest)
#
# Mirrors ROADMAP.md's tier-1 verify line, with -Werror on so new
# warnings fail the build instead of rotting.
set -eu

cd "$(dirname "$0")"

echo "== [1/14] normal build + ctest =="
cmake -B build -S . -DOMPMCA_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== [2/14] ThreadSanitizer, all suites =="
# Race-check everything, not just the gomp hot paths: the MRAPI database,
# arena and DMA engine carry their own lock-free fast paths.
cmake -B build-tsan -S . -DOMPMCA_WERROR=ON -DOMPMCA_TSAN=ON
cmake --build build-tsan -j
(cd build-tsan && ctest --output-on-failure)
# The team barrier (phases at widths 1-9 under every wait policy, parked
# waiters released by a late arriver), repeated: a lost release is a timing
# window one pass can miss.
./build-tsan/tests/gomp/gomp_test --gtest_filter='*Barrier*' \
  --gtest_repeat=20 >/dev/null
echo "barrier (20 repeats): clean under TSan"
# The spin-then-park wait paths (parked barrier waiters woken by a late
# arriver, a parked join, a region forked after the workers' spin window,
# tasks spawned after the peers took the task-free barrier exit), repeated:
# their races are timing windows one pass can miss.
./build-tsan/tests/gomp/gomp_test --gtest_filter='*WaitPath*:*LateArriver*' \
  --gtest_repeat=20 >/dev/null
echo "wait paths (20 repeats): clean under TSan"
# The workshare ring claim (first arriver's CAS, peers waiting on its
# publication, threads a ring ahead parked on a draining slot), the hot
# teams reused across forks, and the retained dispatch slots and leases
# behind them (re-forks, width changes, revocation by other masters,
# orphaned retentions, teardown), repeated for the same reason.
./build-tsan/tests/gomp/gomp_test \
  --gtest_filter='*LoopClaim*:*HotTeam*:*Retain*' --gtest_repeat=20 >/dev/null
echo "loop claims, hot teams and retained dispatch (20 repeats): clean under TSan"
# The MRAPI mutex's state word (spinning and parked hand-offs, timed and
# recursive lockers, retire() waking parked waiters) and the constructs on
# top of it: critical, and reductions combined by the barrier's last
# arriver, back to back.  Repeated for the same reason.
./build-tsan/tests/mrapi/mrapi_test --gtest_filter='*Mutex*' \
  --gtest_repeat=20 >/dev/null
./build-tsan/tests/gomp/gomp_test --gtest_filter='*Reduc*:*Critical*' \
  --gtest_repeat=20 >/dev/null
echo "mutex, reductions and criticals (20 repeats): clean under TSan"
# The GOMP ABI entries: two masters forking through GOMP_parallel at once
# (racing to create the published compat runtime), and GOMP_parallel
# nested inside another runtime's region.  Repeated for the same reason.
./build-tsan/tests/gomp/gomp_test --gtest_filter='*Compat*' \
  --gtest_repeat=20 >/dev/null
echo "GOMP ABI entries (20 repeats): clean under TSan"

echo "== [3/14] ASan+UBSan, all suites =="
cmake -B build-asan -S . -DOMPMCA_WERROR=ON -DOMPMCA_ASAN=ON
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure)

echo "== [4/14] correctness checker (OMPMCA_CHECK=ON), all suites =="
# The check build compiles the lockdep/lifecycle/usage hooks in; check_test
# seeds violations and asserts the reports, the rest of the suite doubles
# as a no-false-positives audit.
cmake -B build-check -S . -DOMPMCA_WERROR=ON -DOMPMCA_CHECK=ON
cmake --build build-check -j
(cd build-check && ctest --output-on-failure)
# Same repeated barrier run under the lockdep/lifecycle hooks.
OMPMCA_CHECK_ABORT=1 ./build-check/tests/gomp/gomp_test \
  --gtest_filter='*Barrier*' --gtest_repeat=20 >/dev/null
echo "barrier (20 repeats): clean under checker"
# Same repeated wait-path run under the lockdep/lifecycle hooks.
OMPMCA_CHECK_ABORT=1 ./build-check/tests/gomp/gomp_test \
  --gtest_filter='*WaitPath*:*LateArriver*' --gtest_repeat=20 >/dev/null
echo "wait paths (20 repeats): clean under checker"
OMPMCA_CHECK_ABORT=1 ./build-check/tests/gomp/gomp_test \
  --gtest_filter='*LoopClaim*:*HotTeam*:*Retain*' --gtest_repeat=20 >/dev/null
echo "loop claims, hot teams and retained dispatch (20 repeats): clean under checker"
# The Mutex suite seeds double unlocks, wrong-owner and out-of-order
# releases and stale-handle locks on purpose, so here the checker reports
# (as in the ctest pass above) instead of aborting.
./build-check/tests/mrapi/mrapi_test \
  --gtest_filter='*Mutex*' --gtest_repeat=20 >/dev/null 2>&1
OMPMCA_CHECK_ABORT=1 ./build-check/tests/gomp/gomp_test \
  --gtest_filter='*Reduc*:*Critical*' --gtest_repeat=20 >/dev/null
echo "mutex, reductions and criticals (20 repeats): pass under checker"

echo "== [5/14] fault injection (OMPMCA_FAULT=ON + OMPMCA_CHECK=ON), all suites =="
# Compiles the injection points and recovery policies in and runs the whole
# suite, including the fixed-seed chaos tests in tests/fault/ (which skip in
# every other build).  The checker rides along so injected failures cannot
# mask lock-order or lifecycle violations.
cmake -B build-fault -S . -DOMPMCA_WERROR=ON -DOMPMCA_FAULT=ON -DOMPMCA_CHECK=ON
cmake --build build-fault -j
(cd build-fault && ctest --output-on-failure)

echo "== [6/14] clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # Uses .clang-tidy at the repo root and the compile database from step 1.
  find src -name '*.cpp' -print | xargs clang-tidy -p build --quiet
else
  echo "clang-tidy not installed; skipping lint step"
fi

echo "== [7/14] EPCC artifact diff (informational) =="
if command -v python3 >/dev/null 2>&1; then
  python3 bench/diff_artifacts.py \
    bench/artifacts/epcc_before.json bench/artifacts/epcc_after.json || true
else
  echo "python3 not installed; skipping artifact diff"
fi

echo "== [8/14] flight-recorder trace export =="
# Runs the EPCC bench with tracing armed and validates the exported Chrome
# trace JSON strictly (json.tool); the analyzer pass is informational.  The
# bench's own PASS/FAIL is timing-sensitive on loaded CI hosts, so only the
# trace pipeline is load-bearing here.
if command -v python3 >/dev/null 2>&1; then
  OMPMCA_TRACE=ring ./build/bench/table1_epcc_overhead --quick --json \
    --trace=build/trace_ci_epcc.json >/dev/null || true
  python3 -m json.tool build/trace_ci_epcc.json >/dev/null
  echo "trace export: build/trace_ci_epcc.json is well-formed JSON"
  python3 bench/analyze_trace.py build/trace_ci_epcc.json || true
else
  echo "python3 not installed; skipping trace validation"
fi

echo "== [9/14] taskbench artifact diff (informational) =="
# Runs the task-subsystem bench and diffs its overhead artifact against the
# committed reference.  The run itself is tolerated to fail (its in-bench
# band checks are timing-sensitive on loaded CI hosts); the artifact must
# still be well-formed JSON, and the diff is informational.
if command -v python3 >/dev/null 2>&1; then
  ./build/bench/taskbench --quick --json > build/taskbench_ci.json || true
  python3 -m json.tool build/taskbench_ci.json >/dev/null
  python3 bench/diff_artifacts.py \
    bench/artifacts/taskbench_ref.json build/taskbench_ci.json || true
else
  echo "python3 not installed; skipping taskbench artifact diff"
fi

echo "== [10/14] placement ablation (model checks) =="
# The cost model's flat-vs-two-tier predictions for the T4240 (simulator
# input); the bench's PASS/FAIL gates the build.
./build/bench/ablation_placement --quick

echo "== [11/14] thread-safety analysis build + ompmca-lint =="
# The lock structure carries Clang Thread Safety annotations
# (src/common/annotations.hpp); a clang build with -DOMPMCA_TSA=ON turns
# -Wthread-safety into errors (-Wthread-safety-negative stays
# informational).  GCC compiles the annotations to no-ops, so the step is
# skipped when clang++ is absent rather than faked.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DOMPMCA_WERROR=ON -DOMPMCA_TSA=ON \
    -DCMAKE_CXX_COMPILER=clang++
  cmake --build build-tsa -j
  echo "thread-safety analysis: clean"
else
  echo "clang++ not installed; skipping thread-safety analysis build"
fi
# ompmca-lint always runs: the regex rules (hook parity, fault-site
# recovery policies, seq_cst justifications, (void)-discard reasons,
# OMPMCA_NO_TSA justifications) need only python3; libclang upgrades the
# ignored-status rule to a type-aware pass when present.
if command -v python3 >/dev/null 2>&1; then
  python3 tools/lint/ompmca_lint.py
  echo "ompmca-lint: clean"
else
  echo "python3 not installed; skipping ompmca-lint"
fi

echo "== [12/14] serverbench artifact diff (informational) =="
# Runs the multi-tenant dispatch bench (N masters bursting small regions
# through one runtime) and diffs its latency/throughput curve against the
# committed reference.  The run's own PASS/FAIL is tolerated (its telemetry
# checks are timing-sensitive on loaded CI hosts); the artifact must still
# be well-formed JSON, and the per-tenant p50/p95/p99 diff is informational.
if command -v python3 >/dev/null 2>&1; then
  ./build/bench/serverbench --quick --json > build/serverbench_ci.json || true
  python3 -m json.tool build/serverbench_ci.json >/dev/null
  python3 bench/diff_artifacts.py \
    bench/artifacts/serverbench_ref.json build/serverbench_ci.json || true
else
  echo "python3 not installed; skipping serverbench artifact diff"
fi

echo "== [13/14] live monitor: sustained serverbench + format validation =="
# Short sustained serverbench with the live monitor armed: the artifact and
# every JSONL line must parse, and a prom-format run must produce
# well-formed text exposition (TYPE'd families, name{labels} value lines).
# The watchdog chaos case rides the fault-build ctest pass (step 5).
if command -v python3 >/dev/null 2>&1; then
  OMPMCA_MONITOR_FILE=build/monitor_ci.jsonl \
    ./build/bench/serverbench --quick --duration=2 --monitor --json \
    > build/serverbench_monitor_ci.json || true
  python3 -m json.tool build/serverbench_monitor_ci.json >/dev/null
  python3 - build/monitor_ci.jsonl <<'EOF'
import json, sys
lines = [ln for ln in open(sys.argv[1]) if ln.strip()]
assert lines, "monitor stream is empty"
for ln in lines:
    doc = json.loads(ln)
    assert doc.get("monitor") == "ompmca", "missing monitor marker"
    assert "tick" in doc and "counters" in doc and "tenants" in doc, doc.keys()
print(f"monitor JSONL: {len(lines)} ticks validated")
EOF
  python3 bench/diff_artifacts.py build/monitor_ci.jsonl \
    build/monitor_ci.jsonl || true
  OMPMCA_MONITOR=100 OMPMCA_MONITOR_FORMAT=prom \
    OMPMCA_MONITOR_FILE=build/monitor_ci.prom \
    ./build/bench/serverbench --quick --json >/dev/null || true
  python3 - build/monitor_ci.prom <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
assert "# TYPE ompmca_monitor_tick counter" in text, "missing TYPE line"
line_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]')
for ln in text.splitlines():
    if not ln or ln.startswith("#"):
        continue
    assert line_re.match(ln), f"malformed prom line: {ln!r}"
print("monitor prom exposition: lint clean")
EOF
else
  echo "python3 not installed; skipping live-monitor validation"
fi

echo "== [14/14] co-location probe =="
# Ten fresh runtimes at width nproc, windows of 2000 regions per body shape,
# sched_getcpu() per team thread: fails when a window is slow while two
# team threads share a CPU (the spin that kept them there is the one
# gomp/wait.hpp gates).  Disabled in ctest because the outcome depends on
# the kernel's balancer; here it gates.
./build/tests/gomp/gomp_test --gtest_filter='CoLocationProbe.*' \
  --gtest_also_run_disabled_tests

echo "ci.sh: all passes complete"
