// Flight-recorder tests: ring-wrap retention, per-thread ordering, the
// disabled-mode no-op guarantee, Chrome JSON export round-trips, flow
// events from a real fork, and the crash-dump hook on a seeded check
// violation.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "gomp/gomp.hpp"
#include "obs/event.hpp"

namespace ompmca::obs::trace {
namespace {

/// Arms the tracer for one test and restores a clean default state after.
class ScopedTrace {
 public:
  explicit ScopedTrace(Mode m, std::size_t cap = 4096) {
    set_mode(Mode::kOff);
    set_ring_capacity(cap);
    reset();
    set_mode(m);
  }
  ~ScopedTrace() {
    set_mode(Mode::kOff);
    set_ring_capacity(4096);
    reset();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

std::size_t total_events(const std::vector<ThreadTrace>& threads) {
  std::size_t n = 0;
  for (const auto& tt : threads) n += tt.events.size();
  return n;
}

/// The snapshot entry that recorded events since the last reset (tests emit
/// from one thread at a time).
const ThreadTrace* active_thread(const std::vector<ThreadTrace>& threads) {
  for (const auto& tt : threads) {
    if (tt.recorded > 0) return &tt;
  }
  return nullptr;
}

// --- a minimal JSON syntax validator (no dependencies) -----------------------

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      digits = digits ||
               std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0;
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }
  bool expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& pin) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(pin); at != std::string::npos;
       at = hay.find(pin, at + pin.size())) {
    ++n;
  }
  return n;
}

// --- tests -------------------------------------------------------------------

TEST(Trace, DisabledModeEmitsZeroEvents) {
  set_mode(Mode::kOff);
  reset();
  EXPECT_FALSE(enabled());
  emit(obs::Event::kBarrier, 1, 2);
  emit_at(obs::Event::kFor, 123, 123);
  emit_at(obs::Event::kForkRing, 456, 456, 7, 8);
  { Scope scope(obs::Event::kParallel, 1, 2); }
  EXPECT_EQ(total_events(snapshot()), 0u);
  EXPECT_EQ(flight_record_count(), 0u);
  dump_flight_record("disabled");  // no-op while off
  EXPECT_EQ(flight_record_count(), 0u);
}

TEST(Trace, RingWrapPreservesNewestEvents) {
  ScopedTrace scoped(Mode::kRing, 64);
  ASSERT_EQ(ring_capacity(), 64u);
  // A ring-mode event with two payload words (loop chunks are full-only).
  for (std::uint64_t i = 0; i < 200; ++i) {
    emit(obs::Event::kShmemCreate, i, i + 1);
  }
  const auto threads = snapshot();
  const ThreadTrace* tt = active_thread(threads);
  ASSERT_NE(tt, nullptr);
  EXPECT_EQ(tt->recorded, 200u);
  EXPECT_EQ(tt->dropped, 136u);
  ASSERT_EQ(tt->events.size(), 64u);
  // Only the newest 64 survive, in order.
  for (std::size_t i = 0; i < tt->events.size(); ++i) {
    EXPECT_EQ(tt->events[i].a0, 136 + i);
    EXPECT_EQ(tt->events[i].type, Type::kShmemCreate);
  }
}

TEST(Trace, FullModeArchivesEverything) {
  ScopedTrace scoped(Mode::kFull, 64);
  for (std::uint64_t i = 0; i < 200; ++i) {
    emit(obs::Event::kLoopChunk, i, i + 1);
  }
  const auto threads = snapshot();
  const ThreadTrace* tt = active_thread(threads);
  ASSERT_NE(tt, nullptr);
  EXPECT_EQ(tt->recorded, 200u);
  EXPECT_EQ(tt->dropped, 0u);
  ASSERT_EQ(tt->events.size(), 200u);
  for (std::size_t i = 0; i < tt->events.size(); ++i) {
    EXPECT_EQ(tt->events[i].a0, i);
  }
}

TEST(Trace, PerThreadOrderingIsMonotonic) {
  ScopedTrace scoped(Mode::kRing);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEvents = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        emit(obs::Event::kMutexLock, i);
      }
    });
  }
  for (auto& w : workers) w.join();
  unsigned active = 0;
  for (const auto& tt : snapshot()) {
    if (tt.recorded == 0) continue;
    ++active;
    EXPECT_EQ(tt.events.size(), kEvents);
    for (std::size_t i = 1; i < tt.events.size(); ++i) {
      EXPECT_GE(tt.events[i].begin_ns, tt.events[i - 1].begin_ns)
          << "tid " << tt.tid << " event " << i;
      EXPECT_EQ(tt.events[i].a0, tt.events[i - 1].a0 + 1);
    }
  }
  EXPECT_GE(active, static_cast<unsigned>(kThreads));
}

TEST(Trace, ScopeRecordsDuration) {
  ScopedTrace scoped(Mode::kRing);
  {
    Scope scope(obs::Event::kCritical);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto threads = snapshot();
  const ThreadTrace* tt = active_thread(threads);
  ASSERT_NE(tt, nullptr);
  ASSERT_EQ(tt->events.size(), 1u);
  EXPECT_EQ(tt->events[0].type, Type::kCritical);
  EXPECT_GE(tt->events[0].end_ns - tt->events[0].begin_ns, 1000000u);
}

TEST(Trace, ExportedJsonParsesAndRoundTripsEventCounts) {
  ScopedTrace scoped(Mode::kRing);
  emit(obs::Event::kBarrier, 4);
  { Scope scope(obs::Event::kFor, 1); }
  emit(obs::Event::kNodeCreate, 3);
  const std::uint64_t ring_ns = monotonic_nanos();
  emit_at(obs::Event::kForkRing, ring_ns, ring_ns, 42, 4);
  emit(obs::Event::kWorkerWake, 42);

  const std::size_t snapshot_total = total_events(snapshot());
  ASSERT_EQ(snapshot_total, 5u);
  const std::string json = chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  // Every recorded event surfaces as exactly one complete ("X") entry.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), snapshot_total);
  // The ring/wake pair carries a flow arrow each.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"f\""), 1u);
  EXPECT_NE(json.find("\"name\":\"barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"width\":4"), std::string::npos);
}

TEST(Trace, RealForkEmitsMatchingFlowEvents) {
  ScopedTrace scoped(Mode::kRing);
  {
    gomp::RuntimeOptions opts;
    gomp::Icvs icvs;
    icvs.num_threads = 2;
    opts.icvs = icvs;
    gomp::Runtime rt(opts);
    rt.parallel([](gomp::ParallelContext& ctx) { ctx.barrier(); });
  }
  std::vector<std::uint64_t> ring_epochs;
  std::vector<std::uint64_t> wake_epochs;
  for (const auto& tt : snapshot()) {
    for (const auto& e : tt.events) {
      if (e.type == Type::kForkRing) ring_epochs.push_back(e.a0);
      if (e.type == Type::kWorkerWake) wake_epochs.push_back(e.a0);
    }
  }
  ASSERT_FALSE(ring_epochs.empty());
  ASSERT_FALSE(wake_epochs.empty());
  // Every wake belongs to a rung epoch (the flow arrows bind).
  for (std::uint64_t epoch : wake_epochs) {
    EXPECT_NE(std::find(ring_epochs.begin(), ring_epochs.end(), epoch),
              ring_epochs.end())
        << "wake for unrung epoch " << epoch;
  }
  const std::string json = chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid());
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(Trace, CrashDumpFiresOnSeededCheckViolation) {
  ScopedTrace scoped(Mode::kRing);
  check::reset();
  const bool was_abort = check::abort_on_violation();
  check::set_abort_on_violation(false);

  // Seed a lock-order inversion through the check core directly (compiled
  // in every build): A(100) -> B(200), then B -> A.
  int a = 0;
  int b = 0;
  check::on_acquire(check::LockClass::kMrapiMutex, &a, 100, "trace_test:a1");
  check::on_acquire(check::LockClass::kMrapiMutex, &b, 200, "trace_test:b1");
  check::on_release(check::LockClass::kMrapiMutex, &b);
  check::on_release(check::LockClass::kMrapiMutex, &a);
  EXPECT_EQ(flight_record_count(), 0u);
  check::on_acquire(check::LockClass::kMrapiMutex, &b, 200, "trace_test:b2");
  check::on_acquire(check::LockClass::kMrapiMutex, &a, 100, "trace_test:a2");
  check::on_release(check::LockClass::kMrapiMutex, &a);
  check::on_release(check::LockClass::kMrapiMutex, &b);

  EXPECT_EQ(check::violation_count(), 1u);
  EXPECT_EQ(flight_record_count(), 1u);
  const std::string record = last_flight_record();
  EXPECT_NE(record.find("check:lock_order_inversion"), std::string::npos)
      << record;
  // The offending acquisitions are the newest events in the record.
  EXPECT_NE(record.find("lock_acquire class=0 key=200"), std::string::npos)
      << record;
  EXPECT_NE(record.find("lock_acquire class=0 key=100"), std::string::npos)
      << record;
  EXPECT_NE(record.find("check_violation"), std::string::npos) << record;

  check::set_abort_on_violation(was_abort);
  check::reset();
}

TEST(Trace, ModeRoundTripAndCapacityClamp) {
  set_mode(Mode::kFull);
  EXPECT_EQ(mode(), Mode::kFull);
  EXPECT_TRUE(enabled());
  set_mode(Mode::kOff);
  EXPECT_EQ(mode(), Mode::kOff);
  set_ring_capacity(100);  // rounds up to a power of two
  EXPECT_EQ(ring_capacity(), 128u);
  set_ring_capacity(1);  // clamps to the minimum
  EXPECT_EQ(ring_capacity(), 16u);
  set_ring_capacity(4096);
  reset();
}

}  // namespace
}  // namespace ompmca::obs::trace
