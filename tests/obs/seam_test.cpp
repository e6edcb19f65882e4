// The event seam, table-driven: every obs::Event, hooked once, lands in
// exactly the sinks its kEventSinks row names — one counter bump, one
// histogram sample, one gauge value, one tenant-meter update, one trace
// event of its type — and in nothing else.  Full-only events stay out of
// the ring tier, and with every sink off no hook changes anything.  Counts
// only: no assertion depends on how long anything took.
#include "obs/event.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/monitor.hpp"

namespace ompmca::obs {
namespace {

constexpr std::uint64_t kA0 = 7;
constexpr std::uint64_t kA1 = 11;
constexpr std::uint64_t kBegin = 1000;
constexpr std::uint64_t kEnd = 1250;

/// Clean sinks before each case; everything off again afterwards.
class Seam : public ::testing::Test {
 protected:
  void SetUp() override { arm(false, trace::Mode::kOff); }
  void TearDown() override { arm(false, trace::Mode::kOff); }

  static void arm(bool telemetry, trace::Mode mode) {
    set_enabled(false);
    trace::set_mode(trace::Mode::kOff);
    Registry::instance().reset();
    trace::reset();
    tenant::reset();
    set_enabled(telemetry);
    trace::set_mode(mode);
  }
};

std::vector<trace::Event> trace_events() {
  std::vector<trace::Event> out;
  for (const trace::ThreadTrace& t : trace::snapshot()) {
    out.insert(out.end(), t.events.begin(), t.events.end());
  }
  return out;
}

struct TenantTotals {
  std::uint64_t regions = 0;
  std::uint64_t degraded = 0;
  std::uint64_t lease_wait_ns = 0;
  std::uint64_t dispatch_samples = 0;
};

TenantTotals tenant_totals() {
  TenantTotals t;
  for (const tenant::Snap& s : tenant::snapshot()) {
    t.regions += s.regions;
    t.degraded += s.degraded_width;
    t.lease_wait_ns += s.lease_wait_ns;
    t.dispatch_samples += s.dispatch.count;
  }
  return t;
}

std::string label(Event e) {
  return "event #" + std::to_string(static_cast<unsigned>(e));
}

/// Every telemetry sink holds exactly what one delivery of @p row adds
/// (@p exact_duration: the hook's stamps were kBegin/kEnd).
void expect_telemetry_of(const EventSinks& row, bool exact_duration) {
  const Snapshot s = Registry::instance().snapshot();
  const std::string who = label(row.event);
  for (unsigned c = 0; c < kNumCounters; ++c) {
    const bool mine = static_cast<Counter>(c) == row.counter;
    EXPECT_EQ(s.counters[c], mine ? 1u : 0u)
        << who << " counter " << name(static_cast<Counter>(c));
  }
  for (unsigned h = 0; h < kNumHists; ++h) {
    const bool mine = static_cast<Hist>(h) == row.hist;
    EXPECT_EQ(s.hists[h].count, mine ? 1u : 0u)
        << who << " histogram " << name(static_cast<Hist>(h));
    if (mine && exact_duration) {
      EXPECT_EQ(s.hists[h].sum_ns, kEnd - kBegin) << who;
    }
  }
  for (unsigned g = 0; g < kNumGauges; ++g) {
    const bool mine = static_cast<Gauge>(g) == row.gauge;
    EXPECT_EQ(s.gauges[g], mine ? kA0 : 0u)
        << who << " gauge " << name(static_cast<Gauge>(g));
  }
  const TenantTotals t = tenant_totals();
  const bool region = row.tenant == TenantSink::kRegion;
  EXPECT_EQ(t.regions, region ? 1u : 0u) << who;
  EXPECT_EQ(t.dispatch_samples, region ? 1u : 0u) << who;
  EXPECT_EQ(t.degraded, region ? 1u : 0u) << who;  // a0 != 0: degraded
  if (row.tenant == TenantSink::kLeaseWait && exact_duration) {
    EXPECT_EQ(t.lease_wait_ns, kEnd - kBegin) << who;
  } else if (row.tenant != TenantSink::kLeaseWait) {
    EXPECT_EQ(t.lease_wait_ns, 0u) << who;
  }
}

/// The trace holds one event of @p row's type when @p expect_one, else none.
void expect_trace_of(const EventSinks& row, bool expect_one) {
  const std::vector<trace::Event> events = trace_events();
  ASSERT_EQ(events.size(), expect_one ? 1u : 0u) << label(row.event);
  if (!expect_one) return;
  EXPECT_EQ(events[0].type, row.trace) << label(row.event);
  EXPECT_EQ(events[0].a0, kA0) << label(row.event);
  EXPECT_EQ(events[0].a1, kA1) << label(row.event);
  EXPECT_LE(events[0].begin_ns, events[0].end_ns) << label(row.event);
}

bool ring_traced(const EventSinks& row) {
  return row.trace != trace::Type::kCount && !row.full_only;
}

TEST_F(Seam, EmitAtFeedsExactlyTheRowsSinks) {
  for (const EventSinks& row : kEventSinks) {
    arm(true, trace::Mode::kRing);
    emit_at(row.event, kBegin, kEnd, kA0, kA1);
    expect_telemetry_of(row, /*exact_duration=*/true);
    expect_trace_of(row, ring_traced(row));
    const std::vector<trace::Event> events = trace_events();
    if (!events.empty()) {
      // A point event, stamped at the end.
      EXPECT_EQ(events[0].begin_ns, kEnd) << label(row.event);
      EXPECT_EQ(events[0].end_ns, kEnd) << label(row.event);
    }
  }
}

TEST_F(Seam, ScopeFeedsExactlyTheRowsSinks) {
  for (const EventSinks& row : kEventSinks) {
    arm(true, trace::Mode::kRing);
    { Scope scope(row.event, kA0, kA1); }
    expect_telemetry_of(row, /*exact_duration=*/false);
    expect_trace_of(row, ring_traced(row));
  }
}

TEST_F(Seam, EmitFeedsExactlyTheRowsSinks) {
  for (const EventSinks& row : kEventSinks) {
    arm(true, trace::Mode::kRing);
    emit(row.event, kA0, kA1);
    expect_telemetry_of(row, /*exact_duration=*/false);
    expect_trace_of(row, ring_traced(row));
  }
}

TEST_F(Seam, FullOnlyEventsTraceOnlyInFullMode) {
  unsigned full_only = 0;
  for (const EventSinks& row : kEventSinks) {
    if (row.trace == trace::Type::kCount) continue;
    arm(false, trace::Mode::kRing);
    emit(row.event, kA0, kA1);
    expect_trace_of(row, !row.full_only);

    arm(false, trace::Mode::kFull);
    emit(row.event, kA0, kA1);
    expect_trace_of(row, true);
    if (row.full_only) ++full_only;
  }
  EXPECT_GT(full_only, 0u);
}

TEST_F(Seam, EverySinkOffChangesNothing) {
  arm(false, trace::Mode::kOff);
  for (const EventSinks& row : kEventSinks) {
    EXPECT_FALSE(on(row.event)) << label(row.event);
    emit(row.event, kA0, kA1);
    emit_at(row.event, kBegin, kEnd, kA0, kA1);
    { Scope scope(row.event, kA0, kA1); }
  }
  const Snapshot s = Registry::instance().snapshot();
  for (std::uint64_t c : s.counters) EXPECT_EQ(c, 0u);
  for (std::uint64_t g : s.gauges) EXPECT_EQ(g, 0u);
  for (const HistogramData& h : s.hists) EXPECT_EQ(h.count, 0u);
  EXPECT_TRUE(trace_events().empty());
  const TenantTotals t = tenant_totals();
  EXPECT_EQ(t.regions, 0u);
  EXPECT_EQ(t.lease_wait_ns, 0u);
  EXPECT_EQ(t.dispatch_samples, 0u);
}

TEST_F(Seam, GateWordBacksEveryView) {
  arm(true, trace::Mode::kFull);
  EXPECT_TRUE(enabled());
  EXPECT_TRUE(trace::enabled());
  EXPECT_TRUE(trace::verbose());
  EXPECT_EQ(trace::mode(), trace::Mode::kFull);
  trace::set_mode(trace::Mode::kRing);
  EXPECT_TRUE(enabled());  // the trace setter leaves the telemetry bit alone
  EXPECT_TRUE(trace::enabled());
  EXPECT_FALSE(trace::verbose());
  EXPECT_EQ(trace::mode(), trace::Mode::kRing);
  set_enabled(false);
  EXPECT_EQ(trace::mode(), trace::Mode::kRing);
  EXPECT_EQ(gate::bits(), gate::kTraceRing);
  EXPECT_FALSE(monitor::armed());
}

}  // namespace
}  // namespace ompmca::obs
