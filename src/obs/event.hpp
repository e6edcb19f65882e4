// The event seam: every runtime event has one name (obs::Event), one row in
// one constexpr table (kEventSinks) naming the sinks it feeds — telemetry
// counter, histogram and gauge, tenant meter, trace type — and one hook.
// The call sites know nothing of the sinks, the shape of the OMPT
// interface: a runtime reports events, the tools decide what to record.
//
//  * obs::Scope — RAII around a construct: one gate load, and when a sink
//    of the event is on, one clock read at each end; the event is delivered
//    once (counter +1, histogram sample, one trace duration event).
//  * obs::emit — a point event: counts, gauges (a0 is the value), trace
//    instants stamped now.  obs::emit_at takes stamps the caller holds (the
//    doorbell ring, a worker's wake): the histogram gets end - begin, the
//    trace a point at the end.
#pragma once

#include <array>
#include <cstdint>

#include "common/time.hpp"
#include "obs/gate.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::obs {

/// Every event the runtime reports, each named once.
enum class Event : unsigned {
  // gomp fork/join.
  kParallel,          // Scope: the whole region on the master
  kTenantRegion,      // emit_at: prepare-to-ring latency; a0 = degraded
  kForkRing,          // emit_at: the doorbell ring
  kWorkerWake,        // emit_at: ring -> worker starts the body
  kWorkerWork,        // Scope: a worker runs the region body
  kJoinWait,          // Scope: the master waits for the join
  kLeaseWait,         // emit_at: contended worker-lease wait
  kLeaseDegraded,     // a lease or slot came back narrower than asked
  kTeamDegraded,      // a worker launch failed; the team runs narrower
  kTeamMultiplexed,   // a region dispatched while another was in flight
  // gomp synchronisation and worksharing.
  kBarrier,
  kFor,
  kLoopChunk,
  kLoopStealAttempt,
  kLoopSteal,
  kSingle,
  kCritical,
  kCriticalContended,
  kReduction,
  // gomp explicit tasks.
  kTaskSpawn,
  kTaskEnqueue,       // a0 = the deque depth after the push
  kTaskloop,
  kTaskSteal,
  kTaskRun,
  // mrapi.
  kMutexLock,         // Scope: a blocking lock call
  kMutexAcquired,
  kMutexContended,
  kNodeCreate,
  kNodeRetire,
  kShmemCreate,
  kArenaAllocate,     // Scope: an allocate call
  kArenaAllocated,    // a0 = bytes in use after the allocation
  kArenaAllocateFailed,
  kArenaRelease,      // Scope: a release call
  kArenaReleased,
  // fault injection and the checker.
  kFaultInject,
  kFaultRecover,
  kFaultExhaust,
  kLockAcquire,
  kCheckViolation,
  // obs — the live monitor's own meters.
  kMonitorTick,
  kStallDetected,
  kCount
};

inline constexpr unsigned kNumEvents = static_cast<unsigned>(Event::kCount);

/// Which tenant meter an event feeds (monitor.hpp's tenant:: API).
enum class TenantSink : unsigned char {
  kNone,
  kRegion,     // on_region(duration, a0 != 0)
  kLeaseWait,  // add_lease_wait(duration)
};

/// Where one event lands.  A kCount enumerator means "no sink of that kind".
struct EventSinks {
  constexpr EventSinks(Event e, Counter c = Counter::kCount,
                       Hist h = Hist::kCount,
                       trace::Type t = trace::Type::kCount,
                       bool full = false, Gauge g = Gauge::kCount,
                       TenantSink ts = TenantSink::kNone)
      : event(e), counter(c), hist(h), trace(t), full_only(full), gauge(g),
        tenant(ts) {}

  Event event;
  Counter counter;
  Hist hist;
  trace::Type trace;
  bool full_only;  // traced in full mode only (per chunk, per steal)
  Gauge gauge;
  TenantSink tenant;

  /// The gate bits any of this event's sinks listens on.
  constexpr unsigned mask() const {
    unsigned bits = 0;
    if (counter != Counter::kCount || hist != Hist::kCount ||
        gauge != Gauge::kCount || tenant != TenantSink::kNone) {
      bits |= gate::kTelemetry;
    }
    if (trace != trace::Type::kCount) {
      bits |= full_only ? gate::kTraceFull : gate::kTraceRing;
    }
    return bits;
  }
};

// Columns: event, counter, histogram, trace type, full mode only, gauge,
// tenant meter.
inline constexpr std::array<EventSinks, kNumEvents> kEventSinks = [] {
  using E = Event;
  using C = Counter;
  using H = Hist;
  using T = trace::Type;
  using G = Gauge;
  return std::array<EventSinks, kNumEvents>{{
      {E::kParallel, C::kGompParallel, H::kGompParallelNs, T::kParallel},
      {E::kTenantRegion, C::kCount, H::kCount, T::kCount, false, G::kCount,
       TenantSink::kRegion},
      {E::kForkRing, C::kCount, H::kCount, T::kForkRing},
      {E::kWorkerWake, C::kGompPoolDispatch, H::kGompDoorbellWakeNs,
       T::kWorkerWake},
      {E::kWorkerWork, C::kCount, H::kCount, T::kWorkerWork},
      {E::kJoinWait, C::kCount, H::kCount, T::kJoinWait},
      {E::kLeaseWait, C::kCount, H::kGompLeaseWaitNs, T::kCount, false,
       G::kCount, TenantSink::kLeaseWait},
      {E::kLeaseDegraded, C::kGompLeaseDegraded},
      {E::kTeamDegraded, C::kGompTeamDegraded},
      {E::kTeamMultiplexed, C::kGompTeamMultiplexed},
      {E::kBarrier, C::kGompBarrier, H::kGompBarrierWaitCentralNs,
       T::kBarrier},
      {E::kFor, C::kGompFor, H::kGompForNs, T::kFor},
      {E::kLoopChunk, C::kCount, H::kCount, T::kLoopChunk, true},
      {E::kLoopStealAttempt, C::kGompLoopStealAttempt, H::kCount,
       T::kStealAttempt, true},
      {E::kLoopSteal, C::kGompLoopSteal, H::kCount, T::kSteal, true},
      {E::kSingle, C::kGompSingle, H::kGompSingleNs, T::kSingle},
      {E::kCritical, C::kGompCritical, H::kGompCriticalNs, T::kCritical},
      {E::kCriticalContended, C::kGompCriticalContended},
      {E::kReduction, C::kGompReduction, H::kGompReductionNs},
      {E::kTaskSpawn, C::kGompTaskSpawned, H::kCount, T::kTaskSpawn, true},
      {E::kTaskEnqueue, C::kCount, H::kCount, T::kCount, false,
       G::kGompTaskQueueDepthHwm},
      {E::kTaskloop, C::kGompTaskloop},
      {E::kTaskSteal, C::kGompTaskStolen, H::kCount, T::kTaskSteal, true},
      {E::kTaskRun, C::kCount, H::kCount, T::kTaskRun, true},
      {E::kMutexLock, C::kCount, H::kMrapiMutexAcquireNs, T::kMutexAcquire},
      {E::kMutexAcquired, C::kMrapiMutexAcquire},
      {E::kMutexContended, C::kMrapiMutexContended},
      {E::kNodeCreate, C::kMrapiNodeCreate, H::kCount, T::kNodeCreate},
      {E::kNodeRetire, C::kMrapiNodeRetire, H::kCount, T::kNodeRetire},
      {E::kShmemCreate, C::kCount, H::kCount, T::kShmemCreate},
      {E::kArenaAllocate, C::kCount, H::kMrapiArenaAllocateNs},
      {E::kArenaAllocated, C::kMrapiArenaAllocate, H::kCount, T::kCount,
       false, G::kMrapiArenaBytesInUseHwm},
      {E::kArenaAllocateFailed, C::kMrapiArenaAllocateFailed},
      {E::kArenaRelease, C::kCount, H::kMrapiArenaReleaseNs},
      {E::kArenaReleased, C::kMrapiArenaRelease},
      {E::kFaultInject, C::kCount, H::kCount, T::kFaultInject},
      {E::kFaultRecover, C::kCount, H::kCount, T::kFaultRecover},
      {E::kFaultExhaust, C::kCount, H::kCount, T::kFaultExhaust},
      {E::kLockAcquire, C::kCount, H::kCount, T::kLockAcquire},
      {E::kCheckViolation, C::kCount, H::kCount, T::kCheckViolation},
      {E::kMonitorTick, C::kObsMonitorTick},
      {E::kStallDetected, C::kObsStallDetected},
  }};
}();

namespace detail {

constexpr bool table_in_order() {
  for (unsigned i = 0; i < kNumEvents; ++i) {
    if (kEventSinks[i].event != static_cast<Event>(i)) return false;
    if (kEventSinks[i].mask() == 0) return false;  // an event with no sink
  }
  return true;
}
static_assert(table_in_order(),
              "kEventSinks rows must follow obs::Event order, one sink each");

/// Delivers one event to the sinks under @p bits (the gate word masked with
/// the event's own bits).  A @p span is traced over [begin_ns, end_ns], a
/// point event at end_ns.
void deliver(Event e, unsigned bits, std::uint64_t begin_ns,
             std::uint64_t end_ns, std::uint64_t a0, std::uint64_t a1,
             bool span);

}  // namespace detail

constexpr const EventSinks& sinks(Event e) {
  return kEventSinks[static_cast<unsigned>(e)];
}

/// True when some sink of @p e is on: for a caller that must take a stamp
/// which a later hook, or another thread, hands to emit_at().
inline bool on(Event e) { return (gate::bits() & sinks(e).mask()) != 0; }

/// A point event: counter, gauge (value @p a0), tenant meter, trace instant.
inline void emit(Event e, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
  const unsigned bits = gate::bits() & sinks(e).mask();
  if (bits == 0) return;
  const std::uint64_t now = (bits & gate::kTrace) ? monotonic_nanos() : 0;
  detail::deliver(e, bits, now, now, a0, a1, false);
}

/// A point event whose stamps the caller holds: the histogram and tenant
/// sinks get end_ns - begin_ns, the trace an instant at @p end_ns.
inline void emit_at(Event e, std::uint64_t begin_ns, std::uint64_t end_ns,
                    std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
  const unsigned bits = gate::bits() & sinks(e).mask();
  if (bits != 0) detail::deliver(e, bits, begin_ns, end_ns, a0, a1, false);
}

/// RAII duration hook: the gate is read once at entry, and the clock only
/// when a sink of the event is on; the event is delivered once at exit.
/// Payload words may be filled in before the scope ends.
class Scope {
 public:
  explicit Scope(Event e, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
      : a0_(a0), a1_(a1), event_(e), bits_(gate::bits() & sinks(e).mask()) {
    if (bits_ != 0) begin_ns_ = monotonic_nanos();
  }
  ~Scope() {
    if (bits_ != 0) {
      detail::deliver(event_, bits_, begin_ns_, monotonic_nanos(), a0_, a1_,
                      true);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_args(std::uint64_t a0, std::uint64_t a1 = 0) {
    a0_ = a0;
    a1_ = a1;
  }

 private:
  std::uint64_t begin_ns_ = 0;
  std::uint64_t a0_;
  std::uint64_t a1_;
  Event event_;
  unsigned bits_;
};

}  // namespace ompmca::obs
