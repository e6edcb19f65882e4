// Worksharing-loop and sections state shared by a team.
//
// Static loops have none: a thread computes its own [lo, hi) from its tid
// and the team width with static_chunk(), as libGOMP and GCC's inlined
// static schedule do, so a static `for` touches no shared memory at all
// and consumes no ring slot.  Everything below serves the constructs that
// must share state: dynamic, guided and ordered loops, and sections.
//
// One LoopInstance (or SectionsInstance) is the shared descriptor of one
// such construct execution.  A team keeps a small ring of each so `nowait`
// constructs can overlap: threads may be up to kWorkshareRing constructs
// apart before the earliest must fully drain (libGOMP has the same kind of
// bounded lookahead).  Every ring slot runs one claim protocol, RingClaim:
// the first arriver of a generation claims the slot with a CAS on its
// state word and configures it; later arrivers of that generation wait
// only for the configuration's release publication; a thread that arrives
// a whole ring ahead waits, through spin_then_park, for the slot's last
// leaver to free it.  No thread takes a lock on the way in or out.
//
// Dynamic and guided schedules use distributed per-thread ranges with
// work-stealing instead of one shared cursor: the iteration space is
// pre-sliced into one contiguous range per thread (a single packed 64-bit
// atomic each, cache-line padded), owners claim chunks off the front of
// their own range, and a thread whose range runs dry steals the back half
// of a victim's range, scanning victims in one pass from its right-hand
// neighbour ((tid + off) % n).  Every iteration has a
// unique remover (owner CAS on the front, thief CAS on the back), so
// exactly-once execution holds by construction.  Loops too large for the
// 32-bit packed offsets, width-1 teams, and loops too small to amortise the
// per-thread slots (under kMinChunksPerThread chunks per thread) fall back
// to the shared cursor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>

#include "common/align.hpp"
#include "common/annotations.hpp"
#include "common/locks.hpp"
#include "gomp/icv.hpp"
#include "gomp/wait.hpp"

namespace ompmca::gomp {

/// The claim protocol of one workshare ring slot (see the file comment).
/// The slot's state word is kFree, or a generation shifted left by one with
/// the low bit set once that generation's configuration is published.
class RingClaim {
 public:
  /// Joins generation @p gen of @p participants threads.  The thread that
  /// claims the slot runs @p configure and publishes it; every other thread
  /// returns once the configuration is visible.  @p spin_ns is the team's
  /// spin window for the two waits (a peer configuring, an older
  /// generation draining).
  template <typename Configure>
  void enter(unsigned long gen, unsigned participants, std::uint64_t spin_ns,
             Configure&& configure) {
    const unsigned long claimed = gen << 1;
    const unsigned long ready = claimed | 1;
    // acquire: a ready word publishes the configuration written before it.
    unsigned long s = state_.load(std::memory_order_acquire);
    while (s != ready) {
      if (s == kFree) {
        // acquire on success: the previous generation's last leave()
        // released the slot, so its readers are done with the fields the
        // configuration overwrites.
        if (state_.compare_exchange_weak(s, claimed,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          participants_ = participants;
          configure();
          // seq_cst: waker half of parker_'s Dekker pair (and the release
          // that publishes the configuration to this generation's peers).
          state_.store(ready, std::memory_order_seq_cst);
          parker_.wake();
          return;
        }
        continue;  // the failed CAS reloaded s
      }
      // A peer is configuring this generation, or an older one has not
      // drained yet: both end in a state the predicate accepts.
      spin_then_park(kRingSite, spin_ns, parker_, [&] {
        // seq_cst: waiter half of parker_'s Dekker pair.
        s = state_.load(std::memory_order_seq_cst);
        return s == kFree || s == ready;
      });
    }
  }

  /// Counts the caller out of the current generation; the last leaver
  /// frees the slot for the generation a ring ahead.
  void leave();

  /// Frees the slot outright (a reused team, between regions).
  void reset();

 private:
  static constexpr unsigned long kFree = ~0ul;

  std::atomic<unsigned long> state_{kFree};
  // Written by the claiming thread before the ready publication, read by
  // this generation's leavers: protocol-published, not lock-guarded.
  unsigned participants_ = 0;
  std::atomic<unsigned> left_{0};
  Parker parker_;
};

class LoopInstance {
 public:
  /// Joins generation @p gen (see RingClaim): the first arriver configures
  /// the descriptor, later arrivers wait for its publication.
  /// @p spin_ns is the team's spin window for the claim's waits.
  void enter(unsigned long gen, long begin, long end, ScheduleSpec spec,
             unsigned nthreads, std::uint64_t spin_ns = 0);

  /// Next chunk for @p tid; false when no work is left anywhere (stealing
  /// schedules) or the thread's share is exhausted (static).
  /// @p thread_pos is per-thread cursor state owned by the caller
  /// (chunk ordinal for static schedules; ignored otherwise).
  bool next_chunk(unsigned tid, long* thread_pos, long* lo, long* hi);

 private:
  /// next_chunk's schedule dispatch; the public wrapper adds the trace hook.
  bool next_chunk_impl(unsigned tid, long* thread_pos, long* lo, long* hi);

 public:

  /// Marks the caller done with this generation (enables ring recycling).
  void leave() { claim_.leave(); }

  /// Frees the ring slot for a reused team's next region.
  void reset() { claim_.reset(); }

  // --- ordered(§ worksharing) -------------------------------------------------
  /// Blocks until iteration @p iter is the next in sequence, runs nothing —
  /// the caller executes its ordered body between ordered_wait and
  /// ordered_post.
  void ordered_wait(long iter);
  void ordered_post();

  ScheduleSpec spec() const { return spec_; }

  /// True when this generation hands out distributed per-thread ranges
  /// (the work-stealing path) rather than a shared cursor.
  bool distributed() const { return distributed_; }

 private:
  // A thread's remaining range, packed [lo:32][hi:32] as offsets from
  // begin_.  Owner claims [lo, lo+k) with a CAS on the front; a thief
  // claims [mid, hi) with a CAS on the back.  Empty when lo >= hi.
  struct alignas(kCacheLineBytes) RangeSlot {
    std::atomic<std::uint64_t> range{0};
  };
  static constexpr long kMaxStealableIters = 0x7fffffffL;
  // Minimum chunks per thread before distribution pays for itself; below
  // this the shared cursor wins (loop-end detection there is one load, not
  // an O(nthreads) scan of every slot).
  static constexpr long kMinChunksPerThread = 4;

  static std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  static std::uint32_t range_lo(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
  }
  static std::uint32_t range_hi(std::uint64_t r) {
    return static_cast<std::uint32_t>(r);
  }

  /// Chunk size for a claim from a range with @p len iterations left.
  std::uint32_t claim_size(std::uint32_t len) const;
  /// Claims the next chunk off the front of @p slot's own range.
  bool claim_local(unsigned slot, long* lo, long* hi);
  /// Scans victims in one pass and steals the back half of one.
  bool steal_range(unsigned tid, long* lo, long* hi);

  /// The claiming thread's half of enter(): writes the configuration that
  /// the claim then publishes to the generation's other threads.
  void configure(long begin, long end, ScheduleSpec spec, unsigned nthreads);

  // The configuration below is written by the claiming thread and read
  // lock-free by the team once claim_ publishes it.
  RingClaim claim_;
  long begin_ = 0;
  long end_ = 0;
  ScheduleSpec spec_;
  unsigned nthreads_ = 1;
  bool distributed_ = false;
  unsigned ranges_cap_ = 0;
  std::unique_ptr<RangeSlot[]> ranges_;
  alignas(kCacheLineBytes) std::atomic<long> cursor_{0};

  CapMutex ordered_mu_;
  std::condition_variable ordered_cv_;
  long ordered_next_ OMPMCA_GUARDED_BY(ordered_mu_) = 0;
};

/// Shared state for a `sections` construct: threads pull section indices.
class SectionsInstance {
 public:
  /// Joins generation @p gen of the construct (same claim as loops).
  void enter(unsigned long gen, int num_sections, unsigned nthreads,
             std::uint64_t spin_ns = 0);
  /// Index of the next unexecuted section, or -1 when exhausted.
  int next_section();
  void leave() { claim_.leave(); }
  void reset() { claim_.reset(); }

 private:
  RingClaim claim_;
  // Written by the claiming thread, published by claim_.
  int num_sections_ = 0;
  alignas(kCacheLineBytes) std::atomic<int> cursor_{0};
};

/// Computes chunk [lo, hi) number @p pos for a static schedule.
/// Returns false when @p tid has no chunk @p pos.
bool static_chunk(long begin, long end, long chunk, unsigned tid,
                  unsigned nthreads, long pos, long* lo, long* hi);

}  // namespace ompmca::gomp
