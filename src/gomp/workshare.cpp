#include "gomp/workshare.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::gomp {

bool static_chunk(long begin, long end, long chunk, unsigned tid,
                  unsigned nthreads, long pos, long* lo, long* hi) {
  const long count = end - begin;
  if (count <= 0) return false;
  if (chunk <= 0) {
    // Block partition: one contiguous chunk per thread, remainder spread
    // over the first threads (libGOMP's static split).
    if (pos > 0) return false;
    const long base = count / static_cast<long>(nthreads);
    const long rem = count % static_cast<long>(nthreads);
    const long t = static_cast<long>(tid);
    long my_lo = begin + t * base + std::min(t, rem);
    long my_count = base + (t < rem ? 1 : 0);
    if (my_count <= 0) return false;
    *lo = my_lo;
    *hi = my_lo + my_count;
    return true;
  }
  // Cyclic chunks: thread's pos-th chunk starts at (tid + pos*nthreads)*chunk.
  const long start =
      begin + (static_cast<long>(tid) + pos * static_cast<long>(nthreads)) *
                  chunk;
  if (start >= end) return false;
  *lo = start;
  *hi = std::min(end, start + chunk);
  return true;
}

void RingClaim::leave() {
  // One fetch_add per thread; the acq_rel RMW chain makes every leaver's
  // reads of the configuration happen-before the last leaver's free, which
  // the next generation's claim acquires.  participants_ is read *before*
  // the fetch_add: once a non-last leaver has counted itself, the last
  // leaver may free the slot and the next claimant overwrite it.
  const unsigned participants = participants_;
  if (left_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants) {
    left_.store(0, std::memory_order_relaxed);
    // seq_cst: waker half of parker_'s Dekker pair (a thread a ring ahead
    // may be parked on this slot).
    state_.store(kFree, std::memory_order_seq_cst);
    parker_.wake();
  }
}

void RingClaim::reset() {
  left_.store(0, std::memory_order_relaxed);
  state_.store(kFree, std::memory_order_relaxed);
}

void LoopInstance::enter(unsigned long gen, long begin, long end,
                         ScheduleSpec spec, unsigned nthreads,
                         std::uint64_t spin_ns) {
  claim_.enter(gen, nthreads, spin_ns,
               [&] { configure(begin, end, spec, nthreads); });
}

void LoopInstance::configure(long begin, long end, ScheduleSpec spec,
                             unsigned nthreads) {
  begin_ = begin;
  end_ = end;
  spec_ = spec;
  if (spec_.kind == Schedule::kRuntime) spec_.kind = Schedule::kStatic;
  if (spec_.chunk <= 0 &&
      (spec_.kind == Schedule::kDynamic || spec_.kind == Schedule::kGuided)) {
    spec_.chunk = 1;
  }
  nthreads_ = nthreads;
  const long total = end - begin;
  // Distribute only when each thread gets enough chunks to amortise the
  // machinery: a loop with ~one chunk per thread pays the O(nthreads)
  // empty-scan at loop end without ever amortising it, and a single shared
  // fetch_add is cheaper there.
  const long min_iters = kMinChunksPerThread * static_cast<long>(nthreads) *
                         std::max(spec_.chunk, 1L);
  distributed_ = (spec_.kind == Schedule::kDynamic ||
                  spec_.kind == Schedule::kGuided) &&
                 nthreads > 1 && total >= min_iters &&
                 total <= kMaxStealableIters;
  if (distributed_) {
    if (ranges_cap_ < nthreads) {
      ranges_ = std::make_unique<RangeSlot[]>(nthreads);
      ranges_cap_ = nthreads;
    }
    // Pre-slice [0, total) into one contiguous range per thread.  The
    // claim's release publication orders these before any peer's claims,
    // so relaxed stores suffice here.
    for (unsigned t = 0; t < nthreads; ++t) {
      const auto t_lo = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(total) * t / nthreads);
      const auto t_hi = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(total) * (t + 1) / nthreads);
      ranges_[t].range.store(pack(t_lo, t_hi), std::memory_order_relaxed);
    }
  }
  cursor_.store(begin, std::memory_order_relaxed);
  // ordered_next_ belongs to ordered_mu_; this uncontended acquire (no
  // thread of this generation can reach ordered_wait before the claim
  // publishes) keeps the field single-lock.
  MutexLock olk(ordered_mu_);
  ordered_next_ = begin;
}

std::uint32_t LoopInstance::claim_size(std::uint32_t len) const {
  const auto chunk = static_cast<std::uint32_t>(
      std::min(spec_.chunk, kMaxStealableIters));
  if (spec_.kind == Schedule::kGuided) {
    // Guided decay, localised: half of what this thread still holds, never
    // below the minimum chunk.  Ranges start at ~total/nthreads, so chunk
    // sizes shrink geometrically exactly like the shared-cursor form.
    return std::min(len, std::max(chunk, len / 2));
  }
  return std::min(len, chunk);
}

bool LoopInstance::claim_local(unsigned slot, long* lo, long* hi) {
  std::uint64_t cur = ranges_[slot].range.load(std::memory_order_acquire);
  for (;;) {
    const std::uint32_t r_lo = range_lo(cur);
    const std::uint32_t r_hi = range_hi(cur);
    if (r_lo >= r_hi) return false;
    const std::uint32_t take = claim_size(r_hi - r_lo);
    if (ranges_[slot].range.compare_exchange_weak(cur, pack(r_lo + take, r_hi),
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire)) {
      *lo = begin_ + static_cast<long>(r_lo);
      *hi = begin_ + static_cast<long>(r_lo + take);
      return true;
    }
  }
}

bool LoopInstance::steal_range(unsigned tid, long* lo, long* hi) {
  const unsigned n = nthreads_;
  for (;;) {
    bool any_work = false;
    for (unsigned off = 1; off < n; ++off) {
      const unsigned v = (tid + off) % n;
      std::uint64_t cur = ranges_[v].range.load(std::memory_order_acquire);
      for (;;) {
        const std::uint32_t v_lo = range_lo(cur);
        const std::uint32_t v_hi = range_hi(cur);
        if (v_lo >= v_hi) break;
        any_work = true;
        obs::count(obs::Counter::kGompLoopStealAttempt);
        if (obs::trace::verbose()) {
          obs::trace::instant(obs::trace::Type::kStealAttempt, v);
        }
        // Victim keeps the front half (its cache-warm prefix); we take the
        // back half.  A one-iteration range is taken whole.
        const std::uint32_t mid = v_lo + (v_hi - v_lo) / 2;
        if (ranges_[v].range.compare_exchange_weak(
                cur, pack(v_lo, mid), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          obs::count(obs::Counter::kGompLoopSteal);
          if (obs::trace::verbose()) {
            obs::trace::instant(obs::trace::Type::kSteal, v);
          }
          const std::uint32_t take = claim_size(v_hi - mid);
          if (mid + take < v_hi) {
            // Park the rest in our own slot (empty — that's why we're
            // stealing; only the owner ever refills it).
            ranges_[tid].range.store(pack(mid + take, v_hi),
                                     std::memory_order_release);
          }
          *lo = begin_ + static_cast<long>(mid);
          *hi = begin_ + static_cast<long>(mid + take);
          return true;
        }
        // Lost the race; re-examine this victim with the fresh value.
      }
    }
    if (!any_work) return false;
  }
}

bool LoopInstance::next_chunk(unsigned tid, long* thread_pos, long* lo,
                              long* hi) {
  const bool got = next_chunk_impl(tid, thread_pos, lo, hi);
  // Per-chunk events are full-mode only: a clock read per chunk is
  // measurable on EPCC FOR, and the always-on ring tier must stay cheap.
  if (got && obs::trace::verbose()) {
    obs::trace::instant(obs::trace::Type::kLoopChunk,
                        static_cast<std::uint64_t>(*lo),
                        static_cast<std::uint64_t>(*hi));
  }
  return got;
}

bool LoopInstance::next_chunk_impl(unsigned tid, long* thread_pos, long* lo,
                                   long* hi) {
  switch (spec_.kind) {
    case Schedule::kAuto:
    case Schedule::kStatic: {
      bool got = static_chunk(begin_, end_,
                              spec_.kind == Schedule::kAuto ? 0 : spec_.chunk,
                              tid, nthreads_, *thread_pos, lo, hi);
      if (got) ++*thread_pos;
      return got;
    }
    case Schedule::kDynamic:
    case Schedule::kGuided: {
      if (distributed_) {
        if (claim_local(tid, lo, hi)) return true;
        return steal_range(tid, lo, hi);
      }
      // Shared-cursor fallback (width-1 teams, > 2^31-1 iterations).
      if (spec_.kind == Schedule::kDynamic) {
        long start = cursor_.fetch_add(spec_.chunk, std::memory_order_relaxed);
        if (start >= end_) return false;
        *lo = start;
        *hi = std::min(end_, start + spec_.chunk);
        return true;
      }
      long cur = cursor_.load(std::memory_order_relaxed);
      long next;
      do {
        if (cur >= end_) return false;
        const long remaining = end_ - cur;
        const long size = std::max(
            spec_.chunk, remaining / (2 * static_cast<long>(nthreads_)));
        next = std::min(end_, cur + size);
      } while (!cursor_.compare_exchange_weak(cur, next,
                                              std::memory_order_relaxed));
      *lo = cur;
      *hi = next;
      return true;
    }
    case Schedule::kRuntime:
      break;  // resolved at enter()
  }
  return false;
}

void LoopInstance::ordered_wait(long iter) {
  MutexLock lk(ordered_mu_);
  lk.wait(ordered_cv_, [&, this]() OMPMCA_REQUIRES(ordered_mu_) {
    return ordered_next_ == iter;
  });
}

void LoopInstance::ordered_post() {
  {
    MutexLock lk(ordered_mu_);
    ++ordered_next_;
  }
  ordered_cv_.notify_all();
}

void SectionsInstance::enter(unsigned long gen, int num_sections,
                             unsigned nthreads, std::uint64_t spin_ns) {
  claim_.enter(gen, nthreads, spin_ns, [&] {
    num_sections_ = num_sections;
    cursor_.store(0, std::memory_order_relaxed);
  });
}

int SectionsInstance::next_section() {
  int idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  return idx < num_sections_ ? idx : -1;
}

}  // namespace ompmca::gomp
