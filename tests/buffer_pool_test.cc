// BufferPool invariants: pin/unpin refcount balance, eviction never
// reclaiming pinned frames, budget enforcement under concurrent random
// access (the TSan target of this suite), and single-flight miss loading.
//
// The pool never reads data through the pointers it is given beyond
// prefaulting one byte per page, so an anonymous private mapping is a
// faithful stand-in for an mmapped snapshot: MADV_DONTNEED on it is safe
// (pages refault zero-filled, and nothing here reads them).

#include "pager/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define VER_TEST_HAVE_MMAP 1
#endif

namespace ver {
namespace {

constexpr uint64_t kFrame = 4096;  // smallest legal frame: 1 OS page

// Page-aligned read-only arena the pool can prefault and madvise freely.
class Arena {
 public:
  explicit Arena(uint64_t bytes) : bytes_(bytes) {
#if defined(VER_TEST_HAVE_MMAP)
    void* p = mmap(nullptr, static_cast<size_t>(bytes), PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    base_ = p == MAP_FAILED ? nullptr : static_cast<char*>(p);
#endif
  }
  ~Arena() {
#if defined(VER_TEST_HAVE_MMAP)
    if (base_ != nullptr) munmap(base_, static_cast<size_t>(bytes_));
#endif
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  const char* base() const { return base_; }
  uint64_t bytes() const { return bytes_; }

 private:
  char* base_ = nullptr;
  uint64_t bytes_ = 0;
};

BufferPoolOptions SmallPool(uint64_t budget_bytes) {
  BufferPoolOptions o;
  o.memory_budget_bytes = budget_bytes;
  o.frame_bytes = kFrame;
  return o;
}

TEST(BufferPoolTest, PinUnpinBalancesAndCharges) {
  Arena arena(16 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  BufferPool pool(SmallPool(64 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());

  // First pin of two frames: two misses, two frames charged.
  pool.Pin(space, 0, 2 * kFrame);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.resident_bytes, static_cast<int64_t>(2 * kFrame));
  EXPECT_EQ(s.spaces, 1);

  // Second pin of an overlapping range: pure hits, no new charge.
  pool.Pin(space, kFrame, kFrame);
  s = pool.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.resident_bytes, static_cast<int64_t>(2 * kFrame));

  // Unpin in the reverse order; residency persists (frames go cold on the
  // LRU, they are not discarded while under budget).
  pool.Unpin(space, kFrame, kFrame);
  pool.Unpin(space, 0, 2 * kFrame);
  s = pool.stats();
  EXPECT_EQ(s.resident_bytes, static_cast<int64_t>(2 * kFrame));
  EXPECT_EQ(s.evictions, 0);

  // Re-pinning a cold resident frame is a hit, not a reload.
  pool.Pin(space, 0, 1);
  s = pool.stats();
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.misses, 2);
  pool.Unpin(space, 0, 1);
}

TEST(BufferPoolTest, ZeroLengthPinIsNoOp) {
  Arena arena(4 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  BufferPool pool(SmallPool(4 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());
  pool.Pin(space, 0, 0);
  pool.Unpin(space, 0, 0);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, 0);
  EXPECT_EQ(s.resident_bytes, 0);
}

TEST(BufferPoolTest, EvictionRespectsBudgetAndSkipsPinned) {
  Arena arena(16 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  // Budget of 4 frames over a 16-frame space forces eviction.
  BufferPool pool(SmallPool(4 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());

  // Keep frames 0..1 pinned the whole time.
  pool.Pin(space, 0, 2 * kFrame);

  // Touch every other frame once, releasing each immediately.
  for (uint64_t f = 2; f < 16; ++f) {
    pool.Pin(space, f * kFrame, kFrame);
    pool.Unpin(space, f * kFrame, kFrame);
    BufferPoolStats s = pool.stats();
    // Budget holds at every step (nothing pinned exceeds it here).
    EXPECT_LE(s.resident_bytes, static_cast<int64_t>(4 * kFrame));
    // The pinned frames are never reclaimed: re-pinning them must be a
    // hit, never a miss (misses == frames ever first-loaded).
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 16);  // every frame loaded exactly once so far
  EXPECT_GE(s.evictions, 12);
  EXPECT_LE(s.resident_bytes, static_cast<int64_t>(4 * kFrame));

  // Frames 0..1 survived every eviction pass while pinned.
  pool.Pin(space, 0, 2 * kFrame);
  s = pool.stats();
  EXPECT_EQ(s.misses, 16);
  pool.Unpin(space, 0, 2 * kFrame);
  pool.Unpin(space, 0, 2 * kFrame);
}

TEST(BufferPoolTest, PeakResidencyStaysWithinBudgetAcrossMisses) {
  Arena arena(16 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  // Budget of 4 frames; every pin below fits in it, so the pool must evict
  // before it charges past the budget and the high-water mark may never
  // pass it.
  const int64_t budget = 4 * kFrame;
  BufferPool pool(SmallPool(static_cast<uint64_t>(budget)));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t f = 0; f < 16; ++f) {
      pool.Pin(space, f * kFrame, kFrame);
      pool.Unpin(space, f * kFrame, kFrame);
    }
    // Two-frame pins: the second frame of each pin misses while the first
    // is still held.
    for (uint64_t f = 0; f + 1 < 16; f += 2) {
      pool.Pin(space, f * kFrame, 2 * kFrame);
      pool.Unpin(space, f * kFrame, 2 * kFrame);
    }
  }
  BufferPoolStats s = pool.stats();
  EXPECT_GT(s.misses, 16);  // frames were evicted and reloaded
  EXPECT_GT(s.evictions, 0);
  EXPECT_EQ(s.pinned_overcommit, 0);
  EXPECT_LE(s.peak_resident_bytes, budget);
  EXPECT_LE(s.resident_bytes, budget);
}

TEST(BufferPoolTest, PinnedWorkingSetMayOvercommitButIsCounted) {
  Arena arena(8 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  // Budget of 2 frames; pin 6 at once — queries must not deadlock on an
  // undersized budget, so the pool overcommits and counts it.
  BufferPool pool(SmallPool(2 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());
  pool.Pin(space, 0, 6 * kFrame);
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.resident_bytes, static_cast<int64_t>(6 * kFrame));
  EXPECT_GT(s.pinned_overcommit, 0);
  EXPECT_EQ(s.evictions, 0);

  // Releasing the pins lets eviction reach the budget again.
  pool.Unpin(space, 0, 6 * kFrame);
  s = pool.stats();
  EXPECT_LE(s.resident_bytes, static_cast<int64_t>(2 * kFrame));
}

TEST(BufferPoolTest, RetireSpaceDropsUnpinnedKeepsPinnedUntilDrain) {
  Arena arena(8 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  BufferPool pool(SmallPool(64 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());

  pool.Pin(space, 0, kFrame);             // stays pinned across retire
  pool.Pin(space, 4 * kFrame, kFrame);    // released before retire
  pool.Unpin(space, 4 * kFrame, kFrame);

  pool.RetireSpace(space);
  BufferPoolStats s = pool.stats();
  // The unpinned frame is gone; the pinned one lingers, still charged.
  EXPECT_EQ(s.resident_bytes, static_cast<int64_t>(kFrame));
  EXPECT_EQ(s.spaces, 1);

  // Draining the last pin releases the charge and forgets the space.
  pool.Unpin(space, 0, kFrame);
  s = pool.stats();
  EXPECT_EQ(s.resident_bytes, 0);
  EXPECT_EQ(s.spaces, 0);
}

TEST(BufferPoolTest, PagePinReleasesEverythingOnDestruction) {
  Arena arena(8 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  BufferPool pool(SmallPool(2 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());
  {
    PagePin pin(&pool);
    pin.PinRange(space, 0, 3 * kFrame);
    pin.PinRange(space, 5 * kFrame, kFrame);
    pin.PinRange(space, 0, 0);  // no-op
    BufferPoolStats s = pool.stats();
    EXPECT_EQ(s.resident_bytes, static_cast<int64_t>(4 * kFrame));
  }
  // Destructor unpinned everything; eviction trims back to budget.
  BufferPoolStats s = pool.stats();
  EXPECT_LE(s.resident_bytes, static_cast<int64_t>(2 * kFrame));

  // A default-constructed pin is inert.
  PagePin inert;
  inert.PinRange(space, 0, kFrame);  // no pool: must not touch the pool
  EXPECT_EQ(pool.stats().hits + pool.stats().misses,
            s.hits + s.misses);
}

TEST(BufferPoolTest, MovedFromPagePinIsInert) {
  Arena arena(4 * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  BufferPool pool(SmallPool(64 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());
  PagePin a(&pool);
  a.PinRange(space, 0, kFrame);
  PagePin b = std::move(a);
  // `a` no longer owns the range; destroying it must not double-unpin.
  a.Release();
  EXPECT_EQ(pool.stats().resident_bytes, static_cast<int64_t>(kFrame));
  b.Release();
}

TEST(BufferPoolTest, BudgetHeldUnderConcurrentRandomAccess) {
  // 8 threads hammer random frames of a 64-frame space through RAII pins
  // against an 8-frame budget. Run under TSan this exercises the
  // single-flight load path, the LRU, and the stats counters; the
  // invariant checked here is that residency never exceeds budget by more
  // than the live pinned working set (8 threads x <= 4 frames each).
  constexpr int kThreads = 8;
  constexpr uint64_t kFrames = 64;
  constexpr uint64_t kBudgetFrames = 8;
  constexpr int kItersPerThread = 400;

  Arena arena(kFrames * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  BufferPool pool(SmallPool(kBudgetFrames * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());

  std::atomic<int64_t> max_seen{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(0x9e3779b9u + static_cast<unsigned>(t));
      for (int i = 0; i < kItersPerThread; ++i) {
        uint64_t frame = rng() % kFrames;
        uint64_t len = kFrame * (1 + rng() % 4);
        if (frame * kFrame + len > kFrames * kFrame) {
          len = kFrames * kFrame - frame * kFrame;
        }
        PagePin pin(&pool);
        pin.PinRange(space, frame * kFrame, len);
        int64_t resident = pool.stats().resident_bytes;
        int64_t prev = max_seen.load(std::memory_order_relaxed);
        while (resident > prev && !max_seen.compare_exchange_weak(
                                      prev, resident,
                                      std::memory_order_relaxed)) {
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Hard ceiling: budget plus every thread's worst-case pinned set (each
  // iteration pins at most 4 frames). The pool's own peak tracker sees
  // every load, so it is the authoritative number; the sampled max is a
  // lower bound on it.
  const int64_t ceiling =
      static_cast<int64_t>((kBudgetFrames + kThreads * 4) * kFrame);
  BufferPoolStats s = pool.stats();
  EXPECT_LE(s.peak_resident_bytes, ceiling);
  EXPECT_LE(s.resident_bytes, static_cast<int64_t>(kBudgetFrames * kFrame));
  EXPECT_GE(s.peak_resident_bytes, max_seen.load());
  EXPECT_GT(s.misses, 0);
  EXPECT_GT(s.hits, 0);
  EXPECT_GT(s.evictions, 0);
  // Every frame loaded at least once; misses count reloads after eviction
  // too, so misses >= frames is the only direction that must hold.
  EXPECT_GE(s.misses, static_cast<int64_t>(kFrames));
}

TEST(BufferPoolTest, ConcurrentFirstPinsSingleLoadPerFrame) {
  // Many threads pin the same never-loaded frame simultaneously. Exactly
  // one miss is recorded per frame (the elected loader); everyone else
  // either hits or waits on the load condvar.
  constexpr int kThreads = 8;
  constexpr uint64_t kFrames = 4;

  Arena arena(kFrames * kFrame);
  ASSERT_NE(arena.base(), nullptr);
  BufferPool pool(SmallPool(64 * kFrame));
  uint32_t space = pool.RegisterSpace(arena.base(), arena.bytes());

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      PagePin pin(&pool);
      pin.PinRange(space, 0, kFrames * kFrame);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  BufferPoolStats s = pool.stats();
  // Single-flight: one load per frame, no matter how many racers. Every
  // non-loader frame-pin resolves to a hit once the load finishes (a
  // condvar wait is counted separately and still ends in a hit).
  EXPECT_EQ(s.misses, static_cast<int64_t>(kFrames));
  EXPECT_EQ(s.hits, static_cast<int64_t>(kThreads * kFrames) - s.misses);
  EXPECT_EQ(s.resident_bytes, static_cast<int64_t>(kFrames * kFrame));
}

}  // namespace
}  // namespace ver
