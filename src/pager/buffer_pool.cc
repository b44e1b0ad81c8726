#include "pager/buffer_pool.h"

#include <algorithm>

#include "util/check.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define VER_PAGER_POSIX 1
#endif

namespace ver {

namespace {

// Returns the pages of [addr, addr+len) to the OS. Only called on private
// read-only file-backed mappings, where a discarded page refaults from the
// file with identical bytes. Returns false when unsupported or refused, in
// which case the caller keeps the frame charged.
bool DiscardPages(const void* addr, size_t len) {
#if defined(VER_PAGER_POSIX)
  return madvise(const_cast<void*>(static_cast<const void*>(addr)), len,
                 MADV_DONTNEED) == 0;
#else
  (void)addr;
  (void)len;
  return false;
#endif
}

// Touches one byte per OS page so the kernel faults the range in now,
// under our miss accounting, instead of lazily mid-scan. The volatile read
// cannot be elided and the bytes are discarded.
void PrefaultPages(const char* addr, size_t len) {
  constexpr size_t kOsPage = 4096;
  const volatile char* p = addr;
  for (size_t i = 0; i < len; i += kOsPage) {
    (void)p[i];
  }
  if (len > 0) (void)p[len - 1];
}

}  // namespace

BufferPool::BufferPool(const BufferPoolOptions& options) : options_(options) {
  VER_CHECK(options_.frame_bytes > 0 &&
            options_.frame_bytes % 4096 == 0)
      << "frame_bytes " << options_.frame_bytes
      << " must be a positive multiple of the 4 KiB OS page";
}

uint32_t BufferPool::RegisterSpace(const void* base, uint64_t bytes,
                                   bool evictable) {
  VER_CHECK(reinterpret_cast<uintptr_t>(base) % 4096 == 0)
      << "space base must be page-aligned (an mmap base)";
  MutexLock lock(&mu_);
  uint32_t id = next_space_++;
  Space s;
  s.base = static_cast<const char*>(base);
  s.bytes = bytes;
#if defined(VER_PAGER_POSIX)
  s.evictable = evictable;
#else
  (void)evictable;
  s.evictable = false;  // no madvise: budget becomes accounting-only
#endif
  spaces_.emplace(id, s);
  ++stats_.spaces;
  return id;
}

uint64_t BufferPool::FrameLen(const Space& s, uint64_t frame_index) const {
  uint64_t start = frame_index * options_.frame_bytes;
  VER_DCHECK(start < s.bytes) << "frame " << frame_index << " outside space";
  return std::min(options_.frame_bytes, s.bytes - start);
}

void BufferPool::DiscardFrame(const Space& s, uint64_t frame_index) {
  if (!s.evictable) return;
  DiscardPages(s.base + frame_index * options_.frame_bytes,
               static_cast<size_t>(FrameLen(s, frame_index)));
}

void BufferPool::DropFrameEntry(uint64_t key, Frame* f) {
  if (f->in_lru) {
    lru_.erase(f->lru_it);
    f->in_lru = false;
  }
  frames_.erase(key);
}

void BufferPool::EvictToBudget() {
  while (stats_.resident_bytes >
             static_cast<int64_t>(options_.memory_budget_bytes) &&
         !lru_.empty()) {
    // lru_ holds only resident unpinned frames, coldest at the front.
    uint64_t key = lru_.front();
    auto it = frames_.find(key);
    VER_DCHECK(it != frames_.end()) << "LRU entry without frame";
    Frame& f = it->second;
    VER_DCHECK(f.resident && f.pins == 0 && f.in_lru)
        << "non-evictable frame on the LRU list";
    uint32_t space = static_cast<uint32_t>(key >> 32);
    uint64_t frame_index = key & 0xffffffffu;
    auto sit = spaces_.find(space);
    VER_DCHECK(sit != spaces_.end()) << "frame for unknown space";
    stats_.resident_bytes -=
        static_cast<int64_t>(FrameLen(sit->second, frame_index));
    ++stats_.evictions;
    DiscardFrame(sit->second, frame_index);
    --sit->second.frame_count;
    DropFrameEntry(key, &f);
  }
  if (stats_.resident_bytes >
      static_cast<int64_t>(options_.memory_budget_bytes)) {
    // Everything resident is pinned: the budget is overcommitted by live
    // working sets. Count it; eviction resumes as pins release.
    ++stats_.pinned_overcommit;
  }
}

void BufferPool::Pin(uint32_t space, uint64_t offset, uint64_t len) {
  if (len == 0) return;
  MutexLock lock(&mu_);
  auto sit = spaces_.find(space);
  VER_CHECK(sit != spaces_.end() && !sit->second.retired)
      << "Pin against unknown or retired space " << space;
  VER_CHECK(offset <= sit->second.bytes && len <= sit->second.bytes - offset)
      << "Pin range [" << offset << ", +" << len << ") outside space of "
      << sit->second.bytes << " bytes";
  uint64_t first = offset / options_.frame_bytes;
  uint64_t last = (offset + len - 1) / options_.frame_bytes;
  for (uint64_t fi = first; fi <= last; ++fi) {
    uint64_t key = FrameKey(space, fi);
    for (;;) {
      // unordered_map references are stable across rehash; only erase
      // invalidates. Nothing erases a loading or pinned frame, so the
      // loader below may hold `f` across its unlock — but a condvar
      // waiter may not: between the loader finishing and this thread
      // re-acquiring the mutex, the frame can be unpinned *and* evicted
      // (erased). Re-look the frame up after every wake.
      Frame& f = frames_[key];
      if (f.loading) {
        ++stats_.load_waits;
        load_cv_.Wait(mu_);
        continue;
      }
      if (f.resident) {
        ++stats_.hits;
        ++f.pins;
        if (f.in_lru) {
          lru_.erase(f.lru_it);
          f.in_lru = false;
        }
        break;
      }
      // Miss: this thread is the single loader. The pin is taken before
      // the lock drops so eviction can never reclaim the frame mid-load.
      // The frame is charged, and colder frames evicted down to the
      // budget, before its pages fault in; only then is the peak taken,
      // so the peak exceeds the budget only when pins overcommit it.
      ++stats_.misses;
      f.loading = true;
      f.pins = 1;
      ++sit->second.frame_count;
      const char* addr = sit->second.base + fi * options_.frame_bytes;
      uint64_t flen = FrameLen(sit->second, fi);
      stats_.resident_bytes += static_cast<int64_t>(flen);
      EvictToBudget();
      stats_.peak_resident_bytes =
          std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
      mu_.Unlock();
      PrefaultPages(addr, static_cast<size_t>(flen));
      mu_.Lock();
      f.loading = false;
      f.resident = true;
      load_cv_.NotifyAll();
      break;
    }
  }
}

void BufferPool::Unpin(uint32_t space, uint64_t offset, uint64_t len) {
  if (len == 0) return;
  MutexLock lock(&mu_);
  auto sit = spaces_.find(space);
  VER_CHECK(sit != spaces_.end()) << "Unpin against unknown space " << space;
  uint64_t first = offset / options_.frame_bytes;
  uint64_t last = (offset + len - 1) / options_.frame_bytes;
  bool freed = false;
  for (uint64_t fi = first; fi <= last; ++fi) {
    uint64_t key = FrameKey(space, fi);
    auto it = frames_.find(key);
    VER_CHECK(it != frames_.end() && it->second.pins > 0)
        << "Unpin without a matching Pin on frame " << fi;
    Frame& f = it->second;
    if (--f.pins > 0) continue;
    if (sit->second.retired) {
      // Last pin of a frame whose snapshot was swapped out: discard now.
      stats_.resident_bytes -=
          static_cast<int64_t>(FrameLen(sit->second, fi));
      DiscardFrame(sit->second, fi);
      --sit->second.frame_count;
      DropFrameEntry(key, &f);
      freed = true;
      continue;
    }
    VER_DCHECK(!f.in_lru) << "pinned frame was on the LRU list";
    f.lru_it = lru_.insert(lru_.end(), key);
    f.in_lru = true;
    freed = true;
  }
  if (sit->second.retired && sit->second.frame_count == 0) {
    spaces_.erase(sit);
    --stats_.spaces;
  }
  if (freed) EvictToBudget();
}

void BufferPool::RetireSpace(uint32_t space) {
  MutexLock lock(&mu_);
  auto sit = spaces_.find(space);
  if (sit == spaces_.end()) return;
  sit->second.retired = true;
  // Drop everything unpinned now; pinned frames drain via Unpin.
  for (auto it = frames_.begin(); it != frames_.end();) {
    uint64_t key = it->first;
    if (static_cast<uint32_t>(key >> 32) != space || it->second.pins > 0) {
      ++it;
      continue;
    }
    Frame& f = it->second;
    VER_DCHECK(!f.loading) << "loading frame with zero pins";
    uint64_t fi = key & 0xffffffffu;
    if (f.resident) {
      stats_.resident_bytes -=
          static_cast<int64_t>(FrameLen(sit->second, fi));
      DiscardFrame(sit->second, fi);
    }
    if (f.in_lru) lru_.erase(f.lru_it);
    --sit->second.frame_count;
    it = frames_.erase(it);
  }
  if (sit->second.frame_count == 0) {
    spaces_.erase(sit);
    --stats_.spaces;
  }
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace ver
