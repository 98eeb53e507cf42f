#include "heap.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

// Process-wide totals, each on its own cache line.
alignas(64) std::atomic<std::int64_t> live_{0};
alignas(64) std::atomic<std::int64_t> peak_{0};
alignas(64) std::atomic<std::uint64_t> count_{0};

// Each thread batches its changes and publishes them once they pass a
// threshold. Updating the shared totals on every call would make worker
// threads bounce one cache line on every allocation — a slowdown the
// measured program does not have. The cost is resolution: live_ and peak_
// lag the truth by at most kFlushBytes per thread.
constexpr std::int64_t kFlushBytes = 16 << 10;
constexpr std::uint64_t kFlushCount = 256;

struct Pending {
  std::int64_t bytes = 0;
  std::uint64_t count = 0;
};
thread_local Pending pending;

void publish() {
  count_.fetch_add(pending.count, std::memory_order_relaxed);
  const std::int64_t live =
      live_.fetch_add(pending.bytes, std::memory_order_relaxed) +
      pending.bytes;
  pending = Pending{};
  std::int64_t peak = peak_.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

/// Publishes what a thread still holds when it exits.
struct PublishAtExit {
  ~PublishAtExit() { publish(); }
};
thread_local PublishAtExit publish_at_exit;

void note_alloc(void* block) {
  (void)&publish_at_exit;  // odr-use: registers the exit hook
  pending.bytes += static_cast<std::int64_t>(malloc_usable_size(block));
  if (++pending.count >= kFlushCount || pending.bytes >= kFlushBytes) {
    publish();
  }
}

void note_free(void* block) {
  if (block == nullptr) return;
  pending.bytes -= static_cast<std::int64_t>(malloc_usable_size(block));
  if (pending.bytes <= -kFlushBytes) publish();
}

void* allocate(std::size_t size) {
  void* block = std::malloc(size == 0 ? 1 : size);
  if (block == nullptr) throw std::bad_alloc();
  note_alloc(block);
  return block;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  void* block = nullptr;
  const auto alignment = std::max(static_cast<std::size_t>(align),
                                  sizeof(void*));
  if (posix_memalign(&block, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  note_alloc(block);
  return block;
}

void release(void* block) {
  note_free(block);
  std::free(block);
}

}  // namespace

std::int64_t live_bytes() {
  publish();
  return live_.load(std::memory_order_relaxed);
}

std::int64_t peak_bytes() { return peak_.load(std::memory_order_relaxed); }

void reset_peak() {
  publish();
  peak_.store(live_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

std::uint64_t allocations() {
  publish();
  return count_.load(std::memory_order_relaxed);
}

}  // namespace perfbench::heap

using perfbench::heap::allocate;
using perfbench::heap::allocate_aligned;
using perfbench::heap::release;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}

void operator delete(void* block) noexcept { release(block); }
void operator delete[](void* block) noexcept { release(block); }
void operator delete(void* block, std::size_t) noexcept { release(block); }
void operator delete[](void* block, std::size_t) noexcept { release(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  release(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  release(block);
}
void operator delete(void* block, std::align_val_t) noexcept {
  release(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  release(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  release(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  release(block);
}
