#include "src/ipc/shm_future.h"

#include <time.h>

#include <cassert>
#include <cstring>

namespace iolipc {

namespace {

constexpr uint32_t kWriting = 4;  // Filler holds the slot mid-publish.

uint64_t NowMicros() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

}  // namespace

ShmFuturePool ShmFuturePool::Create(ShmRegion* region, ShmTable* table,
                                    const char* name, uint32_t capacity) {
  assert(capacity > 0);
  size_t span = sizeof(PoolHeader) + static_cast<size_t>(capacity) * sizeof(FutureSlot);
  char* base = region->AllocateExtent(span);
  ShmFuturePool pool;
  if (base == nullptr) {
    return pool;
  }
  std::memset(base, 0, span);
  pool.region_ = region;
  pool.header_ = reinterpret_cast<PoolHeader*>(base);
  pool.header_->capacity = capacity;
  std::atomic_ref<uint32_t>(pool.header_->magic).store(kFutureMagic, std::memory_order_release);
  if (table != nullptr &&
      !table->Publish(name, region->OffsetOf(base), span, ShmType::kFutures)) {
    return ShmFuturePool{};
  }
  return pool;
}

ShmFuturePool ShmFuturePool::Attach(ShmRegion* region, const ShmTable& table,
                                    const char* name) {
  ShmFuturePool pool;
  const ShmTable::Entry* e = table.Find(name);
  if (e == nullptr || e->type != static_cast<uint32_t>(ShmType::kFutures)) {
    return pool;
  }
  auto* header = reinterpret_cast<PoolHeader*>(region->At(e->offset));
  const uint32_t magic =
      std::atomic_ref<uint32_t>(header->magic).load(std::memory_order_acquire);
  if (magic != kFutureMagic || header->capacity == 0) {
    return pool;
  }
  pool.region_ = region;
  pool.header_ = header;
  return pool;
}

ShmFuturePool::FutureSlot* ShmFuturePool::SlotOf(FutureHandle h, uint32_t* gen) const {
  uint32_t idx = static_cast<uint32_t>(h & 0xffffffffu);
  if (idx >= header_->capacity) {
    return nullptr;
  }
  *gen = static_cast<uint32_t>(h >> 32);
  return &slots()[idx];
}

FutureHandle ShmFuturePool::Acquire() {
  uint32_t cap = header_->capacity;
  uint32_t start = header_->alloc_hint.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < cap; ++i) {
    uint32_t idx = (start + i) % cap;
    FutureSlot& s = slots()[idx];
    uint32_t expected = kFree;
    if (s.state.compare_exchange_strong(expected, kPending,
                                        std::memory_order_acquire)) {
      s.error = 0;
      header_->allocated.fetch_add(1, std::memory_order_relaxed);
      uint32_t gen = s.gen.load(std::memory_order_relaxed);
      return (static_cast<FutureHandle>(gen) << 32) | idx;
    }
  }
  return kInvalidFuture;
}

bool ShmFuturePool::Complete(FutureHandle h, const SliceDesc& header,
                             const SliceDesc& body) {
  uint32_t gen = 0;
  FutureSlot* s = SlotOf(h, &gen);
  if (s == nullptr) {
    return false;
  }
  for (;;) {
    if (s->gen.load(std::memory_order_acquire) != gen) {
      return false;  // Stale handle: the waiter recycled the slot.
    }
    uint32_t expected = kPending;
    if (s->state.compare_exchange_strong(expected, kWriting,
                                         std::memory_order_acquire)) {
      break;
    }
    if (expected != kWriting) {
      return false;  // Already completed/failed (e.g. waiter timed out).
    }
    // Another filler holds the slot mid-publish; re-inspect.
  }
  // Exclusive: the waiter cannot release a kWriting slot. Re-check the
  // generation in case the slot was recycled between the gen read and the
  // CAS landing on a *new* owner's pending future.
  if (s->gen.load(std::memory_order_acquire) != gen) {
    s->state.store(kPending, std::memory_order_release);
    return false;
  }
  s->value[0] = header;
  s->value[1] = body;
  s->state.store(kReady, std::memory_order_release);
  return true;
}

bool ShmFuturePool::Fail(FutureHandle h, uint32_t error) {
  uint32_t gen = 0;
  FutureSlot* s = SlotOf(h, &gen);
  if (s == nullptr) {
    return false;
  }
  for (;;) {
    if (s->gen.load(std::memory_order_acquire) != gen) {
      return false;
    }
    uint32_t expected = kPending;
    if (s->state.compare_exchange_strong(expected, kWriting,
                                         std::memory_order_acquire)) {
      break;
    }
    if (expected != kWriting) {
      return false;
    }
  }
  if (s->gen.load(std::memory_order_acquire) != gen) {
    s->state.store(kPending, std::memory_order_release);
    return false;
  }
  s->error = error;
  s->state.store(kError, std::memory_order_release);
  return true;
}

ShmFuturePool::WaitResult ShmFuturePool::Wait(FutureHandle h, uint64_t timeout_us,
                                              const YieldFn& yield) {
  WaitResult result;
  uint32_t gen = 0;
  FutureSlot* s = SlotOf(h, &gen);
  if (s == nullptr || s->gen.load(std::memory_order_acquire) != gen) {
    result.error = 1;
    return result;
  }
  uint64_t deadline = NowMicros() + timeout_us;
  bool failed_it = false;
  for (;;) {
    uint32_t st = s->state.load(std::memory_order_acquire);
    if (st == kReady) {
      result.ok = true;
      result.value[0] = s->value[0];
      result.value[1] = s->value[1];
      return result;
    }
    if (st == kError) {
      result.error = s->error;
      result.timed_out = failed_it;
      return result;
    }
    if (!failed_it && NowMicros() >= deadline) {
      // Deadline: try to fail the future ourselves. Losing the race to the
      // filler is fine — the next poll observes its result instead.
      failed_it = Fail(h, /*error=*/2);
      continue;
    }
    if (yield) {
      yield();
    }
  }
}

void ShmFuturePool::Release(FutureHandle h) {
  uint32_t gen = 0;
  FutureSlot* s = SlotOf(h, &gen);
  assert(s != nullptr && s->gen.load(std::memory_order_relaxed) == gen &&
         "Release of a stale handle");
  uint32_t st = s->state.load(std::memory_order_acquire);
  assert((st == kReady || st == kError) && "Release before completion");
  (void)st;
  // Bump the generation *before* freeing the slot: a handle minted before
  // this point can never publish into the slot's next life.
  s->gen.fetch_add(1, std::memory_order_release);
  header_->allocated.fetch_sub(1, std::memory_order_relaxed);
  s->state.store(kFree, std::memory_order_release);
}

uint32_t ShmFuturePool::CountInState(State state) const {
  uint32_t n = 0;
  for (uint32_t i = 0; i < header_->capacity; ++i) {
    if (slots()[i].state.load(std::memory_order_acquire) == state) {
      ++n;
    }
  }
  return n;
}

}  // namespace iolipc
