// ShmCounters: the plane's warm-path counters, readable from *outside* the
// serving processes.
//
// A fixed-order block of 64-bit relaxed atomics in the shared region,
// published in the ShmTable like every other structure. The order below is
// ABI — scripts/shm_inspect.py and the out-of-process verification in
// ProcessTier name counters by index — so entries are append-only: new
// counters go at the end, before kCounterCount.
//
// This block is how the PR's central claim is *checked* rather than
// asserted: after a warm multi-process run, an unrelated attacher reads
// kBytesCopiedCrossProcess through the table and requires zero.

#ifndef SRC_IPC_SHM_COUNTERS_H_
#define SRC_IPC_SHM_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <cstring>

#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"

namespace iolipc {

// Index into the counter block. Order is ABI; append only.
enum PlaneCounter : uint32_t {
  kRequestsServed = 0,           // Client responses completed (ok or error).
  kCacheHits = 1,                // ShmMap warm hits in proxy workers.
  kCacheMisses = 2,              // Lookups that went to an origin fill.
  kBytesServed = 3,              // Payload bytes named by completed responses.
  kBytesCopiedCrossProcess = 4,  // Payload bytes memcpy'd between processes.
  kBytesFilledOrigin = 5,        // Bytes written by origin disk fills.
  kOriginFills = 6,              // Miss-fill orders completed by origin workers.
  kCgiRequests = 7,              // Dynamic responses generated by CGI workers.
  kFutureErrors = 8,             // Futures that resolved kError (timeouts, crashes).
  kQueueFullYields = 9,          // Backoff yields on a full descriptor queue.
  kMapEvictions = 10,            // Entries retired by ShmMap::EvictOne.
  kWorkerAbnormalExits = 11,     // Workers reaped with non-zero exit or signal.
  kWorkerRespawns = 12,          // Workers relaunched by the supervisor.
  kPinsSwept = 13,               // Stale pins reclaimed from dead workers.
  kCounterCount = 14,
};

// Stable names, index-aligned with PlaneCounter (used by dumps and tests;
// shm_inspect.py carries its own copy of this list).
inline const char* PlaneCounterName(uint32_t i) {
  static const char* kNames[kCounterCount] = {
      "requests_served",    "cache_hits",    "cache_misses",
      "bytes_served",       "bytes_copied_cross_process",
      "bytes_filled_origin", "origin_fills", "cgi_requests",
      "future_errors",      "queue_full_yields", "map_evictions",
      "worker_abnormal_exits", "worker_respawns", "pins_swept",
  };
  return i < kCounterCount ? kNames[i] : "unknown";
}

class ShmCounters {
 public:
  // At the block's base; 64 bytes, followed by `count` uint64 slots.
  struct CountersHeader {
    uint32_t magic;  // offset 0: kCountersMagic.
    uint32_t count;  // offset 4: slots that follow.
    char pad[56];
  };
  static_assert(sizeof(CountersHeader) == 64, "counters header layout is ABI");

  ShmCounters() = default;

  static ShmCounters Create(ShmRegion* region, ShmTable* table, const char* name) {
    size_t span = sizeof(CountersHeader) + kCounterCount * sizeof(uint64_t);
    char* base = region->AllocateExtent(span);
    ShmCounters c;
    if (base == nullptr) {
      return c;
    }
    std::memset(base, 0, span);
    c.header_ = reinterpret_cast<CountersHeader*>(base);
    c.header_->count = kCounterCount;
    std::atomic_ref<uint32_t>(c.header_->magic).store(kCountersMagic, std::memory_order_release);
    if (table != nullptr &&
        !table->Publish(name, region->OffsetOf(base), span, ShmType::kCounters)) {
      return ShmCounters{};
    }
    return c;
  }

  static ShmCounters Attach(ShmRegion* region, const ShmTable& table,
                            const char* name) {
    ShmCounters c;
    const ShmTable::Entry* e = table.Find(name);
    if (e == nullptr || e->type != static_cast<uint32_t>(ShmType::kCounters)) {
      return c;
    }
    auto* header = reinterpret_cast<CountersHeader*>(region->At(e->offset));
    const uint32_t magic =
        std::atomic_ref<uint32_t>(header->magic).load(std::memory_order_acquire);
    if (magic != kCountersMagic || header->count == 0) {
      return c;
    }
    c.header_ = header;
    return c;
  }

  bool valid() const { return header_ != nullptr; }
  uint32_t count() const { return header_->count; }

  void Add(PlaneCounter i, uint64_t delta) {
    slots()[i].fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Get(PlaneCounter i) const {
    // An attached verifier reads after the serving processes quiesced (join/
    // waitpid provides the ordering); acquire is belt and braces.
    return slots()[i].load(std::memory_order_acquire);
  }

 private:
  static constexpr uint32_t kCountersMagic = 0x494f4c43;  // "IOLC"

  std::atomic<uint64_t>* slots() const {
    return reinterpret_cast<std::atomic<uint64_t>*>(
        reinterpret_cast<char*>(header_) + sizeof(CountersHeader));
  }

  CountersHeader* header_ = nullptr;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_COUNTERS_H_
