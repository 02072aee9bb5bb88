// Internet checksum (RFC 1071) and the IO-Lite checksum cache (Section 3.9).
//
// Because IO-Lite buffers are immutable and carry generation numbers, the
// pair (buffer id, generation) uniquely identifies buffer *contents*
// system-wide. The TCP/UDP checksum module exploits this: it caches the
// checksum computed for each slice of a buffer aggregate, and when the same
// slice is transmitted again the cached value is reused — eliminating the
// last data-touching operation on the static-content fast path.
//
// Checksums are really computed over the real bytes; partial sums are
// combined with correct odd-offset folding so the cached per-slice sums
// compose into the exact end-to-end checksum.

#ifndef SRC_NET_CHECKSUM_H_
#define SRC_NET_CHECKSUM_H_

#include <cstdint>

#include "src/iolite/aggregate.h"
#include "src/simos/lru.h"
#include "src/simos/sim_context.h"

namespace iolnet {

// One's-complement 32-bit accumulation of `n` bytes starting at `data`,
// assuming the run begins at an even byte offset within the message.
uint32_t ChecksumAccumulate(const char* data, size_t n);

// Folds a 32-bit accumulation into the 16-bit one's-complement sum.
uint16_t ChecksumFold(uint32_t sum);

// Byte-swaps a partial sum; needed when a partial sum is placed at an odd
// byte offset within the surrounding message.
uint32_t ChecksumSwap(uint32_t sum);

// LRU-bounded cache of per-slice partial checksums. LruList nodes come from
// freelist pools: at capacity, every Store recycles the evicted entry's
// nodes, so the steady state (one fresh header generation per transmission)
// runs without heap traffic.
class ChecksumCache {
 public:
  explicit ChecksumCache(size_t capacity = 65536) : capacity_(capacity) {}

  struct Key {
    uint64_t buffer_id;
    uint32_t generation;
    uint64_t offset;
    uint64_t length;
    bool operator==(const Key&) const = default;
  };

  // Returns true and sets *sum on a hit.
  bool Lookup(const Key& key, uint32_t* sum);
  void Store(const Key& key, uint32_t sum);

  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.buffer_id * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<uint64_t>(k.generation) << 32) ^ k.offset;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= k.length;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };

  size_t capacity_;
  iolsim::LruList<Key, uint32_t, KeyHash> lru_;
};

// The checksum module used by the TCP send path. When a cache is attached,
// per-slice sums of *sealed, generation-stamped* buffers are cached; CPU
// cost is charged only for bytes actually summed.
class ChecksumModule {
 public:
  // `cache_entries` bounds the LRU cache (tests shrink it to reach the
  // at-capacity recycling steady state quickly).
  ChecksumModule(iolsim::SimContext* ctx, bool cache_enabled, size_t cache_entries = 65536)
      : ctx_(ctx), cache_enabled_(cache_enabled), cache_(cache_entries) {}

  // Computes the Internet checksum of the aggregate's contents.
  uint16_t Checksum(const iolite::Aggregate& agg);

  bool cache_enabled() const { return cache_enabled_; }
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  ChecksumCache& cache() { return cache_; }

 private:
  iolsim::SimContext* ctx_;
  bool cache_enabled_;
  ChecksumCache cache_;
};

}  // namespace iolnet

#endif  // SRC_NET_CHECKSUM_H_
