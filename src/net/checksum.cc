#include "src/net/checksum.h"

#include <cstring>

namespace iolnet {

uint32_t ChecksumAccumulate(const char* data, size_t n) {
  const auto* p = reinterpret_cast<const uint8_t*>(data);
  // Big-endian 16-bit words, as on the wire. Eight bytes per step: a
  // byte-swapped 64-bit load yields four wire-order words at fixed shifts.
  // Accumulating in 64 bits then truncating equals the old byte-wise
  // uint32 accumulation exactly (addition commutes modulo 2^32), so cached
  // partial sums are bit-identical to the scalar loop's.
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t v;
    std::memcpy(&v, p + i, 8);
    uint64_t x = __builtin_bswap64(v);
    sum += (x >> 48) + ((x >> 32) & 0xffff) + ((x >> 16) & 0xffff) + (x & 0xffff);
  }
  for (; i + 1 < n; i += 2) {
    sum += (static_cast<uint64_t>(p[i]) << 8) | p[i + 1];
  }
  if (i < n) {
    sum += static_cast<uint64_t>(p[i]) << 8;  // Trailing odd byte, zero-padded.
  }
  return static_cast<uint32_t>(sum);
}

uint16_t ChecksumFold(uint32_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint32_t ChecksumSwap(uint32_t sum) {
  // Fold to 16 bits first, then swap bytes: this is the standard trick for
  // combining a partial sum that starts at an odd offset.
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return ((sum & 0xff) << 8) | (sum >> 8);
}

bool ChecksumCache::Lookup(const Key& key, uint32_t* sum) {
  const uint32_t* cached = lru_.Find(key);
  if (cached == nullptr) {
    return false;
  }
  *sum = *cached;
  return true;
}

void ChecksumCache::Store(const Key& key, uint32_t sum) {
  // One hash probe for both the update and insert cases (fresh generation
  // keys make this the hot path).
  auto [cached, inserted] = lru_.Touch(key);
  cached = sum;
  if (inserted && lru_.size() > capacity_) {
    lru_.PopOldest();
  }
}

void ChecksumCache::Clear() { lru_.clear(); }

uint16_t ChecksumModule::Checksum(const iolite::Aggregate& agg) {
  uint32_t total = 0;
  uint64_t position = 0;  // Byte offset within the message so far.
  for (const iolite::Slice& s : agg.slices()) {
    uint32_t partial = 0;
    ChecksumCache::Key key{s.buffer()->id(), s.buffer()->generation(), s.offset(), s.length()};
    if (cache_enabled_ && cache_.Lookup(key, &partial)) {
      ctx_->stats().checksum_cache_hits++;
    } else {
      partial = ChecksumAccumulate(s.data(), s.length());
      ctx_->ChargeCpu(ctx_->cost().ChecksumCost(s.length()));
      ctx_->stats().bytes_checksummed += s.length();
      ctx_->stats().checksum_ops++;
      if (cache_enabled_) {
        cache_.Store(key, partial);
        ctx_->stats().checksum_cache_misses++;
      }
    }
    // Slices at odd message offsets contribute byte-swapped.
    total += (position % 2 == 0) ? partial : ChecksumSwap(partial);
    position += s.length();
  }
  return ChecksumFold(total);
}

}  // namespace iolnet
