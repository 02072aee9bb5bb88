#include "src/fs/sim_file_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>

namespace iolfs {

namespace {

// Synthetic file content: byte `offset` is the low byte of the SplitMix64
// mix of seed + offset * kGamma, so any subrange can be regenerated
// independently.
constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;

inline uint64_t SplitMix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline uint8_t SynthByte(uint64_t seed, uint64_t offset) {
  return static_cast<uint8_t>(SplitMix(seed + offset * kGamma) & 0xff);
}

// Writes the synthetic bytes from mix input `z` on: eight mixes per word
// store, z advanced by kGamma per byte. The x86-64-v4 clone runs the eight
// mixes as AVX-512 lanes; byte j of the little-endian word is mix j.
IOLITE_DMA_FILL_KERNEL
void FillSynth(uint64_t z, char* dst, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j, z += kGamma) {
      word |= (SplitMix(z) & 0xff) << (8 * j);
    }
    std::memcpy(dst + i, &word, 8);
  }
  for (; i < n; ++i, z += kGamma) {
    dst[i] = static_cast<char>(SplitMix(z) & 0xff);
  }
}

}  // namespace

FileId SimFileSystem::CreateFile(const std::string& name, uint64_t size) {
  FileId id = next_file_++;
  File& f = files_[id];
  f.name = name;
  f.size = size;
  f.content_seed = 0x5851f42d4c957f2dull * static_cast<uint64_t>(id) + 0x14057b7ef767814full;
  by_name_[name] = id;
  total_bytes_ += size;
  return id;
}

FileId SimFileSystem::Lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidFile : it->second;
}

uint64_t SimFileSystem::SizeOf(FileId file) const {
  auto it = files_.find(file);
  assert(it != files_.end());
  return it->second.size;
}

void SimFileSystem::TouchMetadata(FileId file) {
  if (metadata_cache_.Touch(file).second) {
    if (metadata_cache_.size() > kMetadataCacheSlots) {
      metadata_cache_.PopOldest();
    }
    // Inode block read: one small disk access.
    ctx_->ChargeDisk(ctx_->cost().DiskAccessCost(512));
    ctx_->stats().disk_reads++;
    ctx_->stats().disk_bytes_read += 512;
  }
}

uint8_t SimFileSystem::ContentByteAt(FileId file, uint64_t offset) const {
  auto it = files_.find(file);
  assert(it != files_.end());
  const File& f = it->second;
  assert(offset < f.size);
  // Most-recent write wins: check the overlay first.
  auto ov = f.overlay.upper_bound(offset);
  if (ov != f.overlay.begin()) {
    --ov;
    if (offset < ov->first + ov->second.size()) {
      return static_cast<uint8_t>(ov->second[offset - ov->first]);
    }
  }
  return SynthByte(f.content_seed, offset);
}

iolite::BufferRef SimFileSystem::ReadFromDisk(FileId file, uint64_t offset, size_t length) {
  auto it = files_.find(file);
  assert(it != files_.end());
  assert(offset + length <= it->second.size && "read past end of file");

  ctx_->ChargeDisk(ctx_->cost().DiskAccessCost(length));
  ctx_->stats().disk_reads++;
  ctx_->stats().disk_bytes_read += length;

  // DMA fill: real bytes, no CPU charge.
  iolite::BufferRef buffer = pool_->Allocate(length);
  char* dst = buffer->writable_data();
  const File& f = it->second;
  FillSynth(f.content_seed + offset * kGamma, dst, length);
  // Most-recent write wins: copy the overlay runs that overlap the read on
  // top. A run starting before `offset` may reach into it.
  const uint64_t end = offset + length;
  auto ov = f.overlay.upper_bound(offset);
  if (ov != f.overlay.begin() && std::prev(ov)->first + std::prev(ov)->second.size() > offset) {
    --ov;
  }
  for (; ov != f.overlay.end() && ov->first < end; ++ov) {
    const uint64_t from = std::max(ov->first, offset);
    const uint64_t to = std::min(ov->first + ov->second.size(), end);
    std::memcpy(dst + (from - offset), ov->second.data() + (from - ov->first), to - from);
  }
  buffer->Seal(length);
  return buffer;
}

void SimFileSystem::WriteToDisk(FileId file, uint64_t offset, const iolite::Aggregate& data) {
  auto it = files_.find(file);
  assert(it != files_.end());
  File& f = it->second;

  size_t length = data.size();
  ctx_->ChargeDisk(ctx_->cost().DiskAccessCost(length));
  ctx_->stats().disk_writes++;
  ctx_->stats().disk_bytes_written += length;

  if (offset + length > f.size) {
    total_bytes_ += offset + length - f.size;
    f.size = offset + length;
  }
  if (length == 0) {
    return;  // Nothing to fold; an empty run would shadow the overlay.
  }

  // Fold the bytes into the overlay. Remove or trim overlapped runs first.
  std::string bytes = data.ToString();
  uint64_t end = offset + length;
  auto ov = f.overlay.lower_bound(offset);
  // A run starting before `offset` may overlap: trim its tail, and if the
  // run extends past `end` (the write lands strictly inside it), preserve
  // the part beyond the write as a new run.
  if (ov != f.overlay.begin()) {
    auto prev = std::prev(ov);
    uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > offset) {
      if (prev_end > end) {
        f.overlay[end] = prev->second.substr(end - prev->first);
      }
      prev->second.resize(offset - prev->first);
      ov = f.overlay.lower_bound(offset);  // Iterator may be stale after insert.
    }
  }
  // Runs starting inside [offset, end): drop, preserving any tail past end.
  while (ov != f.overlay.end() && ov->first < end) {
    uint64_t run_end = ov->first + ov->second.size();
    if (run_end > end) {
      std::string tail = ov->second.substr(end - ov->first);
      f.overlay[end] = std::move(tail);
      f.overlay.erase(ov);
      break;
    }
    ov = f.overlay.erase(ov);
  }
  f.overlay[offset] = std::move(bytes);
}

}  // namespace iolfs
