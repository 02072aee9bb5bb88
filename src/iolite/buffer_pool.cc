#include "src/iolite/buffer_pool.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace iolite {

namespace {

// AllocateDma's pattern is the xorshift64 (13, 7, 17) stream seeded from the
// pattern seed: byte i is byte i % 8 of the state after step i + 1. Steps
// in place so one body serves a scalar state and a vector of lanes.
template <typename T>
constexpr void XorshiftStep(T& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
}

// A 64x64 matrix over GF(2), stored by column: M x = XOR of col[j] over the
// set bits j of x.
struct Gf2Matrix {
  uint64_t col[64];
};

// M x, for building the jump table at compile time.
constexpr uint64_t Apply(const Gf2Matrix& m, uint64_t x) {
  uint64_t r = 0;
  for (int j = 0; j < 64; ++j) {
    r ^= m.col[j] & (0 - ((x >> j) & 1));
  }
  return r;
}

// xorshift64 is linear over GF(2): with S its one-step matrix, the state
// s steps on is S^s x. kWordJump[k] = S^(8 * 2^k), one table entry per bit
// of a jump counted in 8-byte words; 8 KB, computed at compile time.
constexpr int kWordJumpBits = 16;

struct WordJumpTable {
  Gf2Matrix pow[kWordJumpBits];
};

constexpr WordJumpTable MakeWordJumpTable() {
  WordJumpTable t{};
  Gf2Matrix m{};
  for (int j = 0; j < 64; ++j) {
    uint64_t x = uint64_t{1} << j;
    for (int s = 0; s < 8; ++s) {
      XorshiftStep(x);
    }
    m.col[j] = x;
  }
  for (int k = 0; k < kWordJumpBits; ++k) {
    t.pow[k] = m;
    Gf2Matrix squared{};
    for (int j = 0; j < 64; ++j) {
      squared.col[j] = Apply(m, m.col[j]);
    }
    m = squared;
  }
  return t;
}

constexpr WordJumpTable kWordJump = MakeWordJumpTable();

// The fill runs kLanes copies of the generator side by side, one per
// equal segment of whole words; each lane starts at its segment by a jump.
// Since segments start on word boundaries, the byte phase i % 8 is the same
// in every lane, so eight steps pack one word per lane. On a little-endian
// host (as checksum.cc assumes) the word's byte j is the state's byte j.
constexpr int kLanes = 8;
typedef uint64_t LaneVector __attribute__((vector_size(8 * kLanes)));
// Below this many words per lane the jumps cost more than the lanes save
// in the portable build.
constexpr size_t kMinLaneWords = 4;

// M x at run time: the same sum as Apply, eight columns per vector step.
inline uint64_t ApplyByLanes(const Gf2Matrix& m, uint64_t x) {
  const LaneVector bit = {0, 1, 2, 3, 4, 5, 6, 7};
  const LaneVector xs = LaneVector{} + x;
  LaneVector sum = {};
  for (int j = 0; j < 64; j += kLanes) {
    LaneVector col;
    std::memcpy(&col, &m.col[j], sizeof(col));
    sum ^= col & -((xs >> (bit + j)) & 1);
  }
  uint64_t r = 0;
  for (int k = 0; k < kLanes; ++k) {
    r ^= sum[k];
  }
  return r;
}

// Advances state `x` by 8 * `words` steps: one matrix product per set bit,
// and the largest power repeated for jumps beyond the table.
inline uint64_t JumpWords(uint64_t x, size_t words) {
  for (int k = 0; words != 0; ++k, words >>= 1) {
    if (k == kWordJumpBits - 1) {
      for (; words != 0; --words) {
        x = ApplyByLanes(kWordJump.pow[k], x);
      }
      break;
    }
    if (words & 1) {
      x = ApplyByLanes(kWordJump.pow[k], x);
    }
  }
  return x;
}

IOLITE_DMA_FILL_KERNEL
void FillXorshift(uint64_t x, char* dst, size_t n) {
  const size_t words = n / (8 * kLanes);
  size_t i = 0;
  if (words >= kMinLaneWords) {
    LaneVector lane = {};
    lane[0] = x;
    for (int k = 1; k < kLanes; ++k) {
      lane[k] = JumpWords(lane[k - 1], words);
    }
    for (size_t w = 0; w < words; ++w) {
      LaneVector packed = {};
      for (int j = 0; j < 8; ++j) {
        XorshiftStep(lane);
        packed |= lane & (uint64_t{0xff} << (8 * j));
      }
      for (int k = 0; k < kLanes; ++k) {
        const uint64_t word = packed[k];
        std::memcpy(dst + 8 * (k * words + w), &word, 8);
      }
    }
    x = lane[kLanes - 1];
    i = kLanes * words * 8;
  }
  // The tail (and small fills) continue serially from the last lane.
  for (; i < n; ++i) {
    XorshiftStep(x);
    dst[i] = static_cast<char>((x >> (8 * (i % 8))) & 0xff);
  }
}

}  // namespace

std::atomic<uint64_t> BufferPool::next_pool_seed_{1};

void Buffer::Seal(size_t filled) {
  assert(!sealed_ && "double seal");
  assert(filled <= capacity_ && "seal beyond capacity");
  size_ = filled;
  sealed_ = true;
  pool_->OnBufferSealed(this);
}

void Buffer::Release() {
  assert(refcount_ > 0);
  if (--refcount_ == 0) {
    pool_->OnBufferUnreferenced(this);
  }
}

const std::vector<iolsim::ChunkId>& Buffer::chunks() const { return pool_->ChunksOf(*this); }

BufferPool::BufferPool(iolsim::SimContext* ctx, std::string name, iolsim::DomainId producer,
                       ExtentSource* extent_source)
    : ctx_(ctx), name_(std::move(name)), producer_(producer), extent_source_(extent_source) {
  next_buffer_id_ = next_pool_seed_.fetch_add(1, std::memory_order_relaxed) << 32;
}

BufferPool::~BufferPool() {
  for (Extent& e : extents_) {
    for (iolsim::ChunkId c : e.chunks) {
      ctx_->vm().FreeChunk(c);
    }
  }
  ctx_->memory().Release("iolite_window", bytes_reserved_);
}

size_t BufferPool::NewExtent(size_t n) {
  const int chunk_size = ctx_->cost().params().chunk_size;
  size_t chunk_count = (n + chunk_size - 1) / chunk_size;
  if (chunk_count == 0) {
    chunk_count = 1;
  }
  Extent e;
  e.size = chunk_count * chunk_size;
  if (extent_source_ != nullptr) {
    e.data = extent_source_->AllocateExtent(e.size);
    if (e.data == nullptr) {
      // There is no error path out of Allocate; dying loudly beats handing
      // out a buffer over invalid memory (NDEBUG builds included).
      std::fprintf(stderr, "BufferPool '%s': extent source exhausted carving %zu bytes\n",
                   name_.c_str(), e.size);
      std::abort();
    }
  } else {
    e.owned = std::make_unique<char[]>(e.size);
    e.data = e.owned.get();
  }
  for (size_t i = 0; i < chunk_count; ++i) {
    e.chunks.push_back(ctx_->vm().AllocateChunk(producer_));
  }
  bytes_reserved_ += e.size;
  ctx_->memory().Reserve("iolite_window", e.size);
  extents_.push_back(std::move(e));
  return extents_.size() - 1;
}

Buffer* BufferPool::CarveBuffer(size_t n) {
  const int chunk_size = ctx_->cost().params().chunk_size;
  size_t extent_index;
  size_t offset;
  if (n >= static_cast<size_t>(chunk_size)) {
    // Large object: dedicated multi-chunk extent, fully consumed so small
    // allocations can never carve into its storage.
    extent_index = NewExtent(n);
    offset = 0;
    extents_[extent_index].bump = extents_[extent_index].size;
  } else {
    // Small object: carve from the newest small extent, or open one.
    if (extents_.empty() || extents_.back().size - extents_.back().bump < n ||
        extents_.back().size > static_cast<size_t>(chunk_size)) {
      extent_index = NewExtent(chunk_size);
    } else {
      extent_index = extents_.size() - 1;
    }
    offset = extents_[extent_index].bump;
    extents_[extent_index].bump += n;
  }
  char* data = extents_[extent_index].data + offset;
  auto buffer = std::unique_ptr<Buffer>(
      new Buffer(this, next_buffer_id_++, data, n, extent_index, producer_));
  Buffer* raw = buffer.get();
  all_buffers_.push_back(std::move(buffer));
  ctx_->stats().buffers_allocated++;
  return raw;
}

void BufferPool::PrepareFill(Buffer* buffer) {
  if (producer_ == iolsim::kKernelDomain) {
    return;  // Trusted producer holds permanent write permission.
  }
  for (iolsim::ChunkId c : ChunksOf(*buffer)) {
    ctx_->vm().SetWritable(c, producer_, true);
  }
}

BufferRef BufferPool::Allocate(size_t n) {
  assert(n > 0 && "zero-size buffer");
  // First fit from the free list.
  auto it = free_list_.lower_bound(n);
  if (it != free_list_.end()) {
    Buffer* buffer = it->second;
    free_list_.erase(it);
    --free_count_;
    buffer->ResetForReuse(producer_);
    PrepareFill(buffer);
    ctx_->stats().buffers_recycled++;
    ++live_buffers_;
    return BufferRef(buffer);
  }
  Buffer* buffer = CarveBuffer(n);
  PrepareFill(buffer);
  ++live_buffers_;
  return BufferRef(buffer);
}

BufferRef BufferPool::AllocateFrom(const void* src, size_t n) {
  BufferRef buffer = Allocate(n);
  std::memcpy(buffer->writable_data(), src, n);
  ctx_->ChargeCpu(ctx_->cost().CopyCost(n));
  ctx_->stats().bytes_copied += n;
  ctx_->stats().copy_ops++;
  buffer->Seal(n);
  return buffer;
}

BufferRef BufferPool::AllocateDma(uint64_t pattern_seed, size_t n) {
  BufferRef buffer = Allocate(n);
  // Deterministic content so checksums and tests are meaningful, filled
  // without CPU charge (DMA).
  FillXorshift(pattern_seed * 0x9e3779b97f4a7c15ull + 1, buffer->writable_data(), n);
  buffer->Seal(n);
  return buffer;
}

const std::vector<iolsim::ChunkId>& BufferPool::ChunksOf(const Buffer& buffer) const {
  return extents_[buffer.extent_index_].chunks;
}

void BufferPool::OnBufferSealed(Buffer* buffer) {
  if (producer_ == iolsim::kKernelDomain) {
    return;  // Trusted producer: write permission is permanent.
  }
  for (iolsim::ChunkId c : ChunksOf(*buffer)) {
    ctx_->vm().SetWritable(c, producer_, false);
  }
}

void BufferPool::OnBufferUnreferenced(Buffer* buffer) {
  // The buffer's storage stays resident and mapped; it is simply available
  // for reuse. Mappings established in consumer domains persist, which is
  // what makes the next use of this buffer copy- and map-free.
  free_list_.emplace(buffer->capacity(), buffer);
  ++free_count_;
  --live_buffers_;
  ctx_->stats().buffers_freed++;
}

}  // namespace iolite
