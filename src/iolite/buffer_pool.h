// ACL-scoped buffer pools (Sections 3.3 and 4.5).
//
// IO-Lite maintains cached pools of buffers with a common access control
// list. The pool a buffer is allocated from determines which protection
// domains may see its data, so programs determine the ACL *before* storing
// data in memory (trivial everywhere except early demultiplexing of network
// input, handled in src/net).
//
// Storage is carved out of *extents* — runs of one or more 64 KB chunks —
// so objects smaller than a page share pages, and no memory is wasted on
// small allocations. Deallocated buffers go on a per-pool free list; reusing
// one bumps its generation and requires no VM work beyond re-enabling write
// permission for an untrusted producer. This is the "lazily established pool
// of read-only shared memory pages" of Section 3.2.

#ifndef SRC_IOLITE_BUFFER_POOL_H_
#define SRC_IOLITE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/iolite/buffer.h"
#include "src/simos/pool_allocator.h"
#include "src/simos/sim_context.h"

// Builds a DMA fill kernel twice in optimized x86-64 GCC builds: an
// x86-64-v4 (AVX-512) clone chosen at load time on hosts that have it, and
// the portable body. Both write the same bytes. Other compilers build the
// portable body alone (not every Clang release accepts arch=x86-64-v4 in
// target_clones), and so do -O0 builds, where the AVX-512 clone runs slower.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && defined(__OPTIMIZE__)
#define IOLITE_DMA_FILL_KERNEL __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define IOLITE_DMA_FILL_KERNEL
#endif

namespace iolite {

// Pluggable backing store for pool extents. The default pool backs extents
// with private heap storage; a shared-memory pool (src/ipc) backs them with
// stable-offset carve-outs of an mmap'd region, which is what lets an
// aggregate be described as (offset, len) pairs valid in any process that
// maps the region.
class ExtentSource {
 public:
  virtual ~ExtentSource() = default;

  // Returns `n` bytes of storage that stays valid for the source's lifetime,
  // or nullptr when the source is exhausted.
  virtual char* AllocateExtent(size_t n) = 0;
};

class BufferPool {
 public:
  // `producer` is the domain that fills buffers allocated here; the kernel
  // (domain 0) is trusted and skips write-permission toggling. When
  // `extent_source` is non-null, extent storage is carved from it instead of
  // the heap (it must outlive the pool).
  BufferPool(iolsim::SimContext* ctx, std::string name, iolsim::DomainId producer,
             ExtentSource* extent_source = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  const std::string& name() const { return name_; }
  iolsim::DomainId producer() const { return producer_; }

  // Allocates a buffer with capacity >= `n` in the filling state. Prefers a
  // recycled buffer (cheap); otherwise carves new storage and charges the
  // producer's mapping costs. The returned ref is the caller's.
  BufferRef Allocate(size_t n);

  // Convenience: allocate, fill from `src` (charging copy cost), seal.
  BufferRef AllocateFrom(const void* src, size_t n);

  // Convenience: allocate, fill with a deterministic pattern *without*
  // charging CPU (models DMA from a device), seal.
  BufferRef AllocateDma(uint64_t pattern_seed, size_t n);

  // The set of chunks backing `buffer` (extent lookup for VM operations).
  const std::vector<iolsim::ChunkId>& ChunksOf(const Buffer& buffer) const;

  // Called by Buffer::Release when the last reference drops; the buffer
  // returns to the free list for recycling.
  void OnBufferUnreferenced(Buffer* buffer);

  // Called by Buffer::Seal to revoke an untrusted producer's write access.
  void OnBufferSealed(Buffer* buffer);

  // --- Introspection ------------------------------------------------------

  // Bytes of storage held by this pool (live + recyclable).
  uint64_t bytes_reserved() const { return bytes_reserved_; }
  size_t free_list_size() const { return free_count_; }
  size_t live_buffers() const { return live_buffers_; }

 private:
  struct Extent {
    std::vector<iolsim::ChunkId> chunks;
    char* data = nullptr;             // Start of the extent's storage.
    std::unique_ptr<char[]> owned;    // Heap backing (null when external).
    size_t size = 0;
    size_t bump = 0;  // Next free offset for small carving.
  };

  // Creates a new extent spanning >= `n` bytes of whole chunks.
  size_t NewExtent(size_t n);

  // Carves a brand-new buffer of capacity `n`.
  Buffer* CarveBuffer(size_t n);

  void PrepareFill(Buffer* buffer);

  iolsim::SimContext* ctx_;
  std::string name_;
  iolsim::DomainId producer_;
  ExtentSource* extent_source_;  // Not owned; null for heap-backed pools.

  std::vector<Extent> extents_;
  std::vector<std::unique_ptr<Buffer>> all_buffers_;
  // Free buffers keyed by capacity (first-fit via lower_bound; equal keys
  // stay in release order). Pool-allocated nodes: the steady-state
  // release/reallocate cycle of e.g. header buffers recycles, never
  // allocates.
  std::multimap<size_t, Buffer*, std::less<size_t>,
                iolsim::PoolAllocator<std::pair<const size_t, Buffer*>>>
      free_list_;
  size_t free_count_ = 0;
  size_t live_buffers_ = 0;
  uint64_t bytes_reserved_ = 0;
  uint64_t next_buffer_id_;

  // Atomic: pools are constructed concurrently by threaded plane workers.
  static std::atomic<uint64_t> next_pool_seed_;
};

}  // namespace iolite

#endif  // SRC_IOLITE_BUFFER_POOL_H_
