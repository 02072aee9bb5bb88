// ShmCacheMirror: projects a FileCache's membership into a shared-memory
// ShmMap, making the unified cache's *metadata* visible across processes.
//
// The in-process FileCache stays the authority (policies, budget trigger,
// snapshot semantics all unchanged); the mirror is a write-through shadow of
// one fact per file — "file F's bytes live at region offset O, length L" —
// which is everything a foreign proxy worker needs to serve F with zero
// copies. Only entries the plane can actually share are mirrored: whole-file
// (offset 0), single-slice, and resident in the mirror's region. Anything
// else (multi-slice assemblies, partial ranges, heap-backed buffers) is
// silently skipped; a foreign lookup then misses and takes the fill path,
// which is correct, just slower.
//
// A re-insert swaps the mapped value in place (ShmMap::Replace), so another
// replica serving its own hit never finds the key missing mid-update.
// Mutations are asymmetric on purpose: a mirrored entry that a foreign
// process has pinned can be neither erased nor replaced, so the mirror
// parks the key's latest mutation and retries it on later mutations. The
// payload is safe either way — region extents are never recycled by the
// plane.

#ifndef SRC_IPC_SHM_CACHE_MIRROR_H_
#define SRC_IPC_SHM_CACHE_MIRROR_H_

#include <cstdint>
#include <vector>

#include "src/fs/file_cache.h"
#include "src/ipc/shm_map.h"
#include "src/ipc/shm_region.h"
#include "src/ipc/slice_desc.h"

namespace iolipc {

class ShmCacheMirror : public iolfs::CacheMirror {
 public:
  // `region` and `map` must outlive the mirror (and the cache it watches).
  ShmCacheMirror(ShmRegion* region, ShmMap* map) : region_(region), map_(map) {}

  void OnInsert(iolfs::FileId file, uint64_t offset,
                const iolite::Aggregate& data) override;
  void OnErase(iolfs::FileId file, uint64_t offset, size_t length) override;

  // Entries skipped because they were not shareable (diagnostics).
  uint64_t skipped() const { return skipped_; }
  // Keys whose latest mutation is parked behind a foreign pin.
  size_t deferred() const { return deferred_.size(); }

 private:
  // One key's latest mutation: publish `value`, or erase the key.
  struct Mutation {
    uint64_t key;
    bool publish;
    SliceDesc value;
  };

  // Applies `m` now, or parks it in place of the key's older parked one.
  void Apply(const Mutation& m);
  // True when `m` took effect (or has nothing left to do).
  bool TryApply(const Mutation& m);
  void DrainDeferred();

  ShmRegion* region_;
  ShmMap* map_;
  std::vector<Mutation> deferred_;
  uint64_t skipped_ = 0;
};

}  // namespace iolipc

#endif  // SRC_IPC_SHM_CACHE_MIRROR_H_
