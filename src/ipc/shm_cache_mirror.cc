#include "src/ipc/shm_cache_mirror.h"

#include <algorithm>

#include "src/ipc/slice_desc.h"

namespace iolipc {

void ShmCacheMirror::OnInsert(iolfs::FileId file, uint64_t offset,
                              const iolite::Aggregate& data) {
  DrainDeferred();
  if (offset != 0 || data.slice_count() != 1) {
    ++skipped_;
    return;
  }
  const iolite::Slice& s = data.slices()[0];
  if (!region_->Contains(s.data(), s.length())) {
    ++skipped_;  // Heap-backed buffer: not addressable by other processes.
    return;
  }
  SliceDesc d{};
  d.offset = region_->OffsetOf(s.data());
  d.length = s.length();
  d.flags = kFrameEnd;
  // Re-insert semantics: a write replaced the entry, so the old mapping (if
  // any) must not win. A foreign pin parks the replacement and the stale
  // value persists until the pin drops — the payload it names is still
  // valid bytes (immutability), just superseded.
  Apply(Mutation{static_cast<uint64_t>(file), true, d});
}

void ShmCacheMirror::OnErase(iolfs::FileId file, uint64_t offset, size_t length) {
  (void)offset;
  (void)length;
  DrainDeferred();
  Apply(Mutation{static_cast<uint64_t>(file), false, SliceDesc{}});
}

void ShmCacheMirror::Apply(const Mutation& m) {
  auto parked = std::find_if(deferred_.begin(), deferred_.end(),
                             [&m](const Mutation& p) { return p.key == m.key; });
  if (TryApply(m)) {
    if (parked != deferred_.end()) {
      deferred_.erase(parked);  // Superseded by the mutation that just landed.
    }
  } else if (parked != deferred_.end()) {
    *parked = m;
  } else {
    deferred_.push_back(m);
  }
}

bool ShmCacheMirror::TryApply(const Mutation& m) {
  if (!m.publish) {
    return map_->Erase(m.key) || map_->PinsOf(m.key) < 0;
  }
  switch (map_->Replace(m.key, m.value)) {
    case ShmMap::ReplaceResult::kPinned:
      return false;
    case ShmMap::ReplaceResult::kAbsent:
      map_->Insert(m.key, m.value);
      return true;
    case ShmMap::ReplaceResult::kReplaced:
      return true;
  }
  return true;
}

void ShmCacheMirror::DrainDeferred() {
  deferred_.erase(std::remove_if(deferred_.begin(), deferred_.end(),
                                 [this](const Mutation& m) { return TryApply(m); }),
                  deferred_.end());
}

}  // namespace iolipc
