#include "src/fs/replacement_policy.h"

#include <cassert>

namespace iolfs {

// --- PlainLruPolicy / PaperLruPolicy ----------------------------------------

void PlainLruPolicy::OnInsert(EntryId id, size_t /*bytes*/) { lru_.Touch(id); }

void PlainLruPolicy::OnAccess(EntryId id) {
  [[maybe_unused]] bool found = lru_.Find(id) != nullptr;
  assert(found);
}

void PlainLruPolicy::OnErase(EntryId id) { lru_.Erase(id); }

EntryId PlainLruPolicy::ChooseVictim(const CacheView& /*view*/) {
  return lru_.empty() ? kNoEntry : *lru_.begin();
}

EntryId PaperLruPolicy::ChooseVictim(const CacheView& view) {
  return OldestUnreferenced(lru_, view);
}

EntryId OldestUnreferenced(const iolsim::LruList<EntryId>& lru, const CacheView& view) {
  // Least recently used among currently unreferenced entries...
  for (EntryId id : lru) {
    if (!view.IsReferenced(id)) {
      return id;
    }
  }
  // ...else least recently used among the referenced entries.
  return lru.empty() ? kNoEntry : *lru.begin();
}

// --- GreedyDualSizePolicy ---------------------------------------------------

double GreedyDualSizePolicy::PriorityFor(size_t bytes) const {
  // H = L + cost/size with cost = 1; larger objects get lower priority.
  return inflation_ + 1.0 / static_cast<double>(bytes == 0 ? 1 : bytes);
}

void GreedyDualSizePolicy::OnInsert(EntryId id, size_t bytes) {
  double h = PriorityFor(bytes);
  meta_[id] = Meta{h, bytes};
  queue_.emplace(h, id);
}

void GreedyDualSizePolicy::OnAccess(EntryId id) {
  auto it = meta_.find(id);
  assert(it != meta_.end());
  queue_.erase({it->second.priority, id});
  it->second.priority = PriorityFor(it->second.bytes);
  queue_.emplace(it->second.priority, id);
}

void GreedyDualSizePolicy::OnErase(EntryId id) {
  auto it = meta_.find(id);
  if (it == meta_.end()) {
    return;
  }
  queue_.erase({it->second.priority, id});
  meta_.erase(it);
}

EntryId GreedyDualSizePolicy::ChooseVictim(const CacheView& /*view*/) {
  if (queue_.empty()) {
    return kNoEntry;
  }
  auto [h, id] = *queue_.begin();
  // Aging: L rises to the evicted priority, so recently-touched entries
  // outrank long-idle ones regardless of size.
  inflation_ = h;
  return id;
}

}  // namespace iolfs
