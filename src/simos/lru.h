// LruList: a recency-ordered map, the one LRU structure of the simulator.
//
// The unified file cache's LRU policies (Section 3.7) and per-tenant
// partitions, the metadata buffer cache and the checksum cache (Section
// 3.9) all keep "which key was used least recently" in this one class.
// Keys sit in a std::list ordered oldest to newest; an unordered_map from
// key to (value, list position) makes touch, find and erase O(1). Both
// containers draw nodes from iolsim::PoolAllocator, so at-capacity
// insert/evict churn recycles nodes instead of hitting the heap. Set-like
// users leave Value at the empty NoValue.
//
// Copying is deleted because the map holds iterators into the list. Move
// construction keeps them valid (std::list moves its nodes), so an LruList
// may live in a growing std::vector.

#ifndef SRC_SIMOS_LRU_H_
#define SRC_SIMOS_LRU_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "src/simos/pool_allocator.h"

namespace iolsim {

struct NoValue {};

template <class Key, class Value = NoValue, class Hash = std::hash<Key>>
class LruList {
  using List = std::list<Key, PoolAllocator<Key>>;

 public:
  using const_iterator = typename List::const_iterator;

  LruList() = default;
  LruList(const LruList&) = delete;
  LruList& operator=(const LruList&) = delete;
  LruList(LruList&&) = default;

  // Makes `key` the newest entry, inserting it with a value-initialized
  // Value when absent. Returns the entry's value and whether the key was
  // new. One hash probe either way.
  std::pair<Value&, bool> Touch(const Key& key) {
    auto [it, inserted] = map_.try_emplace(key);
    if (inserted) {
      it->second.pos = order_.insert(order_.end(), key);
    } else {
      order_.splice(order_.end(), order_, it->second.pos);
    }
    return {it->second.value, inserted};
  }

  // Returns the value of `key` and makes it the newest, or null if absent.
  Value* Find(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    order_.splice(order_.end(), order_, it->second.pos);
    return &it->second.value;
  }

  // Removes `key`; false if it was absent.
  bool Erase(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    order_.erase(it->second.pos);
    map_.erase(it);
    return true;
  }

  // Removes the oldest entry. The list must not be empty.
  void PopOldest() {
    assert(!order_.empty());
    map_.erase(order_.front());
    order_.pop_front();
  }

  void clear() {
    map_.clear();
    order_.clear();
  }

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  // Keys from oldest to newest.
  const_iterator begin() const { return order_.begin(); }
  const_iterator end() const { return order_.end(); }

 private:
  struct Slot {
    [[no_unique_address]] Value value{};
    typename List::iterator pos;
  };

  List order_;
  std::unordered_map<Key, Slot, Hash, std::equal_to<Key>,
                     PoolAllocator<std::pair<const Key, Slot>>>
      map_;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_LRU_H_
