// PoolAllocator: a freelist-backed std allocator for node-based containers.
//
// The warm request path performs balanced insert/erase cycles on a few
// node-based containers — the list + hash map of every LruList (lru.h: the
// checksum cache, the metadata cache, the LRU replacement policies and the
// file cache's per-tenant partitions), the GDS policy's priority set, the
// buffer pool's free list, the memory model's reservation map. With the default allocator every cycle is an operator
// new/delete round trip. PoolAllocator gives each container a private free
// list keyed by block size: deallocated nodes are parked and reused, so
// steady-state container churn never touches the heap (memory is retained
// until the container — and the last allocator copy — is destroyed).
//
// Semantics (element order, iterator validity, tie-breaking) are exactly
// the container's own: only the source of raw node memory changes, which is
// what keeps pooled containers bit-compatible with the unpooled originals.

#ifndef SRC_SIMOS_POOL_ALLOCATOR_H_
#define SRC_SIMOS_POOL_ALLOCATOR_H_

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace iolsim {

namespace internal {

// Free lists for one container family, shared across rebound copies.
// Containers rebind the allocator to 2-3 distinct node types; a small
// linear-scanned array of size classes covers them.
class PoolState {
 public:
  void* Allocate(size_t bytes) {
    std::vector<void*>* fl = ListFor(bytes, /*create=*/false);
    if (fl != nullptr && !fl->empty()) {
      void* p = fl->back();
      fl->pop_back();
      return p;
    }
    return ::operator new(bytes);
  }

  void Deallocate(void* p, size_t bytes) {
    std::vector<void*>* fl = ListFor(bytes, /*create=*/true);
    if (fl == nullptr) {
      ::operator delete(p);
      return;
    }
    fl->push_back(p);
  }

  ~PoolState() {
    for (SizeClass& sc : classes_) {
      for (void* p : sc.free) {
        ::operator delete(p);
      }
    }
  }

 private:
  struct SizeClass {
    size_t bytes = 0;
    std::vector<void*> free;
  };

  std::vector<void*>* ListFor(size_t bytes, bool create) {
    for (SizeClass& sc : classes_) {
      if (sc.bytes == bytes) {
        return &sc.free;
      }
    }
    if (!create || classes_.size() >= kMaxClasses) {
      return nullptr;  // Unknown or overflowing size class: plain heap.
    }
    classes_.push_back(SizeClass{bytes, {}});
    return &classes_.back().free;
  }

  static constexpr size_t kMaxClasses = 8;
  std::vector<SizeClass> classes_;
};

}  // namespace internal

template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() : state_(std::make_shared<internal::PoolState>()) {}

  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : state_(other.state_) {}  // NOLINT

  T* allocate(size_t n) {
    if (n == 1) {
      return static_cast<T*>(state_->Allocate(sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    if (n == 1) {
      state_->Deallocate(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  bool operator==(const PoolAllocator& other) const { return state_ == other.state_; }
  bool operator!=(const PoolAllocator& other) const { return !(*this == other); }

 private:
  template <typename U>
  friend class PoolAllocator;

  std::shared_ptr<internal::PoolState> state_;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_POOL_ALLOCATOR_H_
