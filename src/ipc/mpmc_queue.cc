#include "src/ipc/mpmc_queue.h"

#include <cassert>

namespace iolipc {

MpmcQueue MpmcQueue::Create(ShmRegion* region, ShmTable* table, const char* name,
                            uint32_t capacity) {
  assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 && "capacity must be 2^k");
  size_t span = sizeof(QueueState) + static_cast<size_t>(capacity) * sizeof(Cell);
  char* base = region->AllocateExtent(span);
  MpmcQueue q;
  if (base == nullptr) {
    return q;
  }
  std::memset(base, 0, span);
  q.region_ = region;
  q.state_ = reinterpret_cast<QueueState*>(base);
  q.cells_ = reinterpret_cast<Cell*>(base + sizeof(QueueState));
  q.mask_ = capacity - 1;
  q.state_->capacity = capacity;
  for (uint32_t i = 0; i < capacity; ++i) {
    q.cells_[i].seq.store(i, std::memory_order_relaxed);
  }
  std::atomic_ref<uint32_t>(q.state_->magic).store(kQueueMagic, std::memory_order_release);
  if (table != nullptr && !table->Publish(name, region->OffsetOf(base), span,
                                          ShmType::kQueue)) {
    return MpmcQueue{};
  }
  return q;
}

MpmcQueue MpmcQueue::Attach(ShmRegion* region, const ShmTable& table, const char* name) {
  MpmcQueue q;
  const ShmTable::Entry* e = table.Find(name);
  if (e == nullptr || e->type != static_cast<uint32_t>(ShmType::kQueue)) {
    return q;
  }
  auto* state = reinterpret_cast<QueueState*>(region->At(e->offset));
  const uint32_t magic =
      std::atomic_ref<uint32_t>(state->magic).load(std::memory_order_acquire);
  if (magic != kQueueMagic || state->capacity == 0 ||
      (state->capacity & (state->capacity - 1)) != 0) {
    return q;
  }
  q.region_ = region;
  q.state_ = state;
  q.cells_ = reinterpret_cast<Cell*>(region->At(e->offset) + sizeof(QueueState));
  q.mask_ = state->capacity - 1;
  return q;
}

bool MpmcQueue::TryPush(const SliceDesc& d) {
  uint64_t pos = state_->enqueue_pos.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    uint64_t seq = cell.seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
    if (dif == 0) {
      if (state_->enqueue_pos.compare_exchange_weak(pos, pos + 1,
                                                    std::memory_order_relaxed)) {
        cell.item = d;
        cell.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS reloaded `pos`; retry with the fresher ticket.
    } else if (dif < 0) {
      return false;  // Full: the cell is still occupied from the last lap.
    } else {
      pos = state_->enqueue_pos.load(std::memory_order_relaxed);
    }
  }
}

bool MpmcQueue::TryPop(SliceDesc* out) {
  uint64_t pos = state_->dequeue_pos.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    uint64_t seq = cell.seq.load(std::memory_order_acquire);
    int64_t dif = static_cast<int64_t>(seq) - static_cast<int64_t>(pos + 1);
    if (dif == 0) {
      if (state_->dequeue_pos.compare_exchange_weak(pos, pos + 1,
                                                    std::memory_order_relaxed)) {
        *out = cell.item;
        cell.seq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
      }
    } else if (dif < 0) {
      return false;  // Empty: the cell has not been produced this lap.
    } else {
      pos = state_->dequeue_pos.load(std::memory_order_relaxed);
    }
  }
}

bool MpmcQueue::drained() const {
  if (!closed()) {
    return false;
  }
  // Acquire on both tickets: after Close, a producer's last publish
  // happens-before the consumer's closed() read in every interleaving the
  // plane uses (close-then-join).
  uint64_t tail = state_->enqueue_pos.load(std::memory_order_acquire);
  uint64_t head = state_->dequeue_pos.load(std::memory_order_acquire);
  return head >= tail;
}

uint64_t MpmcQueue::ApproxSize() const {
  uint64_t tail = state_->enqueue_pos.load(std::memory_order_relaxed);
  uint64_t head = state_->dequeue_pos.load(std::memory_order_relaxed);
  return tail > head ? tail - head : 0;
}

}  // namespace iolipc
