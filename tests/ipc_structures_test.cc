// Tests for the shared-memory data-plane primitives (src/ipc v2): the
// named-structure directory, the MPMC descriptor queue, the shared cache
// map, pooled futures, counters, and the FileCache mirror — plus a
// threads-mode run of the whole plane.
//
// Everything here is single-process (std::thread at most): this file is the
// TSan surface of the plane. Fork-based multi-process tests live in
// ipc_plane_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/driver/process_tier.h"
#include "src/fs/file_cache.h"
#include "src/fs/replacement_policy.h"
#include "src/iolite/buffer_pool.h"
#include "src/ipc/mpmc_queue.h"
#include "src/ipc/process_plane.h"
#include "src/ipc/shm_cache_mirror.h"
#include "src/ipc/shm_counters.h"
#include "src/ipc/shm_future.h"
#include "src/ipc/shm_map.h"
#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"
#include "src/simos/sim_context.h"
#include "src/simos/vm.h"

namespace {

using iolipc::MpmcQueue;
using iolipc::ShmCounters;
using iolipc::ShmFuturePool;
using iolipc::ShmMap;
using iolipc::ShmRegion;
using iolipc::ShmTable;
using iolipc::SliceDesc;

std::unique_ptr<ShmRegion> AnonRegion(size_t bytes = 4u << 20) {
  return ShmRegion::Create(bytes);  // Anonymous: no /dev/shm dependency.
}

SliceDesc Desc(uint64_t offset, uint64_t length) {
  SliceDesc d{};
  d.offset = offset;
  d.length = length;
  return d;
}

// --- ShmTable ---------------------------------------------------------------

TEST(ShmTableTest, PublishFindAttach) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 8);
  ASSERT_TRUE(table.valid());
  EXPECT_EQ(table.entry_count(), 0u);

  EXPECT_TRUE(table.Publish("alpha", 4096, 64, iolipc::ShmType::kRaw));
  EXPECT_TRUE(table.Publish("beta", 8192, 128, iolipc::ShmType::kQueue));
  EXPECT_FALSE(table.Publish("alpha", 1, 1, iolipc::ShmType::kRaw)) << "duplicate name";

  const ShmTable::Entry* e = table.Find("beta");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->offset, 8192u);
  EXPECT_EQ(e->size, 128u);
  EXPECT_EQ(e->type, static_cast<uint32_t>(iolipc::ShmType::kQueue));
  EXPECT_EQ(table.Find("gamma"), nullptr);

  // A second handle (another process's view) sees the same directory.
  ShmTable attached = ShmTable::Attach(region.get());
  ASSERT_TRUE(attached.valid());
  EXPECT_EQ(attached.entry_count(), 2u);
  ASSERT_NE(attached.Find("alpha"), nullptr);
  EXPECT_EQ(attached.Find("alpha")->offset, 4096u);
}

TEST(ShmTableTest, CapacityIsEnforced) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 2);
  ASSERT_TRUE(table.valid());
  EXPECT_TRUE(table.Publish("a", 0, 1, iolipc::ShmType::kRaw));
  EXPECT_TRUE(table.Publish("b", 0, 1, iolipc::ShmType::kRaw));
  EXPECT_FALSE(table.Publish("c", 0, 1, iolipc::ShmType::kRaw));
}

// --- MpmcQueue --------------------------------------------------------------

TEST(MpmcQueueTest, FifoAndFullEmpty) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 4);
  ASSERT_TRUE(q.valid());

  SliceDesc out;
  EXPECT_FALSE(q.TryPop(&out)) << "fresh queue is empty";
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.TryPush(Desc(i, i * 10)));
  }
  EXPECT_FALSE(q.TryPush(Desc(99, 99))) << "full queue rejects";
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out.offset, i);
    EXPECT_EQ(out.length, i * 10);
  }
  EXPECT_FALSE(q.TryPop(&out));

  EXPECT_FALSE(q.closed());
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_TRUE(q.drained());
}

TEST(MpmcQueueTest, TypedMessagePun) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 8);
  iolipc::ClientRequestMsg in{7, 0xdeadbeefcafe, 1, 2, 3};
  ASSERT_TRUE(q.PushAs(in));
  iolipc::ClientRequestMsg out{};
  ASSERT_TRUE(q.PopAs(&out));
  EXPECT_EQ(out.file_id, 7u);
  EXPECT_EQ(out.future, 0xdeadbeefcafeu);
  EXPECT_EQ(out.kind, 1u);
  EXPECT_EQ(out.flags, 2u);
  EXPECT_EQ(out.reserved, 3u);
}

TEST(MpmcQueueTest, ThreadedMpmcDeliversEveryItemExactlyOnce) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 64);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr uint64_t kPerProducer = 5000;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Unique id: producer in the high bits.
        while (!q.TryPush(Desc((static_cast<uint64_t>(p) << 32) | i, 1))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      SliceDesc d;
      for (;;) {
        if (q.TryPop(&d)) {
          sum.fetch_add(d.offset, std::memory_order_relaxed);
          if (popped.fetch_add(1, std::memory_order_relaxed) + 1 ==
              kProducers * kPerProducer) {
            return;
          }
        } else if (popped.load(std::memory_order_relaxed) >= kProducers * kPerProducer) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  // Sum of all unique ids: per producer, p<<32 * kPerProducer + sum(0..n-1).
  uint64_t expect = 0;
  for (uint64_t p = 0; p < kProducers; ++p) {
    expect += (p << 32) * kPerProducer + kPerProducer * (kPerProducer - 1) / 2;
  }
  EXPECT_EQ(sum.load(), expect);
}

// --- ShmMap -----------------------------------------------------------------

TEST(ShmMapTest, InsertLookupEraseEvict) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 16);
  ASSERT_TRUE(map.valid());

  EXPECT_EQ(map.Insert(42, Desc(100, 1000)), ShmMap::InsertResult::kInserted);
  EXPECT_EQ(map.Insert(42, Desc(999, 9)), ShmMap::InsertResult::kExists)
      << "existing value wins";
  SliceDesc v;
  ASSERT_TRUE(map.Lookup(42, &v));
  EXPECT_EQ(v.offset, 100u);
  EXPECT_EQ(v.length, 1000u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.bytes(), 1000u);
  EXPECT_FALSE(map.Lookup(43, &v));

  // Pins block erase and eviction.
  ASSERT_TRUE(map.LookupAndPin(42, &v));
  EXPECT_EQ(map.PinsOf(42), 1);
  EXPECT_FALSE(map.Erase(42)) << "pinned entries cannot be erased";
  uint64_t ekey = 0;
  SliceDesc eval;
  EXPECT_FALSE(map.EvictOne(&ekey, &eval)) << "everything pinned";
  ASSERT_TRUE(map.Unpin(42));
  EXPECT_EQ(map.PinsOf(42), 0);
  ASSERT_TRUE(map.EvictOne(&ekey, &eval));
  EXPECT_EQ(ekey, 42u);
  EXPECT_EQ(eval.offset, 100u);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.bytes(), 0u);
  EXPECT_FALSE(map.Lookup(42, &v));

  // The tombstone is reusable.
  EXPECT_EQ(map.Insert(42, Desc(200, 5)), ShmMap::InsertResult::kInserted);
  ASSERT_TRUE(map.Lookup(42, &v));
  EXPECT_EQ(v.offset, 200u);
}

TEST(ShmMapTest, FillsToCapacityThenRejects) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 8);
  for (uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(map.Insert(k, Desc(k, 1)), ShmMap::InsertResult::kInserted);
  }
  EXPECT_EQ(map.Insert(100, Desc(0, 1)), ShmMap::InsertResult::kFull);
  // Every key is still findable despite full-table probe chains.
  SliceDesc v;
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(map.Lookup(k, &v)) << "key " << k;
    EXPECT_EQ(v.offset, k);
  }
}

TEST(ShmMapTest, ThreadedTortureKeepsAccountingConsistent) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 256);
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 64;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        uint64_t key = rng % kKeySpace;
        switch (rng % 5) {
          case 0:
            map.Insert(key, Desc(key * 8, 8));
            break;
          case 1: {
            SliceDesc v;
            if (map.Lookup(key, &v)) {
              EXPECT_EQ(v.offset, key * 8);
            }
            break;
          }
          case 2: {
            SliceDesc v;
            if (map.LookupAndPin(key, &v)) {
              EXPECT_EQ(v.length, 8u);
              ASSERT_TRUE(map.Unpin(key));
            }
            break;
          }
          case 3:
            map.Erase(key);
            break;
          case 4:
            map.EvictOne(nullptr, nullptr);
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Quiesced invariants: header accounting matches a slot scan, no pins
  // leaked, every surviving value intact.
  uint32_t live = 0;
  uint64_t bytes = 0;
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    SliceDesc v;
    if (map.Lookup(key, &v)) {
      ++live;
      bytes += v.length;
      EXPECT_EQ(v.offset, key * 8);
      EXPECT_EQ(map.PinsOf(key), 0) << "leaked pin on key " << key;
    }
  }
  EXPECT_EQ(map.size(), live);
  EXPECT_EQ(map.bytes(), bytes);
}

// --- ShmFuturePool ----------------------------------------------------------

TEST(ShmFutureTest, CompleteAndWait) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 4);
  ASSERT_TRUE(pool.valid());

  iolipc::FutureHandle h = pool.Acquire();
  ASSERT_NE(h, iolipc::kInvalidFuture);
  EXPECT_EQ(pool.allocated(), 1u);
  ASSERT_TRUE(pool.Complete(h, Desc(10, 20), Desc(30, 40)));
  ShmFuturePool::WaitResult r = pool.Wait(h, 1000, {});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value[0].offset, 10u);
  EXPECT_EQ(r.value[1].length, 40u);
  pool.Release(h);
  EXPECT_EQ(pool.allocated(), 0u);

  // Stale handle: the released generation can no longer be completed.
  EXPECT_FALSE(pool.Complete(h, Desc(0, 0), Desc(0, 0)));
  EXPECT_FALSE(pool.Fail(h, 7));
}

TEST(ShmFutureTest, FailDeliversError) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 4);
  iolipc::FutureHandle h = pool.Acquire();
  ASSERT_TRUE(pool.Fail(h, 42));
  ShmFuturePool::WaitResult r = pool.Wait(h, 1000, {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, 42u);
  EXPECT_FALSE(pool.Complete(h, Desc(1, 1), Desc(1, 1))) << "already resolved";
  pool.Release(h);
}

TEST(ShmFutureTest, TimeoutFailsTheFutureAndLateFillerIsRejected) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 4);
  iolipc::FutureHandle h = pool.Acquire();
  // Nobody fills: the waiter times out (error 2) rather than hanging.
  ShmFuturePool::WaitResult r = pool.Wait(h, 2000, {});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.timed_out);
  // A filler arriving after the timeout must be told it lost.
  EXPECT_FALSE(pool.Complete(h, Desc(1, 1), Desc(1, 1)));
  pool.Release(h);
  EXPECT_EQ(pool.allocated(), 0u);
}

TEST(ShmFutureTest, ExhaustionAndThreadedHandoff) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmFuturePool pool = ShmFuturePool::Create(region.get(), &table, "f", 2);
  iolipc::FutureHandle a = pool.Acquire();
  iolipc::FutureHandle b = pool.Acquire();
  ASSERT_NE(a, iolipc::kInvalidFuture);
  ASSERT_NE(b, iolipc::kInvalidFuture);
  EXPECT_EQ(pool.Acquire(), iolipc::kInvalidFuture) << "pool exhausted";

  // Real handoff: a filler thread completes while the owner waits.
  std::thread filler([&] { ASSERT_TRUE(pool.Complete(a, Desc(5, 6), Desc(7, 8))); });
  ShmFuturePool::WaitResult r =
      pool.Wait(a, 5'000'000, [] { std::this_thread::yield(); });
  filler.join();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value[1].offset, 7u);
  ASSERT_TRUE(pool.Fail(b, 1));
  pool.Release(a);
  pool.Release(b);
  EXPECT_EQ(pool.CountInState(ShmFuturePool::kFree), 2u);
}

// --- ShmCounters ------------------------------------------------------------

TEST(ShmCountersTest, AddGetAndAttach) {
  auto region = AnonRegion();
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmCounters c = ShmCounters::Create(region.get(), &table, "c");
  ASSERT_TRUE(c.valid());
  c.Add(iolipc::kBytesServed, 100);
  c.Add(iolipc::kBytesServed, 23);
  c.Add(iolipc::kFutureErrors, 1);
  EXPECT_EQ(c.Get(iolipc::kBytesServed), 123u);
  EXPECT_EQ(c.Get(iolipc::kBytesCopiedCrossProcess), 0u);

  ShmCounters attached = ShmCounters::Attach(region.get(), table, "c");
  ASSERT_TRUE(attached.valid());
  EXPECT_EQ(attached.Get(iolipc::kBytesServed), 123u);
  EXPECT_EQ(attached.Get(iolipc::kFutureErrors), 1u);
  EXPECT_STREQ(iolipc::PlaneCounterName(iolipc::kBytesCopiedCrossProcess),
               "bytes_copied_cross_process");
}

// --- ShmCacheMirror ---------------------------------------------------------

TEST(ShmCacheMirrorTest, ProjectsCacheMembershipIntoTheMap) {
  auto region = AnonRegion(8u << 20);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 64);
  iolipc::ShmCacheMirror mirror(region.get(), &map);

  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "t", iolsim::kKernelDomain, region.get());
  iolfs::FileCache cache(&ctx, std::make_unique<iolfs::PlainLruPolicy>());
  cache.set_mirror(&mirror);

  iolite::BufferRef buf = pool.AllocateDma(1, 4096);
  cache.Insert(7, 0, iolite::Aggregate::FromBuffer(buf));
  SliceDesc v;
  ASSERT_TRUE(map.Lookup(7, &v));
  EXPECT_EQ(v.length, 4096u);
  EXPECT_EQ(region->At(v.offset), buf->data()) << "mirror names the same bytes";

  // Erase follows InvalidateFile…
  cache.InvalidateFile(7);
  EXPECT_FALSE(map.Lookup(7, &v));
  EXPECT_EQ(map.size(), 0u);

  // …but a foreign pin defers it until the pin drops.
  iolite::BufferRef buf2 = pool.AllocateDma(2, 2048);
  cache.Insert(9, 0, iolite::Aggregate::FromBuffer(buf2));
  ASSERT_TRUE(map.LookupAndPin(9, &v));
  cache.InvalidateFile(9);
  EXPECT_TRUE(map.Lookup(9, &v)) << "pinned entry survives the erase";
  EXPECT_EQ(mirror.deferred(), 1u);
  ASSERT_TRUE(map.Unpin(9));
  // Any later mutation drains the deferred erase.
  iolite::BufferRef buf3 = pool.AllocateDma(3, 1024);
  cache.Insert(11, 0, iolite::Aggregate::FromBuffer(buf3));
  EXPECT_FALSE(map.Lookup(9, &v));
  EXPECT_EQ(mirror.deferred(), 0u);

  // Multi-slice and partial-offset entries are skipped, not published.
  uint64_t skipped = mirror.skipped();
  cache.Insert(13, 100, iolite::Aggregate::FromBuffer(pool.AllocateDma(4, 512)));
  EXPECT_GT(mirror.skipped(), skipped);
  EXPECT_FALSE(map.Lookup(13, &v));
}

TEST(ShmCacheMirrorTest, ReinsertNeverHidesTheKeyFromAConcurrentReader) {
  // Another replica serving its own cache hit looks the key up while this
  // mirror re-publishes it; the key must stay visible throughout.
  auto region = AnonRegion(8u << 20);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 64);
  iolipc::ShmCacheMirror mirror(region.get(), &map);
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "t", iolsim::kKernelDomain, region.get());
  iolite::Aggregate a = iolite::Aggregate::FromBuffer(pool.AllocateDma(1, 4096));
  iolite::Aggregate b = iolite::Aggregate::FromBuffer(pool.AllocateDma(2, 4096));
  mirror.OnInsert(7, 0, a);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> misses{0};
  std::thread reader([&] {
    SliceDesc v;
    while (!stop.load(std::memory_order_acquire)) {
      if (map.LookupAndPin(7, &v)) {
        map.Unpin(7);
      } else {
        misses.fetch_add(1, std::memory_order_relaxed);
      }
      lookups.fetch_add(1, std::memory_order_release);
    }
  });
  while (lookups.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 20000; ++i) {
    mirror.OnInsert(7, 0, i % 2 == 0 ? b : a);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(misses.load(), 0u) << "of " << lookups.load() << " lookups";

  // Once the reader's pins are gone, the last re-insert is what the map names.
  mirror.OnErase(99, 0, 0);  // Any mutation drains a parked replacement.
  SliceDesc v;
  ASSERT_TRUE(map.Lookup(7, &v));
  EXPECT_EQ(region->At(v.offset), a.slices()[0].data());
  EXPECT_EQ(mirror.deferred(), 0u);
  EXPECT_EQ(map.size(), 1u);
}

// --- The plane, threads mode (the TSan-checkable full stack) ----------------

TEST(ProcessPlaneTest, ThreadsModeMatchesInProcessByteForByte) {
  ioldrv::ProcessTierConfig cfg;
  cfg.region_name.clear();  // Anonymous region: runs in any sandbox.
  cfg.requests = 120;
  cfg.inflight = 6;
  cfg.docs.doc_count = 12;
  cfg.docs.doc_bytes = 8 * 1024;
  cfg.cgi_every = 6;
  cfg.cgi_body_bytes = 512;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 2;
  cfg.cgi_workers = 1;

  cfg.mode = iolipc::PlaneMode::kInProcess;
  ioldrv::ProcessTierResult sim = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(sim.ok);
  EXPECT_EQ(sim.errors, 0u);
  EXPECT_TRUE(sim.byte_identical);
  EXPECT_EQ(sim.requests, 120u);

  cfg.mode = iolipc::PlaneMode::kThreads;
  ioldrv::ProcessTierResult thr = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(thr.ok);
  EXPECT_EQ(thr.errors, 0u);
  EXPECT_TRUE(thr.byte_identical);
  EXPECT_EQ(thr.response_checksum, sim.response_checksum)
      << "same workers, same bytes, regardless of execution shape";
  EXPECT_EQ(thr.bytes_copied_cross_process, 0u);
  EXPECT_EQ(thr.bytes_served, sim.bytes_served);
}

TEST(ProcessPlaneTest, CopyModeCopiesEveryStaticBodyButStaysIdentical) {
  ioldrv::ProcessTierConfig cfg;
  cfg.region_name.clear();
  cfg.requests = 60;
  cfg.inflight = 4;
  cfg.docs.doc_count = 6;
  cfg.docs.doc_bytes = 4096;
  cfg.cgi_every = 0;
  cfg.mode = iolipc::PlaneMode::kThreads;

  ioldrv::ProcessTierResult zero = ioldrv::RunProcessTier(cfg);
  cfg.copy_data_path = true;
  ioldrv::ProcessTierResult copy = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(zero.ok);
  ASSERT_TRUE(copy.ok);
  EXPECT_EQ(zero.bytes_copied_cross_process, 0u);
  EXPECT_EQ(copy.bytes_copied_cross_process, 60u * 4096u)
      << "copy mode pays one body copy per static response";
  EXPECT_EQ(copy.response_checksum, zero.response_checksum);
  EXPECT_TRUE(copy.byte_identical);
}

}  // namespace
