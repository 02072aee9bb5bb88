// Multi-process tests for the shared-memory data plane: the primitives
// exercised by real fork()ed processes, crash recovery, cross-mode byte
// identity of the full plane, and the out-of-process verification surface
// (fresh region attach + scripts/shm_inspect.py).
//
// Everything fork-based lives here (ctest labels "ipc;fork") so the TSan job
// can run ipc_structures_test without fork-under-sanitizer caveats.

#include <gtest/gtest.h>
#include <libgen.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/driver/process_tier.h"
#include "src/ipc/mpmc_queue.h"
#include "src/ipc/process_plane.h"
#include "src/ipc/shm_counters.h"
#include "src/ipc/shm_future.h"
#include "src/ipc/shm_map.h"
#include "src/ipc/shm_region.h"
#include "src/ipc/shm_table.h"

namespace {

using iolipc::MpmcQueue;
using iolipc::PlaneMode;
using iolipc::ShmFuturePool;
using iolipc::ShmMap;
using iolipc::ShmRegion;
using iolipc::ShmTable;
using iolipc::SliceDesc;
using iolipc::WorkerGroup;

bool HaveDevShm() { return access("/dev/shm", W_OK) == 0; }

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// Shared scratch carved out of the region so forked workers can report back
// and claim a per-worker id. Must be trivially constructible from zeroes.
struct ForkScratch {
  std::atomic<uint32_t> ticket;   // Worker-id dispenser.
  std::atomic<uint64_t> popped;   // Items consumed so far.
  std::atomic<uint64_t> sum;      // Fold of consumed payloads.
};

ForkScratch* CarveScratch(ShmRegion* region) {
  auto* s = reinterpret_cast<ForkScratch*>(region->AllocateExtent(sizeof(ForkScratch)));
  std::memset(reinterpret_cast<void*>(s), 0, sizeof(*s));
  return s;
}

// --- Randomized MPMC property test across forked processes ------------------

TEST(ForkPlaneTest, MpmcQueueDeliversEveryItemExactlyOnceAcrossProcesses) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;  // 4 forked processes total.
  constexpr uint64_t kPerProducer = 20000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;

  auto region = ShmRegion::Create(4u << 20);  // Anonymous: fork-shared.
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 4);
  MpmcQueue q = MpmcQueue::Create(region.get(), &table, "q", 128);
  ASSERT_TRUE(q.valid());
  ForkScratch* scratch = CarveScratch(region.get());

  // Producers push pseudo-random payloads from per-producer deterministic
  // seeds; the parent recomputes the expected fold without sharing state.
  WorkerGroup producers;
  ASSERT_TRUE(producers.Launch(PlaneMode::kProcesses, kProducers, [&] {
    uint32_t id = scratch->ticket.fetch_add(1, std::memory_order_relaxed);
    uint64_t rng = 0x9e3779b97f4a7c15ull * (id + 1);
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      SliceDesc d{};
      d.offset = XorShift(&rng);
      d.length = 1;
      while (!q.TryPush(d)) {
        sched_yield();
      }
    }
  }));
  WorkerGroup consumers;
  ASSERT_TRUE(consumers.Launch(PlaneMode::kProcesses, kConsumers, [&] {
    SliceDesc d;
    for (;;) {
      if (q.TryPop(&d)) {
        scratch->sum.fetch_add(d.offset, std::memory_order_relaxed);
        if (scratch->popped.fetch_add(1, std::memory_order_relaxed) + 1 == kTotal) {
          return;
        }
      } else if (scratch->popped.load(std::memory_order_relaxed) >= kTotal) {
        return;
      } else {
        sched_yield();
      }
    }
  }));
  EXPECT_EQ(producers.JoinAll(), 0);
  EXPECT_EQ(consumers.JoinAll(), 0);

  uint64_t expect = 0;
  for (int id = 0; id < kProducers; ++id) {
    uint64_t rng = 0x9e3779b97f4a7c15ull * (id + 1);
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      expect += XorShift(&rng);
    }
  }
  EXPECT_EQ(scratch->popped.load(), kTotal);
  EXPECT_EQ(scratch->sum.load(), expect)
      << "every pushed payload consumed exactly once";
  SliceDesc leftover;
  EXPECT_FALSE(q.TryPop(&leftover));
}

// --- ShmMap torture across forked processes ---------------------------------

TEST(ForkPlaneTest, MapTortureAcrossProcessesKeepsAccountingConsistent) {
  constexpr int kWorkers = 3;
  constexpr int kOpsPerWorker = 20000;
  constexpr uint64_t kKeySpace = 48;

  auto region = ShmRegion::Create(4u << 20);
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 4);
  ShmMap map = ShmMap::Create(region.get(), &table, "m", 128);
  ASSERT_TRUE(map.valid());
  ForkScratch* scratch = CarveScratch(region.get());

  WorkerGroup workers;
  ASSERT_TRUE(workers.Launch(PlaneMode::kProcesses, kWorkers, [&] {
    uint32_t id = scratch->ticket.fetch_add(1, std::memory_order_relaxed);
    uint64_t rng = 0xda3e39cb94b95bdbull * (id + 1);
    for (int i = 0; i < kOpsPerWorker; ++i) {
      uint64_t r = XorShift(&rng);
      uint64_t key = r % kKeySpace;
      SliceDesc v{};
      v.offset = key * 64;
      v.length = 64;
      switch (r % 5) {
        case 0:
          map.Insert(key, v);
          break;
        case 1: {
          SliceDesc out;
          if (map.Lookup(key, &out) && out.offset != key * 64) {
            _exit(7);  // Torn value observed: fail loudly from the child.
          }
          break;
        }
        case 2: {
          SliceDesc out;
          if (map.LookupAndPin(key, &out)) {
            if (out.length != 64) {
              _exit(7);
            }
            map.Unpin(key);
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
  }));
  EXPECT_EQ(workers.JoinAll(), 0) << "a child observed a torn map value";

  // Quiesced: header accounting must match a full rescan, no pins leaked.
  uint32_t live = 0;
  uint64_t bytes = 0;
  for (uint64_t key = 0; key < kKeySpace; ++key) {
    SliceDesc v;
    if (map.Lookup(key, &v)) {
      ++live;
      bytes += v.length;
      EXPECT_EQ(v.offset, key * 64);
      EXPECT_EQ(map.PinsOf(key), 0) << "leaked pin on key " << key;
    }
  }
  EXPECT_EQ(map.size(), live);
  EXPECT_EQ(map.bytes(), bytes);
}

// --- Crash recovery ----------------------------------------------------------

// A filler process takes the fill order and dies without completing. The
// waiter must time out, fail the future itself, and leave the slot cleanly
// reusable — no deadlock, no stuck kPending slot.
TEST(ForkPlaneTest, CrashedFillerResolvesTheFutureByTimeout) {
  auto region = ShmRegion::Create(4u << 20);
  ASSERT_NE(region, nullptr);
  ShmTable table = ShmTable::Create(region.get(), 8);
  MpmcQueue fill_q = MpmcQueue::Create(region.get(), &table, "fills", 8);
  ShmFuturePool futures = ShmFuturePool::Create(region.get(), &table, "f", 4);
  ASSERT_TRUE(fill_q.valid());
  ASSERT_TRUE(futures.valid());

  WorkerGroup crasher;
  ASSERT_TRUE(crasher.Launch(PlaneMode::kProcesses, 1, [&] {
    iolipc::FillRequestMsg msg;
    while (!fill_q.PopAs(&msg)) {
      sched_yield();
    }
    _exit(1);  // Crash while holding the fill order.
  }));

  iolipc::FutureHandle h = futures.Acquire();
  ASSERT_NE(h, iolipc::kInvalidFuture);
  iolipc::FillRequestMsg msg{};
  msg.file_id = 1;
  msg.future = h;
  ASSERT_TRUE(fill_q.PushAs(msg));

  ShmFuturePool::WaitResult r =
      futures.Wait(h, /*timeout_us=*/200'000, [] { sched_yield(); });
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.timed_out) << "the waiter itself failed the abandoned future";
  EXPECT_EQ(futures.CountInState(ShmFuturePool::kPending), 0u);
  futures.Release(h);
  EXPECT_EQ(futures.allocated(), 0u);
  // The slot is immediately reusable for the next request.
  iolipc::FutureHandle h2 = futures.Acquire();
  EXPECT_NE(h2, iolipc::kInvalidFuture);
  ASSERT_TRUE(futures.Fail(h2, 1));
  futures.Release(h2);

  EXPECT_EQ(crasher.JoinAll(), 1) << "exactly the one deliberate abnormal exit";
}

// A full plane whose origin fleet never answers (zero origin workers): every
// static miss must come back as an error within the fill timeout, the run
// must terminate, and the workers must exit cleanly.
TEST(ForkPlaneTest, PlaneWithNoOriginWorkersFailsRequestsInsteadOfHanging) {
  ioldrv::ProcessTierConfig cfg;
  cfg.mode = PlaneMode::kProcesses;
  cfg.region_name.clear();
  cfg.requests = 6;
  cfg.inflight = 2;
  cfg.docs.doc_count = 4;
  cfg.docs.doc_bytes = 4096;
  cfg.cgi_every = 0;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 0;  // Nobody fills: every miss is an orphaned future.
  cfg.cgi_workers = 0;
  cfg.fill_wait_us = 100'000;
  cfg.client_wait_us = 2'000'000;

  ioldrv::ProcessTierResult r = ioldrv::RunProcessTier(cfg);
  EXPECT_TRUE(r.ok) << "workers joined cleanly";
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.errors, 6u) << "every request resolved, all with errors";
  EXPECT_GT(r.future_errors, 0u);
  EXPECT_EQ(r.abnormal_worker_exits, 0);
}

// --- The real multi-process plane --------------------------------------------

TEST(ForkPlaneTest, ProcessesModeIsByteIdenticalWithZeroCrossProcessCopies) {
  ioldrv::ProcessTierConfig cfg;
  cfg.region_name = "iolite-test-ident";
  cfg.requests = 200;
  cfg.inflight = 8;
  cfg.docs.doc_count = 16;
  cfg.docs.doc_bytes = 12 * 1024;
  cfg.cgi_every = 5;
  cfg.cgi_body_bytes = 777;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 1;
  cfg.cgi_workers = 1;

  cfg.mode = PlaneMode::kInProcess;
  ioldrv::ProcessTierResult sim = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(sim.ok);
  ASSERT_EQ(sim.errors, 0u);
  ASSERT_TRUE(sim.byte_identical);

  cfg.mode = PlaneMode::kProcesses;
  ioldrv::ProcessTierResult proc = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(proc.ok);
  EXPECT_EQ(proc.errors, 0u);
  EXPECT_EQ(proc.abnormal_worker_exits, 0);
  EXPECT_TRUE(proc.byte_identical) << "every response verified against the reference";
  EXPECT_EQ(proc.response_checksum, sim.response_checksum)
      << "forked processes serve the exact byte stream of the simulator";
  EXPECT_EQ(proc.requests, 200u);

  // The PR's central claim, checked from outside the serving processes: the
  // counters come from a fresh attach of the region by name when POSIX shm
  // is available, and the warm path copied zero payload bytes.
  EXPECT_EQ(proc.bytes_copied_cross_process, 0u);
  if (HaveDevShm()) {
    EXPECT_TRUE(proc.counters_out_of_process)
        << "counters must be read through a fresh attach, not in-place";
  }
  EXPECT_GT(proc.cache_hits, 0u);
  EXPECT_GT(proc.origin_fills, 0u);
  EXPECT_GT(proc.cgi_requests, 0u);
}

// --- Supervision: crash at the worst instant, recover, finish the run --------

TEST(ForkPlaneTest, SupervisorRespawnsDeadProxyAndSweepsItsPin) {
  ioldrv::ProcessTierConfig cfg;
  cfg.mode = PlaneMode::kProcesses;
  cfg.region_name.clear();
  cfg.requests = 160;
  cfg.inflight = 4;
  cfg.docs.doc_count = 8;
  cfg.docs.doc_bytes = 8 * 1024;
  cfg.cgi_every = 0;
  cfg.proxy_workers = 2;
  cfg.origin_workers = 1;
  cfg.cgi_workers = 0;
  cfg.supervise = true;
  // Proxy 0 _Exit(9)s the moment it takes its 5th pin: ledger slot recorded,
  // map pin held, client future unresolved — the worst possible instant.
  cfg.proxy_die_after_pins = 5;
  cfg.client_retries = 2;  // The orphaned request times out and is re-issued.
  cfg.fill_wait_us = 200'000;
  cfg.client_wait_us = 500'000;

  ioldrv::ProcessTierResult r = ioldrv::RunProcessTier(cfg);
  ASSERT_TRUE(r.ok) << "final join clean despite the injected crash";
  EXPECT_GE(r.abnormal_worker_exits, 1);
  EXPECT_GE(r.worker_respawns, 1u) << "the dead slot was relaunched";
  EXPECT_GE(r.pins_swept, 1u) << "the crashed worker's ledgered pin was reclaimed";
  EXPECT_EQ(r.leaked_pins, 0u) << "no doc key still pinned after quiesce";
  EXPECT_EQ(r.requests + r.errors, 160u) << "every request resolved";
  EXPECT_GE(r.client_retries_used, 1u);
  EXPECT_EQ(r.errors, 0u) << "retries converted the crash into late successes";
  EXPECT_TRUE(r.byte_identical);
}

// --- Region lifecycle: sweeping segments left by dead processes --------------

TEST(ForkPlaneTest, SweepStaleReclaimsRegionsOfDeadOwnersOnly) {
  if (!HaveDevShm()) {
    GTEST_SKIP() << "no /dev/shm in this environment";
  }
  constexpr char kStaleName[] = "/iolite-test-sweep-victim";
  constexpr char kLiveName[] = "/iolite-test-sweep-live";
  ShmRegion::SweepStale("iolite-test-sweep");  // Clean slate.

  // A child creates a named region and dies without running destructors —
  // exactly the leak SweepStale exists for.
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto leaked = ShmRegion::Create(1u << 20, kStaleName);
    _exit(leaked != nullptr && leaked->posix_shm_backed() ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) == 3) {
    GTEST_SKIP() << "POSIX shm not usable here; nothing to sweep";
  }
  ASSERT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(access("/dev/shm/iolite-test-sweep-victim", F_OK), 0)
      << "the child's segment outlived it";

  auto live = ShmRegion::Create(1u << 20, kLiveName);
  ASSERT_NE(live, nullptr);

  EXPECT_EQ(ShmRegion::SweepStale("iolite-test-sweep"), 1)
      << "exactly the dead owner's segment reclaimed";
  EXPECT_NE(access("/dev/shm/iolite-test-sweep-victim", F_OK), 0);
  EXPECT_EQ(access("/dev/shm/iolite-test-sweep-live", F_OK), 0)
      << "a live owner's segment must survive the sweep";
}

// --- The Python inspector ----------------------------------------------------

std::string InspectorPath() {
  char buf[4096];
  std::snprintf(buf, sizeof(buf), "%s", __FILE__);
  std::string dir = dirname(buf);
  std::string path = dir + "/../scripts/shm_inspect.py";
  return access(path.c_str(), R_OK) == 0 ? path : std::string();
}

TEST(ForkPlaneTest, ShmInspectDumpsALivePlaneFromOutside) {
  if (!HaveDevShm()) {
    GTEST_SKIP() << "no /dev/shm in this environment";
  }
  if (std::system("python3 -c pass >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  std::string script = InspectorPath();
  if (script.empty()) {
    GTEST_SKIP() << "scripts/shm_inspect.py not found from " << __FILE__;
  }

  auto region = ShmRegion::Create(8u << 20, "/iolite-test-inspect");
  ASSERT_NE(region, nullptr);
  if (!region->posix_shm_backed()) {
    GTEST_SKIP() << "POSIX shm not usable here";
  }
  iolipc::PlaneConfig pc;
  pc.queue_capacity = 32;
  pc.map_capacity = 64;
  pc.future_capacity = 8;
  pc.header_slots = 8;
  pc.cgi_slots = 4;
  pc.copy_slots = 4;
  pc.copy_slot_bytes = 4096;
  iolipc::PlaneShared plane = iolipc::CreatePlane(region.get(), pc);
  ASSERT_TRUE(plane.valid());
  plane.counters.Add(iolipc::kBytesServed, 12345);
  SliceDesc v{};
  v.offset = 4096;
  v.length = 512;
  ASSERT_EQ(plane.cache_map.Insert(7, v), ShmMap::InsertResult::kInserted);

  std::string shm_name = region->name();
  if (!shm_name.empty() && shm_name.front() == '/') {
    shm_name.erase(0, 1);
  }
  std::string cmd = "python3 " + script + " " + shm_name + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char chunk[512];
  while (fgets(chunk, sizeof(chunk), pipe) != nullptr) {
    out += chunk;
  }
  int rc = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 0) << out;

  // The inspector saw the directory and decoded the structures with nothing
  // but the ABI offsets.
  EXPECT_NE(out.find("plane.q.client"), std::string::npos) << out;
  EXPECT_NE(out.find("plane.map.cache"), std::string::npos) << out;
  EXPECT_NE(out.find("\"bytes_served\": 12345"), std::string::npos) << out;
  EXPECT_NE(out.find("\"key\": 7"), std::string::npos) << out;
  EXPECT_NE(out.find("\"payload_length\": 512"), std::string::npos) << out;
  // The inspector's counter names stay in lockstep with PlaneCounterName:
  // every slot decodes under its C++ name, none under the fallback.
  for (uint32_t i = 0; i < iolipc::kCounterCount; ++i) {
    std::string key = std::string("\"") + iolipc::PlaneCounterName(i) + "\": ";
    EXPECT_NE(out.find(key), std::string::npos) << key << " missing in " << out;
  }
  EXPECT_EQ(out.find("\"counter_"), std::string::npos) << out;
}

}  // namespace
