// Tests for the staged request pipeline's scheduler: asynchronous Resource
// acquisition (FIFO fairness, deterministic tie-breaking, multi-unit CPUs),
// admission control (max_concurrent queues, never drops), disk/CPU overlap
// under cold caches, open-loop arrivals, pipelined connections — and the
// allocation-free engine contract: steady-state request turnover on a warm
// cache performs zero heap allocations (counting-allocator tests below).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/driver/experiment.h"
#include "src/driver/workload.h"
#include "src/httpd/http_server.h"
#include "src/simos/event_queue.h"
#include "src/simos/inline_function.h"
#include "src/system/system.h"

// Counting allocator: every operator-new in this test binary bumps a
// counter, so tests can assert that a code region allocates exactly zero
// times. Deallocation is left untouched (frees are not the contract).
// The operators stay out of line: once inlined, a caller's malloc() would
// meet an operator-delete call (or operator new() a free()), which GCC
// reports as a mismatched allocation pair.
static std::atomic<uint64_t> g_alloc_count{0};

[[gnu::noinline]] void* operator new(size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) {
    abort();
  }
  return p;
}
[[gnu::noinline]] void* operator new[](size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) {
    abort();
  }
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace {

using ioldrv::ClosedLoop;
using ioldrv::Experiment;
using ioldrv::ExperimentConfig;
using ioldrv::ExperimentResult;
using ioldrv::OpenLoopPoisson;
using iolfs::FileId;
using iolhttp::ApacheServer;
using iolhttp::FlashLiteServer;
using iolhttp::FlashServer;
using iolsim::EventQueue;
using iolsim::Resource;
using iolsim::SimTime;
using iolsim::VirtualClock;
using iolsys::System;

// --- Async Resource ----------------------------------------------------------

TEST(AsyncResourceTest, CompletionsFollowAcquisitionOrder) {
  VirtualClock clock;
  EventQueue events(&clock);
  Resource r(&clock);
  std::vector<int> order;
  // Both acquired at t=0; the first caller gets the first slot (FIFO).
  r.AcquireAsync(&events, 100, [&] { order.push_back(1); });
  r.AcquireAsync(&events, 50, [&] { order.push_back(2); });
  events.RunAll();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(clock.now(), 150);
  EXPECT_EQ(r.busy_time(), 150);
}

TEST(AsyncResourceTest, SimultaneousCompletionsAreDeterministic) {
  // Two jobs completing at the same instant dispatch in schedule order —
  // on every run.
  std::string first_trace;
  for (int run = 0; run < 3; ++run) {
    VirtualClock clock;
    EventQueue events(&clock);
    Resource two_cpus(&clock, 2);
    std::string trace;
    for (int i = 0; i < 6; ++i) {
      two_cpus.AcquireAsync(&events, 100, [&trace, i] { trace += static_cast<char>('a' + i); });
    }
    events.RunAll();
    if (run == 0) {
      first_trace = trace;
    } else {
      EXPECT_EQ(trace, first_trace);
    }
  }
  EXPECT_EQ(first_trace, "abcdef");
}

TEST(AsyncResourceTest, MultiUnitServesInParallel) {
  VirtualClock clock;
  EventQueue events(&clock);
  Resource r(&clock, 2);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    r.AcquireAsync(&events, 100, [&] { completions.push_back(clock.now()); });
  }
  events.RunAll();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 100);  // Units 0 and 1 run the first two jobs...
  EXPECT_EQ(completions[1], 100);
  EXPECT_EQ(completions[2], 200);  // ...the third queues behind the earliest.
  EXPECT_EQ(r.units(), 2);
  EXPECT_EQ(r.busy_time(), 300);
}

TEST(AsyncResourceTest, SyncAndAsyncAcquisitionsShareTheQueue) {
  VirtualClock clock;
  EventQueue events(&clock);
  Resource r(&clock);
  EXPECT_EQ(r.AcquireAfter(0, 100), 100);
  bool ran = false;
  SimTime finish = r.AcquireAsync(&events, 50, [&] { ran = true; });
  EXPECT_EQ(finish, 150);  // Queued behind the sync reservation.
  events.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), 150);
}

TEST(AsyncResourceTest, ManyUnitHeapMatchesLinearScanSemantics) {
  // 12 units exercises the index-heap path (units > 8): earliest-free unit,
  // lowest index on ties — byte-identical to the old linear scan.
  VirtualClock clock;
  EventQueue events(&clock);
  Resource r(&clock, 12);
  std::vector<SimTime> completions;
  for (int i = 0; i < 30; ++i) {
    r.AcquireAsync(&events, 50 + (i % 3) * 25, [&] { completions.push_back(clock.now()); });
  }
  events.RunAll();
  ASSERT_EQ(completions.size(), 30u);
  // Mirror of the original linear-scan reservation loop.
  std::vector<SimTime> unit_free(12, 0);
  std::vector<SimTime> expected;
  for (int i = 0; i < 30; ++i) {
    size_t best = 0;
    for (size_t u = 1; u < unit_free.size(); ++u) {
      if (unit_free[u] < unit_free[best]) {
        best = u;
      }
    }
    unit_free[best] += 50 + (i % 3) * 25;
    expected.push_back(unit_free[best]);
  }
  std::sort(expected.begin(), expected.end());
  std::vector<SimTime> got = completions;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  SimTime busy = 0;
  for (int i = 0; i < 30; ++i) {
    busy += 50 + (i % 3) * 25;
  }
  EXPECT_EQ(r.busy_time(), busy);
}

// --- InlineFunction ----------------------------------------------------------

TEST(InlineFunctionTest, MoveTransfersOwnershipAndState) {
  int runs = 0;
  iolsim::InlineCallback a = [&runs] { ++runs; };
  iolsim::InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(runs, 1);
}

TEST(InlineFunctionTest, NonTrivialCapturesDestructExactlyOnce) {
  std::shared_ptr<int> token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    iolsim::InlineCallback cb = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
    iolsim::InlineCallback moved = std::move(cb);
    EXPECT_EQ(token.use_count(), 2);  // Moved, not copied.
    moved();
  }
  EXPECT_EQ(token.use_count(), 1);  // Destroyed with the callback.
}

// --- Zero-allocation steady state --------------------------------------------

namespace zero_alloc {

// Direct-mode loop: one persistent connection, one warm document, repeated
// HandleRequest. After warmup (cache hot, pools at high-water, checksum
// cache at capacity) the loop must not touch the heap at all.
template <typename MakeServerFn>
uint64_t CountWarmLoopAllocs(iolsys::SystemOptions options, MakeServerFn make_server) {
  options.checksum_cache_entries = 64;  // Reach eviction steady state fast.
  iolsys::System sys(options);
  std::unique_ptr<iolhttp::HttpServer> server = make_server(&sys);
  iolfs::FileId f = sys.fs().CreateFile("doc", 5 * 1024);
  iolnet::TcpConnection conn(&sys.net(), server->uses_iolite_sockets());
  conn.Connect();
  for (int i = 0; i < 200; ++i) {  // Warmup: fill caches, grow pools.
    server->HandleRequest(&conn, f);
  }
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    server->HandleRequest(&conn, f);
  }
  uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  conn.Close();
  return after - before;
}

}  // namespace zero_alloc

TEST(ZeroAllocTest, WarmFlashRequestLoopAllocatesNothing) {
  iolsys::SystemOptions options;
  options.checksum_cache = false;
  uint64_t allocs = zero_alloc::CountWarmLoopAllocs(options, [](iolsys::System* sys) {
    return std::make_unique<FlashServer>(&sys->ctx(), &sys->net(), &sys->io());
  });
  EXPECT_EQ(allocs, 0u) << "copy-path warm request loop must not touch the heap";
}

TEST(ZeroAllocTest, WarmFlashLiteRequestLoopAllocatesNothing) {
  iolsys::SystemOptions options;
  options.checksum_cache = true;
  options.policy = iolsys::SystemOptions::Policy::kGds;
  uint64_t allocs = zero_alloc::CountWarmLoopAllocs(options, [](iolsys::System* sys) {
    return std::make_unique<FlashLiteServer>(&sys->ctx(), &sys->net(), &sys->io(),
                                             &sys->runtime());
  });
  EXPECT_EQ(allocs, 0u) << "IO-Lite warm request loop (header generations, checksum "
                           "cache churn included) must not touch the heap";
}

TEST(ZeroAllocTest, SteadyStateExperimentTurnoverAllocatesNothing) {
  // Whole-engine version: the same closed-loop experiment at two lengths
  // allocates the same absolute number of times — i.e. per-request turnover
  // (driver lanes, events, transmissions, telemetry) is allocation-free
  // once the population and pools reach steady state.
  auto total_allocs = [](uint64_t requests) {
    iolsys::SystemOptions options;
    options.checksum_cache_entries = 64;
    iolsys::System sys(options);
    FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
    iolfs::FileId f = sys.fs().CreateFile("doc", 5 * 1024);
    ioldrv::ExperimentConfig config;
    config.persistent_connections = true;
    config.max_requests = requests;
    config.warmup_requests = 500;
    ClosedLoop workload(8);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    experiment.Run(&workload, [f] { return f; });
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  uint64_t short_run = total_allocs(1000);
  uint64_t long_run = total_allocs(3000);
  // The long run reserves a larger telemetry vector in its single up-front
  // allocation; the *count* of allocations must not grow with requests.
  EXPECT_EQ(short_run, long_run);
}

// --- Multi-CPU scaling -------------------------------------------------------

namespace multi_cpu {

double RunApache(int cpu_count) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = cpu_count;
  System sys(options);
  FileId f = sys.fs().CreateFile("doc", 5 * 1024);
  ApacheServer apache(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = 1500;
  config.warmup_requests = 50;
  ClosedLoop workload(16);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &apache, config);
  return experiment.Run(&workload, [f] { return f; }).megabits_per_sec;
}

}  // namespace multi_cpu

TEST(MultiCpuTest, SecondCpuNearlyDoublesCpuBoundThroughput) {
  // Apache on small files is CPU-bound (700us of process work per request),
  // so a second CPU should scale throughput close to 2x.
  double one = multi_cpu::RunApache(1);
  double two = multi_cpu::RunApache(2);
  EXPECT_GT(two, one * 1.6);
  EXPECT_LT(two, one * 2.1);
}

TEST(MultiCpuTest, WireBoundServerGainsLittle) {
  auto run = [](int cpus) {
    iolsys::SystemOptions options;
    options.cost.cpu_count = cpus;
    options.policy = iolsys::SystemOptions::Policy::kGds;
    System sys(options);
    FileId f = sys.fs().CreateFile("doc", 200 * 1024);
    FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
    ExperimentConfig config;
    config.persistent_connections = true;
    config.max_requests = 1000;
    config.warmup_requests = 50;
    ClosedLoop workload(40);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
    return experiment.Run(&workload, [f] { return f; }).megabits_per_sec;
  };
  // Flash-Lite saturates the wire with one CPU on large files; more CPUs
  // cannot push past the link.
  EXPECT_LT(run(4), run(1) * 1.05);
}

// --- Admission control -------------------------------------------------------

TEST(AdmissionTest, MaxConcurrentQueuesInsteadOfDropping) {
  System sys;
  FileId f = sys.fs().CreateFile("doc", 20 * 1024);
  FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.max_concurrent = 3;
  config.max_requests = 300;
  ClosedLoop workload(12);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
  ExperimentResult result = experiment.Run(&workload, [f] { return f; });
  // Every request is eventually served...
  EXPECT_EQ(result.requests, 300u);
  // ...but never more than max_concurrent at once, and the excess waited.
  EXPECT_LE(result.peak_concurrent, 3);
  EXPECT_GT(result.admission_waits, 0u);
}

TEST(AdmissionTest, UncappedRunReachesFullConcurrency) {
  System sys;
  FileId f = sys.fs().CreateFile("doc", 20 * 1024);
  FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.max_requests = 300;
  ClosedLoop workload(12);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
  ExperimentResult result = experiment.Run(&workload, [f] { return f; });
  EXPECT_EQ(result.requests, 300u);
  EXPECT_EQ(result.peak_concurrent, 12);
  EXPECT_EQ(result.admission_waits, 0u);
}

// --- Disk/CPU overlap (the point of the staged pipeline) ---------------------

TEST(OverlapTest, ColdCacheRunOverlapsDiskCpuAndWire) {
  // Every request misses (distinct files), so each carries real disk, CPU
  // and wire demand. With >1 client the staged pipeline must overlap them:
  // total simulated time strictly below the summed per-request demands —
  // the old tally-then-schedule engine's serial lower bound.
  System sys;
  std::vector<FileId> files;
  for (int i = 0; i < 64; ++i) {
    files.push_back(sys.fs().CreateFile("f" + std::to_string(i), 64 * 1024));
  }
  FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.max_requests = 64;
  ClosedLoop workload(8);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
  int i = 0;
  ExperimentResult result =
      experiment.Run(&workload, [&] { return files[i++ % files.size()]; });
  EXPECT_EQ(result.requests, 64u);

  SimTime cpu_busy = sys.ctx().cpu().busy_time();
  SimTime disk_busy = sys.ctx().disk().busy_time();
  SimTime link_busy = sys.ctx().link().busy_time();
  ASSERT_GT(cpu_busy, 0);
  ASSERT_GT(disk_busy, 0);
  ASSERT_GT(link_busy, 0);
  EXPECT_LT(sys.ctx().clock().now(), cpu_busy + disk_busy + link_busy);
}

TEST(OverlapTest, SingleClientCannotOverlapItself) {
  // One closed-loop client is strictly serial: the run must take at least
  // as long as its summed demands (sanity check on the overlap assertion
  // above).
  System sys;
  std::vector<FileId> files;
  for (int i = 0; i < 16; ++i) {
    files.push_back(sys.fs().CreateFile("f" + std::to_string(i), 64 * 1024));
  }
  FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.max_requests = 16;
  ClosedLoop workload(1);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
  int i = 0;
  experiment.Run(&workload, [&] { return files[i++ % files.size()]; });
  SimTime busy = sys.ctx().cpu().busy_time() + sys.ctx().disk().busy_time() +
                 sys.ctx().link().busy_time();
  EXPECT_GE(sys.ctx().clock().now(), busy);
}

// --- Open-loop (Poisson) arrivals --------------------------------------------

TEST(OpenLoopTest, PoissonArrivalsCompleteAndAreDeterministic) {
  auto run = [] {
    System sys;
    FileId f = sys.fs().CreateFile("doc", 10 * 1024);
    FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
    ExperimentConfig config;
    config.max_requests = 400;
    config.warmup_requests = 20;
    OpenLoopPoisson workload(/*arrivals_per_sec=*/500, /*seed=*/0x9e3779b9,
                             /*initial_pool=*/8);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
    return experiment.Run(&workload, [f] { return f; });
  };
  ExperimentResult a = run();
  ExperimentResult b = run();
  EXPECT_EQ(a.requests, 400u);
  EXPECT_DOUBLE_EQ(a.megabits_per_sec, b.megabits_per_sec);
  // An underloaded open-loop stream delivers roughly the offered load:
  // 500 req/s x ~10.25 KB ~= 41 Mb/s.
  EXPECT_GT(a.megabits_per_sec, 30.0);
  EXPECT_LT(a.megabits_per_sec, 55.0);
}

TEST(OpenLoopTest, OverloadGrowsThePoolInsteadOfDeadlocking) {
  System sys;
  FileId f = sys.fs().CreateFile("doc", 50 * 1024);
  ApacheServer apache(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.max_requests = 200;
  // Tiny pool; arrivals far outpace service.
  OpenLoopPoisson workload(/*arrivals_per_sec=*/5000, /*seed=*/0x9e3779b9,
                           /*initial_pool=*/2);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &apache, config);
  ExperimentResult result = experiment.Run(&workload, [f] { return f; });
  EXPECT_EQ(result.requests, 200u);
  EXPECT_GT(result.peak_concurrent, 2);
}

// --- Pipelined persistent connections ----------------------------------------

TEST(PipelineDepthTest, PipeliningHidesRoundTripLatency) {
  auto run = [](int depth) {
    System sys;
    FileId f = sys.fs().CreateFile("doc", 2 * 1024);
    FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
    ExperimentConfig config;
    config.persistent_connections = true;
    config.max_requests = 1000;
    config.warmup_requests = 100;
    config.delay.one_way_delay = 2 * iolsim::kMillisecond;
    ClosedLoop workload(2, depth);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
    return experiment.Run(&workload, [f] { return f; }).megabits_per_sec;
  };
  // A lone request per connection spends its cycle waiting out the 4 ms
  // round trip; four pipelined requests fill the pipe and should approach
  // a 4x gain while the server stays far from CPU saturation.
  EXPECT_GT(run(4), run(1) * 3.0);
}

TEST(PipelineDepthTest, PipeliningCannotBeatResourceSaturation) {
  auto run = [](int depth) {
    System sys;
    FileId f = sys.fs().CreateFile("doc", 2 * 1024);
    FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
    ExperimentConfig config;
    config.persistent_connections = true;
    config.max_requests = 1000;
    config.warmup_requests = 100;
    ClosedLoop workload(2, depth);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
    return experiment.Run(&workload, [f] { return f; }).megabits_per_sec;
  };
  // On a LAN two closed-loop clients already saturate the CPU on 2 KB
  // files; deeper pipelines add concurrency but no capacity.
  double shallow = run(1);
  double deep = run(4);
  EXPECT_GE(deep, shallow * 0.95);
  EXPECT_LE(deep, shallow * 1.1);
}

}  // namespace
