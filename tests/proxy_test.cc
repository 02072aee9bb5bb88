// Proxy-cache tier tests (src/proxy + ioldrv::ProxyTier).
//
//  * Warm-path structure: a warm co-located IO-Lite proxy serves entirely
//    from the shared unified cache — zero backhaul bytes, zero backhaul
//    copies, zero IPC traffic, zero heap allocations (counting allocator),
//    and every object resident in exactly one cache. The co-located
//    copy-based pair, by contrast, demonstrably double-caches.
//  * Determinism: run-twice telemetry parity for both backhaul modes.
//  * Behaviour: proxy hit rate rises monotonically with the cache budget
//    under a fixed Zipf trace; per-tier accounting is internally
//    consistent.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/driver/proxy_tier.h"
#include "src/proxy/proxy_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

// Counting allocator (same pattern as pipeline_test.cc): every global new is
// counted so warm-path zero-allocation claims are enforceable.
// The operators stay out of line: once inlined, a caller's malloc() would
// meet an operator-delete call (or operator new() a free()), which GCC
// reports as a mismatched allocation pair.
static std::atomic<uint64_t> g_alloc_count{0};

[[gnu::noinline]] void* operator new(size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

[[gnu::noinline]] void* operator new[](size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace {

using iolproxy::BackhaulMode;
using iolproxy::ProxyConfig;
using iolproxy::ProxyDataPath;
using iolproxy::ProxyServer;

iolsys::SystemOptions OptionsFor(ProxyDataPath path) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = 2;
  options.cost.disk_count = 2;
  if (path == ProxyDataPath::kIoLite) {
    options.policy = iolsys::SystemOptions::Policy::kGds;
    options.checksum_cache = true;
  } else {
    options.policy = iolsys::SystemOptions::Policy::kPaperLru;
    options.checksum_cache = false;
  }
  return options;
}

// One assembled two-tier stack for direct-mode tests.
struct ProxyStack {
  std::unique_ptr<iolsys::System> sys;
  std::vector<std::unique_ptr<iolhttp::HttpServer>> origin_servers;
  std::unique_ptr<ProxyServer> proxy;
  std::vector<iolfs::FileId> files;
};

ProxyStack MakeStack(ProxyDataPath path, BackhaulMode mode, ProxyConfig config,
                     int num_files = 4, size_t file_bytes = 6 * 1024,
                     size_t checksum_cache_entries = 65536) {
  ProxyStack s;
  iolsys::SystemOptions options = OptionsFor(path);
  options.checksum_cache_entries = checksum_cache_entries;
  s.sys = std::make_unique<iolsys::System>(options);
  for (int i = 0; i < num_files; ++i) {
    s.files.push_back(
        s.sys->fs().CreateFile("doc" + std::to_string(i), file_bytes + i * 512));
  }
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < 2; ++i) {
    if (path == ProxyDataPath::kIoLite) {
      s.origin_servers.push_back(std::make_unique<iolhttp::FlashLiteServer>(
          &s.sys->ctx(), &s.sys->net(), &s.sys->io(), &s.sys->runtime()));
    } else {
      s.origin_servers.push_back(std::make_unique<iolhttp::FlashServer>(
          &s.sys->ctx(), &s.sys->net(), &s.sys->io()));
    }
    members.push_back(s.origin_servers.back().get());
  }
  config.data_path = path;
  config.backhaul = mode;
  s.proxy = std::make_unique<ProxyServer>(&s.sys->ctx(), &s.sys->net(), &s.sys->io(),
                                          &s.sys->runtime(), members, config);
  return s;
}

// --- Warm-path structure ----------------------------------------------------

TEST(ProxyTest, WarmColocatedIoLitePathIsZeroCopyAndSingleCached) {
  ProxyConfig config;
  ProxyStack s = MakeStack(ProxyDataPath::kIoLite, BackhaulMode::kColocated, config);
  EXPECT_TRUE(s.proxy->shares_unified_cache());
  EXPECT_EQ(&s.proxy->proxy_cache(), &s.sys->cache());

  iolnet::TcpConnection conn(&s.sys->net(), true);
  conn.Connect();
  // Cold pass: every file crosses the IOL-IPC backhaul exactly once.
  for (iolfs::FileId f : s.files) {
    s.proxy->HandleRequest(&conn, f);
  }
  const iolsim::SimStats& stats = s.sys->ctx().stats();
  EXPECT_EQ(stats.proxy_cache_misses, s.files.size());
  EXPECT_EQ(stats.ipc_frames_sent, 2 * s.files.size());  // Request + response.
  EXPECT_GT(stats.ipc_bytes_transferred, 0u);
  EXPECT_EQ(stats.ipc_bytes_copied, 0u);
  EXPECT_GT(stats.backhaul_bytes, 0u);
  EXPECT_EQ(stats.backhaul_bytes_copied, 0u);
  // One unified cache: each object resident exactly once machine-wide.
  EXPECT_EQ(s.sys->cache().entry_count(), s.files.size());

  // Warm passes: pure proxy hits — no backhaul, no IPC, no copies beyond
  // the per-response header fill, no cache growth.
  uint64_t backhaul0 = stats.backhaul_bytes;
  uint64_t ipc_frames0 = stats.ipc_frames_sent;
  uint64_t copied0 = stats.bytes_copied;
  uint64_t hits0 = stats.proxy_cache_hits;
  size_t entries0 = s.sys->cache().entry_count();
  const int kWarmRounds = 25;
  for (int round = 0; round < kWarmRounds; ++round) {
    for (iolfs::FileId f : s.files) {
      s.proxy->HandleRequest(&conn, f);
    }
  }
  uint64_t warm_requests = kWarmRounds * s.files.size();
  EXPECT_EQ(stats.backhaul_bytes, backhaul0);
  EXPECT_EQ(stats.backhaul_bytes_copied, 0u);
  EXPECT_EQ(stats.ipc_frames_sent, ipc_frames0);
  EXPECT_EQ(stats.proxy_cache_hits, hits0 + warm_requests);
  EXPECT_EQ(s.sys->cache().entry_count(), entries0);
  // The only bytes touched per warm response: the freshly generated header.
  EXPECT_EQ(stats.bytes_copied - copied0, warm_requests * iolhttp::kResponseHeaderBytes);
  conn.Close();
}

TEST(ProxyTest, WarmColocatedIoLiteLoopAllocatesNothing) {
  ProxyConfig config;
  // A small checksum cache reaches its at-capacity recycling steady state
  // within the warmup (each response's fresh header is a new generation).
  ProxyStack s = MakeStack(ProxyDataPath::kIoLite, BackhaulMode::kColocated, config,
                           /*num_files=*/4, /*file_bytes=*/6 * 1024,
                           /*checksum_cache_entries=*/64);
  iolnet::TcpConnection conn(&s.sys->net(), true);
  conn.Connect();
  for (int i = 0; i < 200; ++i) {  // Warmup: fill caches, grow pools.
    s.proxy->HandleRequest(&conn, s.files[i % s.files.size()]);
  }
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    s.proxy->HandleRequest(&conn, s.files[i % s.files.size()]);
  }
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  conn.Close();
  EXPECT_EQ(allocs, 0u) << "warm co-located proxy hits must not touch the heap";
}

TEST(ProxyTest, ColocatedCopyPairDoubleCachesWhereIoLiteCachesOnce) {
  // The same warm workload, both co-located pairs: the copy-based proxy
  // ends with every object resident in two caches (its private cache and
  // the origin's), the IO-Lite pair in exactly one.
  ProxyConfig config;
  config.cache_bytes = 64ull * 1024 * 1024;
  config.origin_cache_bytes = 0;

  ProxyStack copy = MakeStack(ProxyDataPath::kCopy, BackhaulMode::kColocated, config);
  iolnet::TcpConnection copy_conn(&copy.sys->net(), false);
  copy_conn.Connect();
  for (int round = 0; round < 3; ++round) {
    for (iolfs::FileId f : copy.files) {
      copy.proxy->HandleRequest(&copy_conn, f);
    }
  }
  EXPECT_FALSE(copy.proxy->shares_unified_cache());
  // Double residency: both tiers cache all four objects in full.
  EXPECT_EQ(copy.proxy->proxy_cache().entry_count(), copy.files.size());
  EXPECT_EQ(copy.sys->cache().entry_count(), copy.files.size());
  EXPECT_EQ(copy.proxy->proxy_cache().bytes(), copy.sys->cache().bytes());
  EXPECT_GT(copy.sys->ctx().stats().backhaul_bytes_copied, 0u);
  copy_conn.Close();

  ProxyStack lite = MakeStack(ProxyDataPath::kIoLite, BackhaulMode::kColocated, config);
  iolnet::TcpConnection lite_conn(&lite.sys->net(), true);
  lite_conn.Connect();
  for (int round = 0; round < 3; ++round) {
    for (iolfs::FileId f : lite.files) {
      lite.proxy->HandleRequest(&lite_conn, f);
    }
  }
  EXPECT_EQ(lite.sys->cache().entry_count(), lite.files.size());
  EXPECT_EQ(lite.sys->ctx().stats().backhaul_bytes_copied, 0u);
  lite_conn.Close();
}

TEST(ProxyTest, RemoteIoLiteInsertDoesNotCopyWhereCopyProxyDoes) {
  ProxyConfig config;
  ProxyStack lite = MakeStack(ProxyDataPath::kIoLite, BackhaulMode::kRemote, config);
  iolnet::TcpConnection lite_conn(&lite.sys->net(), true);
  lite_conn.Connect();
  for (iolfs::FileId f : lite.files) {
    lite.proxy->HandleRequest(&lite_conn, f);
  }
  // The remote IO-Lite proxy has its own cache (a second machine)...
  EXPECT_FALSE(lite.proxy->shares_unified_cache());
  EXPECT_EQ(lite.proxy->proxy_cache().entry_count(), lite.files.size());
  // ...but inserting a fetched object mutates only metadata: backhaul
  // payload arrived, none of it was memcpy'd.
  EXPECT_GT(lite.sys->ctx().stats().backhaul_bytes, 0u);
  EXPECT_EQ(lite.sys->ctx().stats().backhaul_bytes_copied, 0u);
  lite_conn.Close();

  ProxyStack copy = MakeStack(ProxyDataPath::kCopy, BackhaulMode::kRemote, config);
  iolnet::TcpConnection copy_conn(&copy.sys->net(), false);
  copy_conn.Connect();
  for (iolfs::FileId f : copy.files) {
    copy.proxy->HandleRequest(&copy_conn, f);
  }
  EXPECT_EQ(copy.sys->ctx().stats().backhaul_bytes_copied,
            copy.sys->ctx().stats().backhaul_bytes);
  copy_conn.Close();
}

// --- Determinism ------------------------------------------------------------

// One full ProxyTier experiment; returns the telemetry records.
ioldrv::Telemetry RunTierOnce(ProxyDataPath path, BackhaulMode mode,
                              ioldrv::ExperimentResult* result_out = nullptr) {
  auto sys = std::make_unique<iolsys::System>(OptionsFor(path));
  iolwl::TraceSpec spec;
  spec.name = "proxy-test";
  spec.num_files = 40;
  spec.total_bytes = 2ull * 1024 * 1024;
  spec.num_requests = 2000;
  spec.mean_request_bytes = 8 * 1024;
  spec.zipf_alpha = 1.0;
  spec.size_sigma = 1.2;
  spec.seed = 7;
  iolwl::Trace trace = iolwl::Trace::Generate(spec);
  std::vector<iolfs::FileId> ids = trace.Materialize(&sys->fs());

  std::vector<std::unique_ptr<iolhttp::HttpServer>> origin_servers;
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < 2; ++i) {
    if (path == ProxyDataPath::kIoLite) {
      origin_servers.push_back(std::make_unique<iolhttp::FlashLiteServer>(
          &sys->ctx(), &sys->net(), &sys->io(), &sys->runtime()));
    } else {
      origin_servers.push_back(std::make_unique<iolhttp::FlashServer>(
          &sys->ctx(), &sys->net(), &sys->io()));
    }
    members.push_back(origin_servers.back().get());
  }

  ProxyConfig pconfig;
  pconfig.data_path = path;
  pconfig.backhaul = mode;
  pconfig.cache_bytes = 512 * 1024;
  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = 300;
  config.warmup_requests = 50;
  ioldrv::ProxyTier tier(&sys->ctx(), &sys->net(), &sys->io(), &sys->runtime(),
                         ioldrv::Fleet(members), pconfig, config);

  ioldrv::ClosedLoop workload(12);
  ioldrv::Telemetry telemetry;
  iolsim::Rng rng(1234);
  const std::vector<uint32_t>& reqs = trace.requests();
  ioldrv::ExperimentResult result = tier.Run(
      &workload,
      [&]() -> iolfs::FileId { return ids[reqs[rng.NextBelow(reqs.size())]]; },
      &telemetry);
  if (result_out != nullptr) {
    *result_out = result;
  }
  return telemetry;
}

void ExpectSameRecords(const ioldrv::Telemetry& a, const ioldrv::Telemetry& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_EQ(a.records()[i].issue, b.records()[i].issue) << "record " << i;
    EXPECT_EQ(a.records()[i].admit, b.records()[i].admit) << "record " << i;
    EXPECT_EQ(a.records()[i].complete, b.records()[i].complete) << "record " << i;
    EXPECT_EQ(a.records()[i].bytes, b.records()[i].bytes) << "record " << i;
    EXPECT_EQ(a.records()[i].cache_hit, b.records()[i].cache_hit) << "record " << i;
  }
}

TEST(ProxyTest, RunTwiceTelemetryParityColocated) {
  ioldrv::Telemetry a = RunTierOnce(ProxyDataPath::kIoLite, BackhaulMode::kColocated);
  ioldrv::Telemetry b = RunTierOnce(ProxyDataPath::kIoLite, BackhaulMode::kColocated);
  ExpectSameRecords(a, b);
}

TEST(ProxyTest, RunTwiceTelemetryParityRemote) {
  ioldrv::Telemetry a = RunTierOnce(ProxyDataPath::kCopy, BackhaulMode::kRemote);
  ioldrv::Telemetry b = RunTierOnce(ProxyDataPath::kCopy, BackhaulMode::kRemote);
  ExpectSameRecords(a, b);
}

// --- Behaviour --------------------------------------------------------------

// Proxy hit rate under a fixed Zipf trace, as a function of the cache
// budget.
double HitRateAt(uint64_t cache_bytes) {
  auto sys = std::make_unique<iolsys::System>(OptionsFor(ProxyDataPath::kIoLite));
  iolwl::TraceSpec spec;
  spec.name = "proxy-monotone";
  spec.num_files = 80;
  spec.total_bytes = 6ull * 1024 * 1024;
  spec.num_requests = 4000;
  spec.mean_request_bytes = 8 * 1024;
  spec.zipf_alpha = 1.0;
  spec.size_sigma = 1.2;
  spec.seed = 21;
  iolwl::Trace trace = iolwl::Trace::Generate(spec);
  std::vector<iolfs::FileId> ids = trace.Materialize(&sys->fs());

  iolhttp::FlashLiteServer origin(&sys->ctx(), &sys->net(), &sys->io(),
                                  &sys->runtime());
  std::vector<iolhttp::HttpServer*> members{&origin};
  ProxyConfig pconfig;
  pconfig.data_path = ProxyDataPath::kIoLite;
  pconfig.backhaul = BackhaulMode::kRemote;
  pconfig.cache_bytes = cache_bytes;
  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = 800;
  config.warmup_requests = 0;
  ioldrv::ProxyTier tier(&sys->ctx(), &sys->net(), &sys->io(), &sys->runtime(),
                         ioldrv::Fleet(members), pconfig, config);
  ioldrv::ClosedLoop workload(8);
  iolsim::Rng rng(5150);
  const std::vector<uint32_t>& reqs = trace.requests();
  ioldrv::ExperimentResult result = tier.Run(&workload, [&]() -> iolfs::FileId {
    return ids[reqs[rng.NextBelow(reqs.size())]];
  });
  EXPECT_EQ(result.requests, 800u);
  return result.proxy_hit_rate;
}

TEST(ProxyTest, HitRateRisesMonotonicallyWithCacheSize) {
  double small = HitRateAt(256 * 1024);
  double medium = HitRateAt(1024 * 1024);
  double large = HitRateAt(16ull * 1024 * 1024);  // Holds the whole data set.
  EXPECT_GT(small, 0.0);
  EXPECT_LE(small, medium);
  EXPECT_LE(medium, large);
  EXPECT_GT(large, small);  // The sweep must actually move the needle.
  // Everything fits: only the ~80/800 compulsory cold misses remain.
  EXPECT_GT(large, 0.85);
}

TEST(ProxyTest, PerTierAccountingIsConsistent) {
  ioldrv::ExperimentResult result;
  RunTierOnce(ProxyDataPath::kCopy, BackhaulMode::kRemote, &result);
  EXPECT_GT(result.proxy_hit_rate, 0.0);
  EXPECT_LT(result.proxy_hit_rate, 1.0);
  EXPECT_GE(result.origin_hit_rate, 0.0);
  EXPECT_LE(result.origin_hit_rate, 1.0);
  EXPECT_GT(result.backhaul_bytes, 0u);
  // A copy-based proxy memcpys exactly what it fetched.
  EXPECT_EQ(result.bytes_copied_backhaul, result.backhaul_bytes);
  // Fetch latency summarizes one record per backhaul fetch, and a fetch
  // takes real time.
  EXPECT_GT(result.origin_latency.count, 0u);
  EXPECT_GT(result.origin_latency.p50_ms, 0.0);
}

}  // namespace
