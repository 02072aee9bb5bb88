// Tests for the composable experiment API (src/driver/): Telemetry's
// deterministic percentiles, load-balancer policies, fleet runs,
// timestamped trace replay, and the engine's single-run guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/experiment.h"
#include "src/driver/fleet.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/httpd/http_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace {

using ioldrv::ClosedLoop;
using ioldrv::Experiment;
using ioldrv::ExperimentConfig;
using ioldrv::ExperimentResult;
using ioldrv::Fleet;
using ioldrv::LatencySummary;
using ioldrv::LeastConnectionsBalancer;
using ioldrv::RequestRecord;
using ioldrv::RoundRobinBalancer;
using ioldrv::Telemetry;
using ioldrv::TraceReplay;
using iolfs::FileId;
using iolhttp::FlashLiteServer;
using iolhttp::FlashServer;
using iolsim::kMillisecond;
using iolsys::System;

// --- Telemetry ----------------------------------------------------------------

RequestRecord Rec(iolsim::SimTime issue, iolsim::SimTime latency, bool counted = true) {
  RequestRecord r;
  r.issue = issue;
  r.admit = issue;
  r.complete = issue + latency;
  r.counted = counted;
  return r;
}

TEST(TelemetryTest, NearestRankPercentilesAreExact) {
  // Known service times: 1..100 ms. Nearest-rank percentiles are exact
  // sample values, not interpolations.
  Telemetry t;
  for (int i = 1; i <= 100; ++i) {
    t.Record(Rec(i * kMillisecond, i * kMillisecond));
  }
  LatencySummary s = t.EndToEndLatency();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.p90_ms, 90.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 99.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 50.5);
}

TEST(TelemetryTest, SmallSamplesUseCeilRank) {
  Telemetry t;
  for (int i = 1; i <= 3; ++i) {
    t.Record(Rec(0, i * kMillisecond));
  }
  LatencySummary s = t.EndToEndLatency();
  EXPECT_DOUBLE_EQ(s.p50_ms, 2.0);  // ceil(0.5 * 3) = 2nd of {1,2,3}.
  EXPECT_DOUBLE_EQ(s.p99_ms, 3.0);  // ceil(0.99 * 3) = 3rd.
}

TEST(TelemetryTest, EmptyRunYieldsZeroedSummaryWithoutNans) {
  Telemetry t;
  LatencySummary s = t.EndToEndLatency();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean_ms, 0.0);
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p90_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
  EXPECT_EQ(s.max_ms, 0.0);
  EXPECT_FALSE(std::isnan(s.mean_ms));
  EXPECT_EQ(t.CacheHitFraction(), 0.0);
}

TEST(TelemetryTest, WarmupRecordsAreKeptButExcludedFromSummaries) {
  Telemetry t;
  // Warmup: enormous cold-start latencies that must not pollute the tail.
  for (int i = 0; i < 10; ++i) {
    t.Record(Rec(0, 900 * kMillisecond, /*counted=*/false));
  }
  for (int i = 1; i <= 4; ++i) {
    t.Record(Rec(0, i * kMillisecond));
  }
  EXPECT_EQ(t.records().size(), 14u);
  LatencySummary s = t.EndToEndLatency();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.max_ms, 4.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 4.0);
}

TEST(TelemetryTest, QueueWaitMeasuresAdmitMinusIssue) {
  Telemetry t;
  RequestRecord r;
  r.issue = 10 * kMillisecond;
  r.admit = 17 * kMillisecond;
  r.complete = 40 * kMillisecond;
  r.counted = true;
  t.Record(r);
  EXPECT_DOUBLE_EQ(t.QueueWait().max_ms, 7.0);
}

// --- Load balancers -----------------------------------------------------------

TEST(LoadBalancerTest, RoundRobinCycles) {
  RoundRobinBalancer rr;
  std::vector<int> load = {5, 0, 9};  // Ignored by round-robin.
  EXPECT_EQ(rr.Pick(load), 0u);
  EXPECT_EQ(rr.Pick(load), 1u);
  EXPECT_EQ(rr.Pick(load), 2u);
  EXPECT_EQ(rr.Pick(load), 0u);
}

TEST(LoadBalancerTest, LeastConnectionsPicksIdlestAndRotatesTies) {
  LeastConnectionsBalancer lc;
  EXPECT_EQ(lc.Pick({3, 0, 2}), 1u);
  EXPECT_EQ(lc.Pick({3, 4, 2}), 2u);
  // All tied: rotation continues from the last pick instead of pinning 0.
  EXPECT_EQ(lc.Pick({1, 1, 1}), 0u);
  EXPECT_EQ(lc.Pick({1, 1, 1}), 1u);
}

// --- Fleet runs ---------------------------------------------------------------

ExperimentResult RunFlashFleet(int members, std::unique_ptr<ioldrv::LoadBalancer> lb,
                               Telemetry* sink = nullptr) {
  iolsys::SystemOptions options;
  options.cost.cpu_count = members;
  options.cost.disk_count = members;
  System sys(options);
  FileId f = sys.fs().CreateFile("doc", 20 * 1024);
  std::vector<std::unique_ptr<iolhttp::HttpServer>> servers;
  std::vector<iolhttp::HttpServer*> members_raw;
  for (int i = 0; i < members; ++i) {
    servers.push_back(std::make_unique<FlashServer>(&sys.ctx(), &sys.net(), &sys.io()));
    members_raw.push_back(servers.back().get());
  }
  ExperimentConfig config;
  config.max_requests = 400;
  config.persistent_connections = true;
  ClosedLoop workload(16);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(),
                        Fleet(members_raw, std::move(lb)), config);
  return experiment.Run(&workload, [f] { return f; }, sink);
}

TEST(FleetTest, RoundRobinSpreadsRequestsEvenly) {
  ExperimentResult result = RunFlashFleet(4, nullptr);  // Default: round-robin.
  EXPECT_EQ(result.requests, 400u);
  ASSERT_EQ(result.per_server.size(), 4u);
  uint64_t total = 0;
  for (const ioldrv::ServerShare& share : result.per_server) {
    total += share.requests;
    // Strict cycling modulo the completion tail: near 100 each.
    EXPECT_GE(share.requests, 90u);
    EXPECT_LE(share.requests, 110u);
    EXPECT_GT(share.bytes, 0u);
    EXPECT_GT(share.peak_concurrent, 0);
  }
  EXPECT_EQ(total, result.requests);
  // Latency percentiles populated and ordered.
  EXPECT_GT(result.latency.p50_ms, 0.0);
  EXPECT_LE(result.latency.p50_ms, result.latency.p99_ms);
  EXPECT_LE(result.latency.p99_ms, result.latency.max_ms);
}

TEST(FleetTest, FourFlashCpusOutrunOne) {
  // Flash on 20 KB persistent connections is CPU-bound; a 4-member fleet
  // (4 CPUs behind the shared link) must beat a single member clearly.
  double one = RunFlashFleet(1, nullptr).megabits_per_sec;
  double four = RunFlashFleet(4, nullptr).megabits_per_sec;
  EXPECT_GT(four, one * 1.3);  // Gain capped by the shared front link.
}

TEST(FleetTest, LeastConnectionsMatchesRoundRobinOnHomogeneousLoad) {
  double rr = RunFlashFleet(4, nullptr).megabits_per_sec;
  double lc =
      RunFlashFleet(4, std::make_unique<LeastConnectionsBalancer>()).megabits_per_sec;
  EXPECT_GT(lc, rr * 0.9);
  EXPECT_LT(lc, rr * 1.1);
}

TEST(FleetTest, TelemetrySinkSeesEveryCountedRequest) {
  Telemetry sink;
  ExperimentResult result = RunFlashFleet(2, nullptr, &sink);
  EXPECT_EQ(sink.records().size(), result.requests);  // No warmup configured.
  for (const RequestRecord& r : sink.records()) {
    EXPECT_GE(r.admit, r.issue);
    EXPECT_GT(r.complete, r.admit);
    EXPECT_GT(r.bytes, 0u);
    EXPECT_LT(r.server, 2u);
  }
  // Single hot document: everything after the first read is a cache hit.
  EXPECT_GT(sink.CacheHitFraction(), 0.9);
}

TEST(FleetTest, SharedSinkAcrossRunsSummarizesEachRunAlone) {
  // A sink may accumulate records over several experiments; each result's
  // latency summary must cover only its own run.
  Telemetry sink;
  ExperimentResult first = RunFlashFleet(1, nullptr, &sink);
  ExperimentResult second = RunFlashFleet(2, nullptr, &sink);
  EXPECT_EQ(sink.records().size(), first.requests + second.requests);
  EXPECT_EQ(second.latency.count, second.requests);
  // The two-member run is faster, so folding the first run's records in
  // would inflate its max; equal machine seeds keep this deterministic.
  EXPECT_LT(second.latency.max_ms, first.latency.max_ms);
}

// --- Timestamped trace replay -------------------------------------------------

iolwl::Trace SmallTrace() {
  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_files = 64;
  spec.total_bytes = 2ull << 20;
  spec.num_requests = 600;
  return iolwl::Trace::Generate(spec);
}

ExperimentResult RunReplay(const iolwl::Trace& trace, const iolwl::TimestampedLog& log) {
  System sys;
  std::vector<FileId> ids = trace.Materialize(&sys.fs());
  FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
  ExperimentConfig config;
  config.max_requests = log.entries.size();
  TraceReplay workload(&log, ids);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
  return experiment.Run(&workload, [&ids] { return ids[0]; });
}

TEST(TraceReplayTest, DeterministicAcrossRunsWithSameSeed) {
  iolwl::Trace trace = SmallTrace();
  iolwl::TimestampedLog log = iolwl::SynthesizeArrivals(trace, 2000.0, /*seed=*/99);
  ASSERT_EQ(log.entries.size(), 600u);
  ExperimentResult a = RunReplay(trace, log);
  ExperimentResult b = RunReplay(trace, log);
  EXPECT_EQ(a.requests, 600u);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_DOUBLE_EQ(a.megabits_per_sec, b.megabits_per_sec);
  EXPECT_DOUBLE_EQ(a.latency.p99_ms, b.latency.p99_ms);
  EXPECT_GT(a.latency.p99_ms, 0.0);
}

TEST(TraceReplayTest, ArrivalsFollowTheLogInstants) {
  iolwl::Trace trace = SmallTrace();
  iolwl::TimestampedLog log = iolwl::SynthesizeArrivals(trace, 500.0, /*seed=*/7);
  System sys;
  std::vector<FileId> ids = trace.Materialize(&sys.fs());
  FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
  ExperimentConfig config;
  config.max_requests = log.entries.size();
  TraceReplay workload(&log, ids);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
  Telemetry sink;
  experiment.Run(&workload, [&ids] { return ids[0]; }, &sink);
  ASSERT_EQ(sink.records().size(), log.entries.size());
  // Issue instants are exactly the log's (arrivals never wait for a free
  // lane — the pool grows instead). Records arrive in completion order,
  // which may differ from arrival order, so compare the sorted instants.
  std::vector<iolsim::SimTime> issued;
  for (const RequestRecord& r : sink.records()) {
    issued.push_back(r.issue);
  }
  std::sort(issued.begin(), issued.end());
  for (size_t i = 0; i < issued.size(); ++i) {
    EXPECT_EQ(issued[i], log.entries[i].at) << "entry " << i;
  }
}

TEST(TraceReplayTest, ExhaustedLogEndsTheRun) {
  iolwl::Trace trace = SmallTrace();
  iolwl::TimestampedLog log = iolwl::SynthesizeArrivals(trace, 2000.0, /*seed=*/11);
  System sys;
  std::vector<FileId> ids = trace.Materialize(&sys.fs());
  FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
  ExperimentConfig config;
  config.max_requests = 1u << 20;  // Far beyond the log: the log ends the run.
  TraceReplay workload(&log, ids);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
  ExperimentResult result = experiment.Run(&workload, [&ids] { return ids[0]; });
  EXPECT_EQ(result.requests, log.entries.size());
}

// --- Single-run guard ---------------------------------------------------------

TEST(ExperimentDeathTest, SecondRunOnSameInstanceAborts) {
  System sys;
  FileId f = sys.fs().CreateFile("doc", 4 * 1024);
  FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.max_requests = 10;
  ClosedLoop workload(2);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
  experiment.Run(&workload, [f] { return f; });
  EXPECT_DEATH(experiment.Run(&workload, [f] { return f; }), "Run\\(\\) called twice");
}

}  // namespace
