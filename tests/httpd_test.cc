// Tests for the Web server data paths and the closed-loop driver
// (Sections 3.10, 5.1-5.3).

#include <gtest/gtest.h>

#include <memory>

#include "src/driver/experiment.h"
#include "src/driver/workload.h"
#include "src/httpd/cgi.h"
#include "src/httpd/http_server.h"
#include "src/system/system.h"
#include "tests/test_util.h"

namespace {

using ioldrv::ClosedLoop;
using ioldrv::Experiment;
using ioldrv::ExperimentConfig;
using ioldrv::ExperimentResult;
using iolfs::FileId;
using iolhttp::ApacheServer;
using iolhttp::CopyCgiServer;
using iolhttp::FlashLiteServer;
using iolhttp::FlashServer;
using iolhttp::LiteCgiServer;
using iolsys::System;

class HttpdTest : public ::testing::Test {
 protected:
  HttpdTest() {
    file_ = sys_.fs().CreateFile("doc.html", 20 * 1024);
  }

  // Serves `n` requests on one persistent connection; returns bytes sent.
  size_t Serve(iolhttp::HttpServer* server, int n) {
    iolnet::TcpConnection conn(&sys_.net(), server->uses_iolite_sockets());
    conn.Connect();
    size_t total = 0;
    for (int i = 0; i < n; ++i) {
      total += server->HandleRequest(&conn, file_);
    }
    conn.Close();
    return total;
  }

  System sys_;
  FileId file_;
};

TEST_F(HttpdTest, AllServersSendHeaderPlusBody) {
  FlashServer flash(&sys_.ctx(), &sys_.net(), &sys_.io());
  ApacheServer apache(&sys_.ctx(), &sys_.net(), &sys_.io());
  FlashLiteServer lite(&sys_.ctx(), &sys_.net(), &sys_.io(), &sys_.runtime());
  size_t expected = 20 * 1024 + iolhttp::kResponseHeaderBytes;
  EXPECT_EQ(Serve(&flash, 1), expected);
  EXPECT_EQ(Serve(&apache, 1), expected);
  EXPECT_EQ(Serve(&lite, 1), expected);
}

TEST_F(HttpdTest, FlashCopiesEveryResponseFlashLiteDoesNot) {
  FlashServer flash(&sys_.ctx(), &sys_.net(), &sys_.io());
  Serve(&flash, 5);
  uint64_t flash_copied = sys_.ctx().stats().bytes_copied;
  EXPECT_GE(flash_copied, 5u * 20 * 1024);

  // Fresh system for a clean count.
  System sys2;
  FileId file2 = sys2.fs().CreateFile("doc.html", 20 * 1024);
  FlashLiteServer lite(&sys2.ctx(), &sys2.net(), &sys2.io(), &sys2.runtime());
  iolnet::TcpConnection conn(&sys2.net(), true);
  conn.Connect();
  for (int i = 0; i < 5; ++i) {
    lite.HandleRequest(&conn, file2);
  }
  conn.Close();
  // Only the header generation copies (250 bytes per request).
  EXPECT_LE(sys2.ctx().stats().bytes_copied, 5u * iolhttp::kResponseHeaderBytes);
}

TEST_F(HttpdTest, FlashLiteChecksumsBodyOnceThenOnlyHeaders) {
  FlashLiteServer lite(&sys_.ctx(), &sys_.net(), &sys_.io(), &sys_.runtime());
  Serve(&lite, 10);
  // Body summed once (20 KB); headers summed every time (fresh generation).
  uint64_t expected_max = 20 * 1024 + 10 * iolhttp::kResponseHeaderBytes;
  EXPECT_LE(sys_.ctx().stats().bytes_checksummed, expected_max);
  EXPECT_GE(sys_.ctx().stats().checksum_cache_hits, 9u);
}

TEST_F(HttpdTest, FlashLiteWarmRequestIsCheaperThanFlash) {
  FlashServer flash(&sys_.ctx(), &sys_.net(), &sys_.io());
  FlashLiteServer lite(&sys_.ctx(), &sys_.net(), &sys_.io(), &sys_.runtime());
  iolnet::TcpConnection flash_conn(&sys_.net(), false);
  iolnet::TcpConnection lite_conn(&sys_.net(), true);
  flash_conn.Connect();
  lite_conn.Connect();
  // Warm both paths.
  flash.HandleRequest(&flash_conn, file_);
  lite.HandleRequest(&lite_conn, file_);

  iolsim::SimTime t0 = sys_.ctx().clock().now();
  flash.HandleRequest(&flash_conn, file_);
  iolsim::SimTime flash_time = sys_.ctx().clock().now() - t0;
  t0 = sys_.ctx().clock().now();
  lite.HandleRequest(&lite_conn, file_);
  iolsim::SimTime lite_time = sys_.ctx().clock().now() - t0;
  EXPECT_LT(lite_time, flash_time);
  flash_conn.Close();
  lite_conn.Close();
}

TEST_F(HttpdTest, ApacheChargesMoreCpuThanFlash) {
  FlashServer flash(&sys_.ctx(), &sys_.net(), &sys_.io());
  ApacheServer apache(&sys_.ctx(), &sys_.net(), &sys_.io());
  Serve(&flash, 1);  // Warm the cache.
  iolsim::SimTime t0 = sys_.ctx().clock().now();
  Serve(&flash, 1);
  iolsim::SimTime flash_time = sys_.ctx().clock().now() - t0;
  t0 = sys_.ctx().clock().now();
  Serve(&apache, 1);
  iolsim::SimTime apache_time = sys_.ctx().clock().now() - t0;
  EXPECT_GT(apache_time, flash_time);
  EXPECT_GT(apache.per_connection_memory(), 0u);
}

TEST_F(HttpdTest, SendfileBetweenFlashAndFlashLite) {
  // Section 6.7: sendfile avoids the copy but not the checksum.
  FlashServer flash(&sys_.ctx(), &sys_.net(), &sys_.io());
  iolhttp::SendfileServer sendfile(&sys_.ctx(), &sys_.net(), &sys_.io());
  FlashLiteServer lite(&sys_.ctx(), &sys_.net(), &sys_.io(), &sys_.runtime());
  // Warm all paths.
  Serve(&flash, 1);
  Serve(&sendfile, 1);
  Serve(&lite, 1);

  auto timed = [&](iolhttp::HttpServer* server) {
    iolsim::SimTime t0 = sys_.ctx().clock().now();
    Serve(server, 1);
    return sys_.ctx().clock().now() - t0;
  };
  iolsim::SimTime flash_time = timed(&flash);
  iolsim::SimTime sendfile_time = timed(&sendfile);
  iolsim::SimTime lite_time = timed(&lite);
  EXPECT_LT(sendfile_time, flash_time);  // No socket-buffer copy.
  EXPECT_LT(lite_time, sendfile_time);   // Checksum served from cache.
}

TEST_F(HttpdTest, SendfileCannotUseChecksumCache) {
  iolhttp::SendfileServer sendfile(&sys_.ctx(), &sys_.net(), &sys_.io());
  Serve(&sendfile, 5);
  // Every transmission checksummed in full; no cache hits.
  EXPECT_GE(sys_.ctx().stats().bytes_checksummed, 5u * 20 * 1024);
  EXPECT_EQ(sys_.ctx().stats().checksum_cache_hits, 0u);
}

TEST_F(HttpdTest, CgiServersDeliverTheDocument) {
  CopyCgiServer copy_cgi(&sys_.ctx(), &sys_.net(), &sys_.io(), 8192);
  LiteCgiServer lite_cgi(&sys_.ctx(), &sys_.net(), &sys_.io(), &sys_.runtime(), 8192);
  size_t expected = 8192 + iolhttp::kResponseHeaderBytes;
  EXPECT_EQ(Serve(&copy_cgi, 1), expected);
  EXPECT_EQ(Serve(&lite_cgi, 1), expected);
}

TEST_F(HttpdTest, CopyCgiPaysThreeCopiesLiteCgiNone) {
  System a;
  a.fs().CreateFile("x", 16);
  CopyCgiServer copy_cgi(&a.ctx(), &a.net(), &a.io(), 10000);
  iolnet::TcpConnection conn_a(&a.net(), false);
  conn_a.Connect();
  copy_cgi.HandleRequest(&conn_a, 1);
  // Pipe in + pipe out + gathered writev copy ~ 3x the document.
  EXPECT_GE(a.ctx().stats().bytes_copied, 3u * 10000);
  conn_a.Close();

  System b;
  b.fs().CreateFile("x", 16);
  LiteCgiServer lite_cgi(&b.ctx(), &b.net(), &b.io(), &b.runtime(), 10000);
  uint64_t setup_copies = b.ctx().stats().bytes_copied;  // Doc built once.
  iolnet::TcpConnection conn_b(&b.net(), true);
  conn_b.Connect();
  for (int i = 0; i < 3; ++i) {
    lite_cgi.HandleRequest(&conn_b, 1);
  }
  // Per-request copying is only the 250-byte header.
  EXPECT_LE(b.ctx().stats().bytes_copied - setup_copies,
            3u * iolhttp::kResponseHeaderBytes);
  conn_b.Close();
}

// --- Closed-loop driver -------------------------------------------------------

TEST(DriverTest, DeterministicAcrossRuns) {
  double first_mbps = 0;
  for (int run = 0; run < 2; ++run) {
    System sys;
    FileId f = sys.fs().CreateFile("doc", 50 * 1024);
    FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
    ExperimentConfig config;
    config.max_requests = 500;
    config.warmup_requests = 10;
    ClosedLoop workload(8);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
    ExperimentResult result = experiment.Run(&workload, [f] { return f; });
    EXPECT_EQ(result.requests, 500u);
    if (run == 0) {
      first_mbps = result.megabits_per_sec;
    } else {
      EXPECT_DOUBLE_EQ(result.megabits_per_sec, first_mbps);
    }
  }
}

TEST(DriverTest, ThroughputNeverExceedsWireCeiling) {
  System sys;
  FileId f = sys.fs().CreateFile("doc", 200 * 1024);
  FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
  ExperimentConfig config;
  config.max_requests = 2000;
  config.warmup_requests = 50;
  config.persistent_connections = true;
  ClosedLoop workload(40);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
  ExperimentResult result = experiment.Run(&workload, [f] { return f; });
  const iolsim::CostParams& p = sys.ctx().cost().params();
  double ceiling = p.nic_bits_per_sec * p.nic_count * p.wire_efficiency / 1e6;
  EXPECT_LE(result.megabits_per_sec, ceiling * 1.01);
  EXPECT_GT(result.megabits_per_sec, ceiling * 0.9);  // Big files saturate.
}

TEST(DriverTest, PersistentConnectionsBeatNonpersistentOnSmallFiles) {
  auto run = [](bool persistent) {
    System sys;
    FileId f = sys.fs().CreateFile("doc", 5 * 1024);
    FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
    ExperimentConfig config;
    config.max_requests = 3000;
    config.warmup_requests = 100;
    config.persistent_connections = persistent;
    ClosedLoop workload(40);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
    return experiment.Run(&workload, [f] { return f; }).megabits_per_sec;
  };
  EXPECT_GT(run(true), run(false) * 1.2);
}

TEST(DriverTest, WanDelayIncreasesWithoutStarvingThroughput) {
  // With the client population scaled up, added delay must not collapse
  // Flash-Lite's throughput (Section 5.7).
  auto run = [](iolsim::SimTime delay, int clients) {
    System sys;
    FileId f = sys.fs().CreateFile("doc", 20 * 1024);
    FlashLiteServer lite(&sys.ctx(), &sys.net(), &sys.io(), &sys.runtime());
    ExperimentConfig config;
    config.max_requests = 2000;
    config.warmup_requests = 100;
    config.persistent_connections = true;
    config.delay.one_way_delay = delay / 2;
    ClosedLoop workload(clients);
    Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &lite, config);
    return experiment.Run(&workload, [f] { return f; }).megabits_per_sec;
  };
  double lan = run(0, 64);
  double wan = run(100 * iolsim::kMillisecond, 640);
  EXPECT_GT(wan, lan * 0.5);
}

TEST(DriverTest, CacheBudgetEnforcementEvictsUnderPressure) {
  iolsys::SystemOptions options;
  options.cost.ram_bytes = 8ull << 20;  // Tiny machine.
  options.cost.kernel_reserved_bytes = 1ull << 20;
  System sys(options);
  std::vector<FileId> files;
  for (int i = 0; i < 100; ++i) {
    files.push_back(sys.fs().CreateFile(std::string("f").append(std::to_string(i)), 256 * 1024));
  }
  FlashServer flash(&sys.ctx(), &sys.net(), &sys.io());
  ExperimentConfig config;
  config.max_requests = 400;
  config.enforce_cache_budget = true;
  ClosedLoop workload(4);
  Experiment experiment(&sys.ctx(), &sys.net(), &sys.cache(), &flash, config);
  int i = 0;
  ExperimentResult result =
      experiment.Run(&workload, [&] { return files[i++ % files.size()]; });
  EXPECT_GT(sys.ctx().stats().cache_evictions, 0u);
  EXPECT_LT(result.cache_hit_rate, 0.5);
}

}  // namespace
