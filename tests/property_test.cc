// Cross-module property tests: randomized operation sequences validated
// against reference models, and global invariants that must hold under any
// interleaving (refcount conservation, budget ceilings, snapshot stability,
// checksum composability under arbitrary re-slicing).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/fs/file_io.h"
#include "src/iolite/pipe.h"
#include "src/net/checksum.h"
#include "src/system/system.h"
#include "src/workload/trace.h"
#include "tests/test_util.h"

namespace {

using iolfs::FileId;
using iolsys::System;

// --- Unified cache vs. a reference byte map ----------------------------------

// Random reads and writes against one file, mirrored into a plain string.
// After every operation, any read through the cache must return exactly the
// reference bytes, and earlier snapshots must never change.
class CacheModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheModelTest, ReadsAlwaysMatchReferenceModel) {
  System sys;
  iolsim::Rng rng(GetParam());
  constexpr uint64_t kFileSize = 64 * 1024;
  FileId f = sys.fs().CreateFile("model", kFileSize);

  // Reference contents.
  std::string model = ioltest::FileContent(sys.fs(), f, 0, kFileSize);

  struct Snapshot {
    iolite::Aggregate agg;
    std::string expected;
  };
  std::vector<Snapshot> snapshots;

  for (int step = 0; step < 300; ++step) {
    uint64_t off = rng.NextBelow(kFileSize - 1);
    size_t len = 1 + rng.NextBelow(kFileSize - off);
    switch (rng.NextBelow(4)) {
      case 0: {  // Read and check.
        iolite::Aggregate got = sys.io().ReadExtent(f, off, len);
        ASSERT_EQ(got.ToString(), model.substr(off, len)) << "step " << step;
        break;
      }
      case 1: {  // Write random bytes.
        std::string data;
        for (size_t i = 0; i < len; ++i) {
          data.push_back(static_cast<char>(rng.NextBelow(256)));
        }
        sys.io().WriteExtent(f, off,
                             ioltest::AggFrom(sys.runtime().kernel_pool(), data));
        model.replace(off, len, data);
        break;
      }
      case 2: {  // Take a snapshot to be validated forever after.
        if (snapshots.size() < 8) {
          Snapshot s{sys.io().ReadExtent(f, off, len), model.substr(off, len)};
          snapshots.push_back(std::move(s));
        }
        break;
      }
      case 3: {  // Random eviction pressure.
        sys.cache().EnforceBudget(rng.NextBelow(kFileSize));
        break;
      }
    }
    // Immutability: every snapshot still shows the bytes from its moment.
    for (const Snapshot& s : snapshots) {
      ASSERT_EQ(s.agg.ToString(), s.expected) << "snapshot violated at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelTest,
                         ::testing::Values(3, 7, 31, 127, 8191, 131071));

// --- Cache byte accounting and budget ceiling ---------------------------------

class CacheBudgetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheBudgetTest, NeverExceedsBudgetAfterEnforce) {
  System sys;
  iolsim::Rng rng(GetParam());
  std::vector<FileId> files;
  for (int i = 0; i < 40; ++i) {
    files.push_back(sys.fs().CreateFile(std::string("f").append(std::to_string(i)),
                                        1024 + rng.NextBelow(64 * 1024)));
  }
  uint64_t budget = 128 * 1024;
  for (int step = 0; step < 500; ++step) {
    FileId f = files[rng.NextBelow(files.size())];
    uint64_t size = sys.fs().SizeOf(f);
    size_t len = 1 + rng.NextBelow(size);
    sys.io().ReadExtent(f, rng.NextBelow(size - len + 1), len);
    sys.cache().EnforceBudget(budget);
    ASSERT_LE(sys.cache().bytes(), budget) << "step " << step;
  }
  // Full eviction always reaches zero.
  sys.cache().EnforceBudget(0);
  EXPECT_EQ(sys.cache().bytes(), 0u);
  EXPECT_EQ(sys.cache().entry_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheBudgetTest, ::testing::Values(17, 42, 1001));

// --- Buffer pool: recycling conserves buffers, never aliases live data --------

class PoolInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolInvariantTest, LiveBuffersNeverAlias) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "prop", iolsim::kKernelDomain);
  iolsim::Rng rng(GetParam());

  struct Live {
    iolite::BufferRef buffer;
    std::string expected;
  };
  std::vector<Live> live;

  for (int step = 0; step < 400; ++step) {
    if (live.size() < 20 && rng.NextBelow(2) == 0) {
      size_t n = 1 + rng.NextBelow(100 * 1024);
      std::string data;
      data.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        data.push_back(static_cast<char>(rng.NextBelow(256)));
      }
      live.push_back(Live{pool.AllocateFrom(data.data(), n), std::move(data)});
    } else if (!live.empty()) {
      live.erase(live.begin() + rng.NextBelow(live.size()));
    }
    // No allocation may ever have stomped a live buffer's bytes.
    for (const Live& l : live) {
      ASSERT_EQ(std::string(l.buffer->data(), l.buffer->size()), l.expected)
          << "aliasing detected at step " << step;
    }
  }
  // Refcount conservation: dropping everything returns all buffers.
  size_t live_count = live.size();
  EXPECT_EQ(pool.live_buffers(), live_count);
  live.clear();
  EXPECT_EQ(pool.live_buffers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolInvariantTest, ::testing::Values(5, 55, 555, 5555));

// --- Checksum: invariant under arbitrary re-slicing ---------------------------

class ChecksumSliceInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChecksumSliceInvarianceTest, AnySlicingYieldsSameChecksum) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "ck", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/true);
  iolsim::Rng rng(GetParam());

  std::string payload;
  size_t n = 100 + rng.NextBelow(4000);
  for (size_t i = 0; i < n; ++i) {
    payload.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  iolite::Aggregate whole = ioltest::AggFrom(&pool, payload);
  uint16_t reference = module.Checksum(whole);

  for (int trial = 0; trial < 20; ++trial) {
    // Re-slice the same aggregate at random split points (odd offsets
    // exercise the byte-swap composition rule); the checksum is a property
    // of the bytes, not the slicing.
    iolite::Aggregate sliced;
    size_t pos = 0;
    while (pos < whole.size()) {
      size_t len = 1 + rng.NextBelow(301);
      if (pos + len > whole.size()) {
        len = whole.size() - pos;
      }
      sliced.Append(whole.Range(pos, len));
      pos += len;
    }
    ASSERT_EQ(module.Checksum(sliced), reference) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumSliceInvarianceTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

// --- Trace generation invariants ----------------------------------------------

class TraceInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceInvariantTest, PrefixesNestAndConserve) {
  iolwl::TraceSpec spec = iolwl::SubtraceSpec();
  spec.num_files = 400;
  spec.total_bytes = 16ull << 20;
  spec.num_requests = 30000;
  spec.seed = GetParam();
  iolwl::Trace trace = iolwl::Trace::Generate(spec);

  uint64_t prev_bytes = 0;
  size_t prev_requests = 0;
  for (uint64_t budget_mb : {2, 4, 8, 16}) {
    iolwl::Trace prefix = trace.Prefix(budget_mb << 20);
    // Monotone: larger budgets admit supersets.
    ASSERT_GE(prefix.total_bytes(), prev_bytes);
    ASSERT_GE(prefix.requests().size(), prev_requests);
    ASSERT_LE(prefix.total_bytes(), budget_mb << 20);
    // A prefix is literally a prefix of the request log.
    for (size_t i = 0; i < prefix.requests().size(); ++i) {
      ASSERT_EQ(prefix.requests()[i], trace.requests()[i]);
    }
    prev_bytes = prefix.total_bytes();
    prev_requests = prefix.requests().size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceInvariantTest, ::testing::Values(1, 9, 81, 729));

// --- Pipe conservation ----------------------------------------------------------

class PipeConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipeConservationTest, BytesInEqualsBytesOutInOrder) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "pipe", iolsim::kKernelDomain);
  iolite::PipeChannel channel(&ctx);
  iolsim::Rng rng(GetParam());

  std::string sent;
  std::string received;
  for (int step = 0; step < 300; ++step) {
    if (rng.NextBelow(2) == 0) {
      size_t n = 1 + rng.NextBelow(500);
      std::string data(n, static_cast<char>('a' + rng.NextBelow(26)));
      channel.Push(ioltest::AggFrom(&pool, data));
      sent += data;
    } else {
      iolite::Aggregate got = channel.Pop(1 + rng.NextBelow(700));
      received += got.ToString();
    }
    ASSERT_EQ(channel.bytes_queued(), sent.size() - received.size());
  }
  received += channel.Pop(SIZE_MAX).ToString();
  EXPECT_EQ(received, sent);  // FIFO, lossless, no duplication.
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipeConservationTest, ::testing::Values(6, 66, 666));

}  // namespace
