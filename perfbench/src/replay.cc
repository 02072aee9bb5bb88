// Layer replay: re-issues a run's operation mix through each layer's public
// hot function on a private machine, timing each loop on the steady clock.
// The per-operation costs times the run's operation counts give each
// layer's share of host time (main.cc).
//
// Each replay runs a fixed number of operations (not a fixed time), three
// times, and keeps the median, so its cost per operation does not depend
// on how long the run measured.

#include <algorithm>
#include <vector>

#include "harness.h"
#include "src/fs/file_cache.h"
#include "src/iolite/buffer_pool.h"
#include "src/net/checksum.h"

namespace perfbench {
namespace {

constexpr int kTrials = 3;

template <typename F>
double MedianNsPerOp(uint64_t ops, SpanLog* log, const char* name, F&& body) {
  std::vector<double> per_op;
  for (int t = 0; t < kTrials; ++t) {
    SpanScope s(log, name);
    int64_t t0 = NowNs();
    body();
    per_op.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

// Runs `op(i)`, one operation on `bytes` bytes, until `total_bytes` are
// covered; returns host nanoseconds per KB.
template <typename F>
double NsPerKb(size_t bytes, uint64_t total_bytes, SpanLog* log, const char* name, F&& op) {
  uint64_t reps = std::max<uint64_t>(1, total_bytes / bytes);
  double ns_per_rep = MedianNsPerOp(reps, log, name, [&] {
    for (uint64_t i = 0; i < reps; ++i) {
      op(i);
    }
  });
  return ns_per_rep * 1024.0 / static_cast<double>(bytes);
}

iolite::BufferRef FilledBuffer(iolite::BufferPool* pool, size_t n, uint8_t seed) {
  iolite::BufferRef b = pool->Allocate(n);
  char* d = b->writable_data();
  for (size_t i = 0; i < n; ++i) {
    d[i] = static_cast<char>(seed + i * 7);
  }
  b->Seal(n);
  return b;
}

// ScheduleAt + RunOne at a fixed pending depth: every dispatched event
// schedules its successor a random delay ahead.
double ReplayDispatch(size_t depth, uint64_t ops, SpanLog* log) {
  return MedianNsPerOp(ops, log, "replay.simos.dispatch", [depth, ops] {
    iolsim::VirtualClock clock;
    iolsim::EventQueue q(&clock);
    struct Ring {
      iolsim::EventQueue* q;
      iolsim::Rng rng;
      uint64_t left;
      void Step() {
        if (left == 0) {
          return;
        }
        --left;
        q->ScheduleAfter(static_cast<iolsim::SimTime>(1 + rng.NextBelow(200'000)),
                         [this] { Step(); });
      }
    } ring{&q, iolsim::Rng{42}, ops};
    for (size_t i = 0; i < depth; ++i) {
      q.ScheduleAfter(static_cast<iolsim::SimTime>(1 + ring.rng.NextBelow(200'000)),
                      [&ring] { ring.Step(); });
    }
    while (ring.left > 0 && q.RunOne()) {
    }
  });
}

double ReplayChecksum(size_t bytes, uint64_t total_bytes, SpanLog* log) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "replay", iolsim::kKernelDomain);
  iolite::Aggregate agg = iolite::Aggregate::FromBuffer(FilledBuffer(&pool, bytes, 3));
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/false);
  volatile uint16_t sink = 0;
  return NsPerKb(bytes, total_bytes, log, "replay.net.checksum",
                 [&](uint64_t) { sink = module.Checksum(agg); });
}

// ChecksumCache at the configured 65,536 entries, already full: a hit
// looks up one of the newest half of the resident keys; a miss looks up a
// fresh key and stores it, evicting the oldest.
double ReplayChecksumCache(double hit_ratio, uint64_t ops, SpanLog* log) {
  constexpr size_t kEntries = 65536;
  iolnet::ChecksumCache cache(kEntries);
  std::vector<iolnet::ChecksumCache::Key> ring(kEntries);
  uint64_t next = 0;
  auto fresh = [&next] {
    uint64_t id = next++;
    return iolnet::ChecksumCache::Key{id, static_cast<uint32_t>(id & 7), 0, 1460};
  };
  for (size_t i = 0; i < kEntries; ++i) {
    ring[i] = fresh();
    cache.Store(ring[i], static_cast<uint32_t>(i));
  }
  iolsim::Rng rng(7);
  // Decide hits up front so the timed loop does only cache work.
  std::vector<uint32_t> plan(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    plan[i] = rng.NextDouble() < hit_ratio
                  ? static_cast<uint32_t>(rng.NextBelow(kEntries / 2))
                  : UINT32_MAX;
  }
  uint32_t sum = 0;
  return MedianNsPerOp(ops, log, "replay.net.cksum_cache", [&] {
    for (uint64_t i = 0; i < ops; ++i) {
      if (plan[i] != UINT32_MAX) {
        // Newest half: ring slots behind the write cursor.
        size_t slot = (next - 1 - plan[i]) % kEntries;
        cache.Lookup(ring[slot], &sum);
      } else {
        iolnet::ChecksumCache::Key k = fresh();
        if (!cache.Lookup(k, &sum)) {
          cache.Store(k, static_cast<uint32_t>(i));
        }
        ring[(next - 1) % kEntries] = k;
      }
    }
  });
}

double ReplayDiskFill(size_t bytes, uint64_t total_bytes, SpanLog* log) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "replay", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &pool);
  iolfs::FileId f = fs.CreateFile("replay", bytes);
  return NsPerKb(bytes, total_bytes, log, "replay.fs.disk_fill",
                 [&](uint64_t) { iolite::BufferRef b = fs.ReadFromDisk(f, 0, bytes); });
}

// The run's request stream through a FileCache of the run's policy: Lookup
// the whole file, and on a miss Insert it and EnforceBudget at the run's
// final cache size. Inserted buffers are sealed unfilled, so the replay
// times the cache, not the fill (fs.disk_fill_ns_per_kb has that).
double ReplayCacheLookup(const std::vector<std::pair<iolfs::FileId, size_t>>& requests,
                         uint64_t budget, bool gds, SpanLog* log) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "replay", iolsim::kKernelDomain);
  iolfs::FileCache cache(&ctx, iolsys::System::MakePolicy(
                                   gds ? iolsys::SystemOptions::Policy::kGds
                                       : iolsys::SystemOptions::Policy::kPaperLru));
  budget = std::max<uint64_t>(budget, 1);
  return MedianNsPerOp(requests.size(), log, "replay.fs.lookup", [&] {
    for (const auto& [file, bytes] : requests) {
      if (!cache.Lookup(file, 0, bytes)) {
        iolite::BufferRef b = pool.Allocate(bytes);
        b->Seal(bytes);
        cache.Insert(file, 0, iolite::Aggregate::FromBuffer(std::move(b)));
        cache.EnforceBudget(budget);
      }
    }
  });
}

// InvalidateOlderThan on versioned entries, each call dropping one entry;
// the re-inserts between rounds are not timed.
double ReplayInvalidate(uint64_t ops, SpanLog* log) {
  constexpr size_t kFiles = 1024;
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "replay", iolsim::kKernelDomain);
  iolfs::FileCache cache(&ctx, iolsys::System::MakePolicy(iolsys::SystemOptions::Policy::kGds));
  uint64_t rounds = std::max<uint64_t>(1, ops / kFiles);
  std::vector<double> per_call;
  for (int t = 0; t < kTrials; ++t) {
    int64_t timed = 0;
    for (uint64_t r = 0; r < rounds; ++r) {
      uint64_t version = r + 1;
      for (size_t f = 1; f <= kFiles; ++f) {
        iolite::BufferRef b = pool.Allocate(1024);
        b->Seal(1024);
        cache.Insert(static_cast<iolfs::FileId>(f), 0,
                     iolite::Aggregate::FromBuffer(std::move(b)), version);
      }
      SpanScope s(log, "replay.fs.invalidate");
      int64_t t0 = NowNs();
      for (size_t f = 1; f <= kFiles; ++f) {
        cache.InvalidateOlderThan(static_cast<iolfs::FileId>(f), version + 1);
      }
      timed += NowNs() - t0;
    }
    per_call.push_back(static_cast<double>(timed) / static_cast<double>(rounds * kFiles));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// Allocate + Seal + release with 64 buffers live, alternating header-sized
// and payload-sized requests, so the free list sees both capacities.
double ReplayAlloc(size_t bytes, uint64_t ops, SpanLog* log) {
  constexpr size_t kLive = 64;
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "replay", iolsim::kKernelDomain);
  std::vector<iolite::BufferRef> live(kLive);
  return MedianNsPerOp(ops, log, "replay.iolite.alloc", [&] {
    for (uint64_t i = 0; i < ops; ++i) {
      size_t n = (i & 1) ? bytes : 256;
      iolite::BufferRef b = pool.Allocate(n);
      b->Seal(n);
      live[i % kLive] = std::move(b);
    }
  });
}

// AllocateDma: the NIC fill of an object a proxy fetched over the
// backhaul, released at once so the same buffer is recycled.
double ReplayDmaFill(size_t bytes, uint64_t total_bytes, SpanLog* log) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "replay", iolsim::kKernelDomain);
  return NsPerKb(bytes, total_bytes, log, "replay.iolite.dma_fill",
                 [&](uint64_t i) { iolite::BufferRef b = pool.AllocateDma(i, bytes); });
}

}  // namespace

ReplayCost ReplayLayers(const ReplayInput& in, bool short_mode, SpanLog* log) {
  SpanScope s(log, "replay");
  const uint64_t scale = short_mode ? 10 : 1;
  ReplayCost c;
  c.dispatch_ns = ReplayDispatch(std::max<size_t>(1, in.pending_depth), 2'000'000 / scale, log);
  c.checksum_ns_per_kb =
      ReplayChecksum(std::max<size_t>(64, in.checksum_bytes), (64u << 20) / scale, log);
  c.cksum_cache_ns = ReplayChecksumCache(in.cksum_hit_ratio, 1'000'000 / scale, log);
  c.disk_fill_ns_per_kb =
      ReplayDiskFill(std::max<size_t>(512, in.disk_read_bytes), (32u << 20) / scale, log);
  c.lookup_ns = in.requests.empty()
                    ? 0
                    : ReplayCacheLookup(in.requests, in.cache_budget, in.gds, log);
  c.invalidate_ns = ReplayInvalidate(200'000 / scale, log);
  c.alloc_ns = ReplayAlloc(std::max<size_t>(256, in.buffer_bytes), 1'000'000 / scale, log);
  c.dma_fill_ns_per_kb =
      ReplayDmaFill(std::max<size_t>(512, in.dma_bytes), (32u << 20) / scale, log);
  return c;
}

}  // namespace perfbench
