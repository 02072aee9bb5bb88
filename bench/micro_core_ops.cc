// Microbenchmarks for the core IO-Lite mechanisms (host-time measurements
// of the library itself, via google-benchmark): aggregate algebra, buffer
// pool allocation/recycling, DMA fills, checksum computation and cache hits.

#include <benchmark/benchmark.h>

#include <string>

#include "src/fs/sim_file_system.h"
#include "src/iolite/aggregate.h"
#include "src/iolite/buffer_pool.h"
#include "src/net/checksum.h"
#include "src/simos/sim_context.h"

namespace {

void BM_AggregateAppend(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolite::BufferRef buffer = pool.AllocateDma(1, 4096);
  for (auto _ : state) {
    iolite::Aggregate agg;
    for (int i = 0; i < state.range(0); ++i) {
      agg.Append(iolite::Slice(buffer, 0, 4096));
    }
    benchmark::DoNotOptimize(agg.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregateAppend)->Arg(4)->Arg(64)->Arg(1024);

void BM_AggregateSplitJoin(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolite::BufferRef buffer = pool.AllocateDma(1, 65536);
  iolite::Aggregate base = iolite::Aggregate::FromBuffer(buffer);
  for (auto _ : state) {
    iolite::Aggregate agg = base;
    iolite::Aggregate tail = agg.SplitOff(32768);
    agg.Append(tail);
    benchmark::DoNotOptimize(agg.slice_count());
  }
}
BENCHMARK(BM_AggregateSplitJoin);

void BM_AggregateReaderScan(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolite::Aggregate agg;
  for (int i = 0; i < 16; ++i) {
    agg.Append(iolite::Aggregate::FromBuffer(pool.AllocateDma(i, 4096)));
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (iolite::Aggregate::Reader r = agg.NewReader(); !r.AtEnd();) {
      const char* p = r.data();
      size_t n = r.run_length();
      for (size_t i = 0; i < n; ++i) {
        sum += static_cast<uint8_t>(p[i]);
      }
      r.Skip(n);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * 16 * 4096);
}
BENCHMARK(BM_AggregateReaderScan);

void BM_PoolAllocateRecycle(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  size_t n = state.range(0);
  for (auto _ : state) {
    iolite::BufferRef b = pool.Allocate(n);
    b->Seal(n);
    benchmark::DoNotOptimize(b.get());
    // Ref dropped: buffer recycles, next Allocate reuses it.
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAllocateRecycle)->Arg(256)->Arg(4096)->Arg(65536);

// The NIC fill of a proxy's fetched object: the buffer recycles each round,
// so the row times the xorshift fill itself.
void BM_DmaFill(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  size_t n = state.range(0);
  uint64_t seed = 0;
  for (auto _ : state) {
    iolite::BufferRef b = pool.AllocateDma(seed++, n);
    benchmark::DoNotOptimize(b->data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DmaFill)->Arg(1460)->Arg(16384)->Arg(65536);

// A disk read's DMA fill of synthetic file content (disk time is simulated,
// not spent), at a different offset each round.
void BM_DiskFill(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolfs::SimFileSystem fs(&ctx, &pool);
  size_t n = state.range(0);
  iolfs::FileId f = fs.CreateFile("bm", 16 * n);
  uint64_t round = 0;
  for (auto _ : state) {
    iolite::BufferRef b = fs.ReadFromDisk(f, (round++ % 15) * n + 1, n);
    benchmark::DoNotOptimize(b->data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiskFill)->Arg(1460)->Arg(16384)->Arg(65536);

void BM_ChecksumCold(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/false);
  iolite::Aggregate agg = iolite::Aggregate::FromBuffer(pool.AllocateDma(3, state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.Checksum(agg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumCold)->Arg(1460)->Arg(16384)->Arg(262144);

void BM_ChecksumCached(benchmark::State& state) {
  iolsim::SimContext ctx;
  iolite::BufferPool pool(&ctx, "bm", iolsim::kKernelDomain);
  iolnet::ChecksumModule module(&ctx, /*cache_enabled=*/true);
  iolite::Aggregate agg = iolite::Aggregate::FromBuffer(pool.AllocateDma(3, state.range(0)));
  module.Checksum(agg);  // Warm the cache.
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.Checksum(agg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumCached)->Arg(1460)->Arg(16384)->Arg(262144);

}  // namespace

BENCHMARK_MAIN();
