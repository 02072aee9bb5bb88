// Wall-clock benchmark of the discrete-event engine itself.
//
// Unlike the figure benchmarks (which report *simulated* bandwidth), every
// number here is host-side: how fast the simulator executes. Three rows:
//
//  * engine_ring       — raw EventQueue + Resource dispatch: one
//                        self-rescheduling event per step, no request logic.
//  * macro_flash_tiny  — 1M requests through the full staged pipeline
//                        (Flash, 64 B document, persistent): engine-bound
//                        request turnover.
//  * macro_flash /     — the same pipeline with 1 KB documents on the copy
//    macro_flash_lite    and IO-Lite paths: real per-byte work mixed in,
//                        what fig-scale sweeps actually pay.
//  * macro_lite_50k    — the headline macro run: 1M fig03-shaped requests
//                        (Flash-Lite, 50 KB, nonpersistent, 40 clients).
//                        ~36 link-segment events per response and no
//                        payload touching — exactly the per-MSS-segment
//                        path whose per-event allocations motivated the
//                        engine rebuild.
//
// JSON rows use x = simulated requests (0 for the raw ring), value =
// events_per_sec, plus wall_ms/events_per_sec like every experiment row.
// Run with --smoke in CI (tiny counts: path rot check, not a measurement).

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"

namespace {

using Clock = std::chrono::steady_clock;
using iolbench::ServerKind;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct PerfRow {
  uint64_t requests = 0;  // Simulated requests (0 for the raw ring).
  uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
};

void Report(iolbench::JsonReporter* json, const char* series, const PerfRow& row) {
  std::printf("%-18s requests=%-9llu events=%-9llu wall_ms=%9.2f events_per_sec=%.0f\n",
              series, static_cast<unsigned long long>(row.requests),
              static_cast<unsigned long long>(row.events), row.wall_ms,
              row.events_per_sec);
  json->AddPerf(series, static_cast<double>(row.requests), row.events_per_sec,
                row.wall_ms, row.events_per_sec);
}

// Raw engine throughput: one event per step, each step re-arming itself
// through a Resource acquisition — the skeleton of a pipeline stage with
// zero request logic attached.
PerfRow RunRing(uint64_t steps) {
  iolsim::SimContext ctx;
  struct RingState {
    iolsim::SimContext* ctx;
    uint64_t remaining;
    void Step() {
      if (--remaining == 0) {
        return;
      }
      ctx->cpu().AcquireAsync(&ctx->events(), 10, [this] { Step(); });
    }
  } ring{&ctx, steps};
  Clock::time_point t0 = Clock::now();
  ctx.cpu().AcquireAsync(&ctx.events(), 10, [&ring] { ring.Step(); });
  ctx.events().RunAll();
  PerfRow row;
  row.wall_ms = MsSince(t0);
  row.events = ctx.stats().events_dispatched;
  row.events_per_sec = row.wall_ms > 0 ? row.events / (row.wall_ms / 1000.0) : 0;
  return row;
}

// The macro run: a closed-loop population hammering one cached document
// through the full staged pipeline (parse, cache lookup, header build,
// send, per-segment transmit) on persistent connections — steady-state
// request turnover, which is exactly the path the engine pools keep
// allocation-free.
PerfRow RunMacro(ServerKind kind, size_t doc_bytes, uint64_t requests,
                 bool persistent = true, int clients = 60) {
  iolbench::Bench b = iolbench::MakeBench(kind);
  iolfs::FileId f = b.sys->fs().CreateFile("doc", doc_bytes);
  ioldrv::ExperimentConfig config;
  config.persistent_connections = persistent;
  config.max_requests = requests;
  config.warmup_requests = 1000;
  ioldrv::ClosedLoop workload(clients);
  ioldrv::Experiment experiment(&b.sys->ctx(), &b.sys->net(), &b.sys->cache(),
                                b.server.get(), config);
  ioldrv::ExperimentResult r = experiment.Run(&workload, [f] { return f; });
  PerfRow row;
  row.requests = r.requests;
  row.events = r.events_dispatched;
  row.wall_ms = r.wall_ms;
  row.events_per_sec = row.wall_ms > 0 ? row.events / (row.wall_ms / 1000.0) : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  iolbench::BenchOptions opts = iolbench::ParseBenchOptions(argc, argv);
  iolbench::JsonReporter json("micro_engine", opts);

  const uint64_t ring_steps = opts.smoke ? 20'000 : 5'000'000;
  const uint64_t macro_requests = opts.smoke ? 2'000 : 1'000'000;
  const uint64_t lite_requests = opts.smoke ? 2'000 : 500'000;
  const uint64_t seg_requests = opts.smoke ? 1'000 : 1'000'000;

  iolbench::PrintHeader("Engine wall-clock microbenchmark (host time, not simulated)",
                        "series\trequests\tevents\twall_ms\tevents_per_sec");
#ifndef NDEBUG
  std::printf("# NOTE: assert-enabled (Debug) build — compare like with like\n");
#endif
  Report(&json, "engine_ring", RunRing(ring_steps));
  Report(&json, "macro_flash_tiny", RunMacro(ServerKind::kFlash, 64, macro_requests));
  Report(&json, "macro_flash", RunMacro(ServerKind::kFlash, 1024, macro_requests));
  Report(&json, "macro_flash_lite",
         RunMacro(ServerKind::kFlashLite, 1024, lite_requests));
  Report(&json, "macro_lite_50k",
         RunMacro(ServerKind::kFlashLite, 50 * 1024, seg_requests,
                  /*persistent=*/false, /*clients=*/40));
  return json.Flush() ? 0 : 1;
}
