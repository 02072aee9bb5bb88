// perfbench: runs one workload of the simulator benchmark for a fixed host
// time and prints one JSON object with the build stamp, the output checks,
// the simulated digest, the end-to-end metrics and, with --trace 1, the
// per-layer metrics. perfbench/run.py builds this binary and turns its
// report into the benchmark's result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--short] [--spans <path>]
//
// A run is a sequence of episodes. Each episode builds a fresh machine from
// the seed's generated inputs (set-up), then runs a fixed number of counted
// requests (the timed phase starts at the first counted completion, after
// warmup). Episodes repeat until --seconds have passed. Every episode of a
// run must produce the same digest. With --trace 1, episodes alternate
// between untraced and traced; the per-layer host figures come from the
// untraced ones, and the layer replay runs after the last episode.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, as the simulator's own summaries compute it.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Util(const iolsim::Resource& r, iolsim::SimTime now) {
  return Ratio(static_cast<double>(r.busy_time()), static_cast<double>(now) * r.units());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--short") {
      a->short_mode = true;
    } else if (k == "--workload" && value(&v)) {
      a->workload = v;
    } else if (k == "--seed" && value(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds" && value(&v)) {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace" && value(&v)) {
      a->trace = v == "1";
    } else if (k == "--spans" && value(&v)) {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// What one episode leaves behind for the report.
struct EpisodeOutcome {
  bool traced = false;
  double win_p50 = 0, win_p99 = 0;
  double setup_s = 0;
  double run_s = 0;
  double requests_per_s = 0;
  uint64_t requests = 0;
  uint64_t records = 0;
  uint64_t digest = 0;
  std::vector<std::string> failures;
};

// Simulated state of the first episode (every episode must match it).
struct Reference {
  ioldrv::ExperimentResult result;
  iolsim::SimStats stats;
  double cpu_util = 0, disk_util = 0, link_util = 0;
  double queue_wait_p99_ms = 0, service_p99_ms = 0;
  uint64_t records = 0;
};

void CheckEpisode(const Episode& e, const ioldrv::ExperimentResult& r,
                  const ioldrv::Telemetry& sink, EpisodeOutcome* out) {
  if (r.requests != e.target) {
    out->failures.push_back("counted requests " + std::to_string(r.requests) +
                            " != target " + std::to_string(e.target));
  }
  uint64_t bytes = 0;
  for (const ioldrv::RequestRecord& rec : sink.records()) {
    if (rec.counted && ioldrv::Delivered(rec.outcome)) {
      bytes += rec.bytes;
    }
  }
  if (bytes != r.bytes) {
    out->failures.push_back("delivered bytes " + std::to_string(r.bytes) +
                            " != record bytes " + std::to_string(bytes));
  }
  if (r.availability != 1.0) {
    out->failures.push_back("availability " + std::to_string(r.availability) + " != 1");
  }
  // The invalidate protocol's invariant: no serve is older than its
  // write's acknowledgement, i.e. every stale serve happens while the
  // invalidation is still propagating down the tree (at most the sum of
  // the uplink delays). stale_serves itself counts those in-window serves.
  if (e.tier && r.staleness.max_ms > e.ack_bound_ms) {
    out->failures.push_back("stale serve aged " + std::to_string(r.staleness.max_ms) +
                            " ms, past the " + std::to_string(e.ack_bound_ms) +
                            " ms invalidation ack");
  }
}

void PrintMetric(bool* first, const char* name, double v) {
  std::printf("%s\"%s\": %.17g", *first ? "" : ", ", name, v);
  *first = false;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--short] [--spans <path>]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report from an assert-enabled build\n");
  return 3;
#endif
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  SpanLog log(200'000);
  std::vector<EpisodeOutcome> episodes;
  size_t windows = 0;
  std::vector<std::pair<iolfs::FileId, size_t>> replay_requests;
  uint64_t replay_budget = 0;
  bool replay_gds = false;
  std::vector<double> pending;
  Reference ref;
  const int min_untraced = args.trace ? 2 : 3;
  const int min_traced = args.trace ? 2 : 0;
  int untraced = 0, traced = 0;

  const int64_t deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);

  for (int i = 0;; ++i) {
    EpisodeOutcome out;
    out.traced = args.trace && i % 2 == 1;
    log.set_enabled(out.traced);
    int64_t t0 = NowNs();
    std::unique_ptr<Episode> e;
    {
      SpanScope s(&log, "setup");
      e = BuildEpisode(*def, args.seed, args.short_mode, &log);
    }
    out.setup_s = (NowNs() - t0) / 1e9;

    iolsim::SimContext& ctx = e->sys->ctx();
    WindowSink sink(def->window, &ctx.events(), &log);
    sink.Reserve(e->target + def->warmup + 4096);
    // The first traced episode records its request stream for the replay.
    std::vector<iolfs::FileId> requested;
    if (out.traced && replay_requests.empty()) {
      requested.reserve(e->target + def->warmup + 4096);
    }
    TracedWorkload decorated(e->workload.get(), &log, &sink, &requested);
    ioldrv::Workload* workload = out.traced ? &decorated : e->workload.get();
    ioldrv::Experiment::RequestSource source = e->source;
    if (out.traced) {
      source = [inner = e->source, logp = &log, sinkp = &sink, files = &requested] {
        SpanScope s(logp, "source.NextFile", static_cast<int64_t>(sinkp->records().size()),
                    true);
        iolfs::FileId f = inner();
        if (files->size() < files->capacity()) {
          files->push_back(f);
        }
        return f;
      };
    }
    ioldrv::ExperimentResult r;
    {
      SpanScope s(&log, "run");
      int64_t r0 = NowNs();
      r = e->Run(workload, std::move(source), &sink);
      out.run_s = (NowNs() - r0) / 1e9;
    }
    out.requests_per_s = sink.RequestsPerSecond();
    out.requests = r.requests;
    out.records = sink.records().size();
    out.digest = Digest(sink, ctx.clock().now(), ctx.stats());
    CheckEpisode(*e, r, sink, &out);
    if (episodes.empty()) {
      ref.result = r;
      ref.stats = ctx.stats();
      iolsim::SimTime now = ctx.clock().now();
      ref.cpu_util = Util(ctx.cpu(), now);
      ref.disk_util = Util(ctx.disk(), now);
      ref.link_util = Util(ctx.link(), now);
      ref.queue_wait_p99_ms = sink.QueueWait().p99_ms;
      std::vector<iolsim::SimTime> service;
      for (const ioldrv::RequestRecord& rec : sink.records()) {
        if (rec.counted && ioldrv::Delivered(rec.outcome)) {
          service.push_back(rec.complete - rec.admit);
        }
      }
      ref.service_p99_ms = ioldrv::SummarizeSamples(std::move(service)).p99_ms;
      ref.records = out.records;
    } else if (out.digest != episodes.front().digest) {
      out.failures.push_back("digest differs from the run's first episode");
    }
    if (!requested.empty()) {
      for (iolfs::FileId f : requested) {
        replay_requests.emplace_back(f, e->sys->fs().SizeOf(f));
      }
      replay_budget = e->sys->cache().bytes();
      replay_gds =
          dynamic_cast<iolfs::GreedyDualSizePolicy*>(&e->sys->cache().policy()) != nullptr;
    }
    if (!out.traced) {
      windows += sink.window_ms().size();
      out.win_p50 = Percentile(sink.window_ms(), 50);
      out.win_p99 = Percentile(sink.window_ms(), 99);
      pending.insert(pending.end(), sink.pending().begin(), sink.pending().end());
    }
    (out.traced ? traced : untraced)++;
    episodes.push_back(std::move(out));
    e.reset();
    if (NowNs() >= deadline && untraced >= min_untraced && traced >= min_traced) {
      break;
    }
  }

  std::vector<double> setup, rps, rps_traced, run_s, win_p50, win_p99;
  uint64_t attempted = 0, failed = 0, traced_records = 0;
  for (const EpisodeOutcome& o : episodes) {
    setup.push_back(o.setup_s);
    attempted += o.requests;
    if (!o.failures.empty()) {
      failed += o.requests;
    }
    if (o.traced) {
      rps_traced.push_back(o.requests_per_s);
      traced_records += o.records;
    } else {
      rps.push_back(o.requests_per_s);
      run_s.push_back(o.run_s);
      win_p50.push_back(o.win_p50);
      win_p99.push_back(o.win_p99);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"short\": %s, ",
              args.workload.c_str(), args.seed, args.short_mode ? "true" : "false");
  std::printf("\"stamp\": {\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %ld}, ",
              PERFBENCH_BUILD_TYPE, __VERSION__, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("\"episodes\": %zu, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"digest\": \"%016" PRIx64 "\", \"windows\": %zu, \"window_requests\": %" PRIu64
              ", \"failures\": [",
              episodes.size(), attempted, failed, episodes.front().digest, windows,
              def->window);
  bool first_failure = true;
  for (size_t i = 0; i < episodes.size(); ++i) {
    for (const std::string& f : episodes[i].failures) {
      std::printf("%s\"episode %zu: %s\"", first_failure ? "" : ", ", i, f.c_str());
      first_failure = false;
    }
  }
  std::printf("], \"episode_requests_per_s\": [");
  for (size_t i = 0; i < episodes.size(); ++i) {
    std::printf("%s%.1f", i == 0 ? "" : ", ", episodes[i].requests_per_s);
  }
  std::printf("], \"e2e\": {");
  bool first = true;
  // The lower quartile of episode throughput: host speed drifts, and slow
  // episodes repeat more closely from run to run than the median does.
  PrintMetric(&first, "requests_per_s", Percentile(rps, 25));
  PrintMetric(&first, "window_ms_p99", Median(win_p99));
  PrintMetric(&first, "setup_s", Median(setup));
  PrintMetric(&first, "peak_rss_mb", ru.ru_maxrss / 1024.0);
  PrintMetric(&first, "sim_mbps", ref.result.megabits_per_sec);
  PrintMetric(&first, "sim_p99_ms", ref.result.latency.p99_ms);
  std::printf("}");

  if (args.trace) {
    const iolsim::SimStats& st = ref.stats;
    const double req = static_cast<double>(ref.records);
    const double host_ns = Median(run_s) * 1e9;
    const double cksum_lookups =
        static_cast<double>(st.checksum_cache_hits + st.checksum_cache_misses);
    const double cache_lookups = static_cast<double>(st.cache_hits + st.cache_misses);
    uint64_t inval_sent = 0, fetch_races = 0;
    for (const ioldrv::ExperimentResult::CdnLevelResult& l : ref.result.cdn_levels) {
      inval_sent += l.invalidations_sent;
      fetch_races += l.fetch_races;
    }
    ReplayInput in;
    in.pending_depth = static_cast<size_t>(Median(pending) + 0.5);
    in.checksum_bytes = static_cast<size_t>(Ratio(static_cast<double>(st.bytes_checksummed),
                                                  static_cast<double>(st.checksum_ops)));
    in.cksum_hit_ratio =
        cksum_lookups > 0 ? st.checksum_cache_hits / cksum_lookups : 0.5;
    in.disk_read_bytes = static_cast<size_t>(
        Ratio(static_cast<double>(st.disk_bytes_read), static_cast<double>(st.disk_reads)));
    in.requests = std::move(replay_requests);
    in.cache_budget = replay_budget;
    in.gds = replay_gds;
    in.buffer_bytes = in.disk_read_bytes > 0 ? in.disk_read_bytes : 4096;
    if (st.backhaul_bytes > 0 && st.proxy_cache_misses > 0) {
      in.dma_bytes = st.backhaul_bytes / st.proxy_cache_misses;
    }
    log.set_enabled(true);
    ReplayCost c = ReplayLayers(in, args.short_mode, &log);

    const double simos_ns = c.dispatch_ns * st.events_dispatched;
    const double net_ns = c.checksum_ns_per_kb * st.bytes_checksummed / 1024.0 +
                          c.cksum_cache_ns * cksum_lookups;
    const double fs_ns = c.disk_fill_ns_per_kb * st.disk_bytes_read / 1024.0 +
                         c.lookup_ns * cache_lookups + c.invalidate_ns * inval_sent;
    // Allocate calls (fresh carves plus free-list reuses), and the NIC fill
    // of every byte a proxy fetched over the backhaul.
    const double iolite_ns = c.alloc_ns * (st.buffers_allocated + st.buffers_recycled) +
                             c.dma_fill_ns_per_kb * st.backhaul_bytes / 1024.0;
    const double proxy_lookups = static_cast<double>(st.proxy_cache_hits + st.proxy_cache_misses);

    std::printf(", \"layers\": {");
    first = true;
    PrintMetric(&first, "simos.events_per_request", st.events_dispatched / req);
    PrintMetric(&first, "simos.events_per_s", Ratio(st.events_dispatched, Median(run_s)));
    PrintMetric(&first, "simos.pending_events_p50", Median(pending));
    PrintMetric(&first, "simos.dispatch_ns", c.dispatch_ns);
    PrintMetric(&first, "simos.cpu_util", ref.cpu_util);
    PrintMetric(&first, "simos.disk_util", ref.disk_util);
    PrintMetric(&first, "simos.link_util", ref.link_util);
    PrintMetric(&first, "net.segments_per_request", st.packets_sent / req);
    PrintMetric(&first, "net.checksum_kb_per_request", st.bytes_checksummed / 1024.0 / req);
    PrintMetric(&first, "net.cksum_cache_hit_ratio", Ratio(st.checksum_cache_hits, cksum_lookups));
    PrintMetric(&first, "net.cksum_cache_ns", c.cksum_cache_ns);
    PrintMetric(&first, "net.checksum_ns_per_kb", c.checksum_ns_per_kb);
    PrintMetric(&first, "fs.cache_hit_ratio", Ratio(st.cache_hits, cache_lookups));
    PrintMetric(&first, "fs.evictions_per_request", st.cache_evictions / req);
    PrintMetric(&first, "fs.disk_reads_per_request", st.disk_reads / req);
    PrintMetric(&first, "fs.disk_kb_per_request", st.disk_bytes_read / 1024.0 / req);
    PrintMetric(&first, "fs.disk_fill_ns_per_kb", c.disk_fill_ns_per_kb);
    PrintMetric(&first, "fs.lookup_ns", c.lookup_ns);
    PrintMetric(&first, "fs.invalidate_ns", c.invalidate_ns);
    PrintMetric(&first, "iolite.copy_ratio", Ratio(st.bytes_copied, st.bytes_sent));
    PrintMetric(&first, "iolite.buffers_allocated_per_request", st.buffers_allocated / req);
    PrintMetric(&first, "iolite.recycle_ratio", Ratio(st.buffers_recycled, st.buffers_allocated));
    PrintMetric(&first, "iolite.pages_mapped_per_request", st.pages_mapped / req);
    PrintMetric(&first, "iolite.alloc_ns", c.alloc_ns);
    PrintMetric(&first, "iolite.dma_fill_ns_per_kb", c.dma_fill_ns_per_kb);
    PrintMetric(&first, "driver.queue_wait_p99_ms", ref.queue_wait_p99_ms);
    PrintMetric(&first, "driver.service_p99_ms", ref.service_p99_ms);
    PrintMetric(&first, "driver.peak_concurrent", ref.result.peak_concurrent);
    PrintMetric(&first, "driver.hook_ns_per_request",
                Ratio(static_cast<double>(log.hook_ns()), static_cast<double>(traced_records)));
    PrintMetric(&first, "driver.window_ms_p50", Median(win_p50));
    PrintMetric(&first, "proxy.hit_ratio", Ratio(st.proxy_cache_hits, proxy_lookups));
    PrintMetric(&first, "proxy.backhaul_kb_per_request", st.backhaul_bytes / 1024.0 / req);
    PrintMetric(&first, "cdn.edge_hit_ratio",
                ref.result.cdn_levels.empty() ? 0 : ref.result.cdn_levels[0].hit_rate);
    PrintMetric(&first, "cdn.origin_fetches_per_request",
                Ratio(ref.result.origin_fleet_fetches, ref.result.requests));
    PrintMetric(&first, "cdn.invalidations_per_write", Ratio(inval_sent, ref.result.cdn_writes));
    PrintMetric(&first, "cdn.fetch_races", fetch_races);
    PrintMetric(&first, "simos.host_share", Ratio(simos_ns, host_ns));
    PrintMetric(&first, "net.host_share", Ratio(net_ns, host_ns));
    PrintMetric(&first, "fs.host_share", Ratio(fs_ns, host_ns));
    PrintMetric(&first, "iolite.host_share", Ratio(iolite_ns, host_ns));
    PrintMetric(&first, "unattributed_share",
                1.0 - Ratio(simos_ns + net_ns + fs_ns + iolite_ns, host_ns));
    PrintMetric(&first, "trace.overhead", 1.0 - Ratio(Median(rps_traced), Median(rps)));
    std::printf("}, \"spans_stored\": %zu, \"spans_dropped\": %" PRIu64, log.stored(),
                log.dropped());
    if (!args.spans_path.empty() && !log.WriteChromeJson(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
