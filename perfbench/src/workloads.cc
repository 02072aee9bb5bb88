// The four workloads, the span log and the benchmark's Telemetry sink.
//
// Every workload is a closed loop over simulated clients (simulator
// objects, not host threads), so one process on one thread makes the load.
// The seed feeds every random input: the trace spec and trace-pick RNG,
// the CDN populations and the origin write plan. The two single-file
// workloads have no random input and ignore it.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness.h"
#include "src/cdn/cdn_topology.h"
#include "src/driver/edge_mix.h"

namespace perfbench {
namespace {


uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  iolsim::Rng rng(seed * 0x100000001b3ull + stream);
  return rng.Next();
}

iolsys::SystemOptions LiteOptions() {
  iolsys::SystemOptions o;
  o.policy = iolsys::SystemOptions::Policy::kGds;
  o.checksum_cache = true;
  return o;
}

std::unique_ptr<iolhttp::HttpServer> LiteServer(iolsys::System* sys) {
  return std::make_unique<iolhttp::FlashLiteServer>(&sys->ctx(), &sys->net(), &sys->io(),
                                                    &sys->runtime());
}

void BuildSingleFile(Episode* e, bool lite, size_t doc_bytes, bool persistent, int clients,
                     uint64_t warmup, SpanLog* log) {
  {
    SpanScope s(log, "setup.system");
    iolsys::SystemOptions o = LiteOptions();
    if (!lite) {
      // Copy-based Flash: the kernel's default policy and no checksum
      // cache (its private copies carry no buffer identity to key on).
      o.policy = iolsys::SystemOptions::Policy::kPaperLru;
      o.checksum_cache = false;
    }
    e->sys = std::make_unique<iolsys::System>(o);
  }
  iolfs::FileId doc;
  {
    SpanScope s(log, "setup.materialize");
    doc = e->sys->fs().CreateFile("doc", doc_bytes);
  }
  SpanScope s(log, "setup.tier");
  iolsys::System* sys = e->sys.get();
  if (lite) {
    e->servers.push_back(LiteServer(sys));
  } else {
    e->servers.push_back(
        std::make_unique<iolhttp::FlashServer>(&sys->ctx(), &sys->net(), &sys->io()));
  }
  ioldrv::ExperimentConfig config;
  config.persistent_connections = persistent;
  config.max_requests = e->target;
  config.warmup_requests = warmup;
  e->workload = std::make_unique<ioldrv::ClosedLoop>(clients);
  e->source = [doc] { return doc; };
  e->experiment = std::make_unique<ioldrv::Experiment>(
      &sys->ctx(), &sys->net(), &sys->cache(), e->servers.back().get(), config);
}

void BuildStaticLite(Episode* e, uint64_t /*seed*/, uint64_t warmup, SpanLog* log) {
  BuildSingleFile(e, /*lite=*/true, 50 * 1024, /*persistent=*/false, 40, warmup, log);
}

void BuildChurnFlash(Episode* e, uint64_t /*seed*/, uint64_t warmup, SpanLog* log) {
  BuildSingleFile(e, /*lite=*/false, 1024, /*persistent=*/true, 60, warmup, log);
}

// Flash-Lite replaying a generated MERGED-spec trace: 37,703 files and
// 1.4 GB of data against 128 MB of simulated RAM, GDS, the cache budget
// enforced, 64 clients picking trace entries at random.
void BuildTrace(Episode* e, uint64_t seed, uint64_t warmup, SpanLog* log) {
  {
    SpanScope s(log, "setup.system");
    e->sys = std::make_unique<iolsys::System>(LiteOptions());
  }
  {
    SpanScope s(log, "setup.generate");
    iolwl::TraceSpec spec = iolwl::MergedSpec();
    spec.seed = SubSeed(seed, 1);
    e->trace = std::make_unique<iolwl::Trace>(iolwl::Trace::Generate(spec));
  }
  {
    SpanScope s(log, "setup.materialize");
    e->ids = e->trace->Materialize(&e->sys->fs());
  }
  SpanScope s(log, "setup.tier");
  iolsys::System* sys = e->sys.get();
  e->servers.push_back(LiteServer(sys));
  ioldrv::ExperimentConfig config;
  config.persistent_connections = false;
  config.max_requests = e->target;
  config.warmup_requests = warmup;
  config.enforce_cache_budget = true;
  e->workload = std::make_unique<ioldrv::ClosedLoop>(64);
  e->pick_rng = std::make_unique<iolsim::Rng>(SubSeed(seed, 2));
  const std::vector<uint32_t>* reqs = &e->trace->requests();
  const std::vector<iolfs::FileId>* ids = &e->ids;
  iolsim::Rng* rng = e->pick_rng.get();
  e->source = [reqs, ids, rng] { return (*ids)[(*reqs)[rng->NextBelow(reqs->size())]]; };
  e->experiment = std::make_unique<ioldrv::Experiment>(
      &sys->ctx(), &sys->net(), &sys->cache(), e->servers.back().get(), config);
}

// The 3-level tree of the CDN hierarchy figure: 4 edges -> 2 regionals ->
// 1 top over 2 Flash-Lite origins, the edge-heavy budget split, three metro
// populations plus a flooder, the invalidate protocol, and seeded Poisson
// origin writes at 800/s biased toward the metros' low (hot) file ids.
constexpr int kMetros = 3;
constexpr int kMetroDocs = 16;
constexpr int kMetroHot = 12;
constexpr int kFlooderDocs = 512;
constexpr uint64_t kCdnDocBytes = 16 * 1024;
constexpr uint64_t kCdnBudget = 3 * 512 * 1024;

void BuildCdn(Episode* e, uint64_t seed, uint64_t warmup, SpanLog* log) {
  {
    SpanScope s(log, "setup.system");
    iolsys::SystemOptions o = LiteOptions();
    o.cost.cpu_count = 2;
    o.cost.disk_count = 2;
    e->sys = std::make_unique<iolsys::System>(o);
  }
  {
    SpanScope s(log, "setup.materialize");
    for (int i = 0; i < kMetros * kMetroDocs + kFlooderDocs; ++i) {
      e->ids.push_back(e->sys->fs().CreateFile("doc" + std::to_string(i), kCdnDocBytes));
    }
  }
  SpanScope s(log, "setup.tier");
  iolsys::System* sys = e->sys.get();
  std::vector<iolhttp::HttpServer*> members;
  for (int i = 0; i < 2; ++i) {
    e->servers.push_back(LiteServer(sys));
    members.push_back(e->servers.back().get());
  }
  iolcdn::CdnTopology topo;
  const int counts[3] = {4, 2, 1};
  const double share[3] = {0.6, 0.3, 0.1};
  for (int l = 0; l < 3; ++l) {
    iolcdn::CdnLevelSpec spec;
    spec.count = counts[l];
    spec.cache_bytes = static_cast<uint64_t>(kCdnBudget * share[l] / counts[l]);
    topo.levels.push_back(spec);
  }
  for (const iolcdn::CdnLevelSpec& l : topo.levels) {
    e->ack_bound_ms += static_cast<double>(l.link_one_way_delay) / iolsim::kMillisecond;
  }
  topo.protocol = iolproxy::ConsistencyMode::kInvalidate;
  topo.ttl = 40 * iolsim::kMillisecond;
  iolproxy::ProxyConfig pc;
  pc.data_path = iolproxy::ProxyDataPath::kIoLite;
  pc.backhaul = iolproxy::BackhaulMode::kRemote;
  ioldrv::ExperimentConfig config;
  config.persistent_connections = true;
  config.max_requests = e->target;
  config.warmup_requests = warmup;
  e->tier = std::make_unique<ioldrv::CdnTier>(&sys->ctx(), &sys->net(), &sys->io(),
                                              &sys->runtime(), ioldrv::Fleet(members), topo,
                                              pc, config);
  iolcdn::WritePlanSpec wspec;
  wspec.writes_per_sec = 800;
  wspec.num_files = kMetros * kMetroDocs + 1;  // File ids start at 1.
  wspec.hot_bias = 0.5;
  wspec.seed = SubSeed(seed, 3);
  e->writes = std::make_unique<iolcdn::WritePlan>(&sys->ctx(), &e->tier->authority(), wspec);
  e->tier->set_write_plan(e->writes.get());

  std::vector<ioldrv::EdgePopulationSpec> pops;
  const std::vector<iolfs::FileId>* ids = &e->ids;
  for (int m = 0; m < kMetros; ++m) {
    auto rng = std::make_shared<iolsim::Rng>(SubSeed(seed, 10 + m));
    size_t lo = static_cast<size_t>(m) * kMetroDocs;
    pops.push_back({"metro-" + std::to_string(m), 2, [rng, ids, lo]() -> iolfs::FileId {
                      double u = rng->NextDouble();
                      size_t r = static_cast<size_t>(u * u * u * kMetroHot);
                      return (*ids)[lo + (r >= kMetroHot ? kMetroHot - 1 : r)];
                    }});
  }
  auto rng = std::make_shared<iolsim::Rng>(SubSeed(seed, 20));
  size_t flood_lo = static_cast<size_t>(kMetros) * kMetroDocs;
  pops.push_back({"flooder", 6, [rng, ids, flood_lo]() -> iolfs::FileId {
                    return (*ids)[flood_lo + rng->NextBelow(kFlooderDocs)];
                  }});
  e->workload = std::make_unique<ioldrv::EdgeMix>(std::move(pops));
  iolfs::FileId first = e->ids[0];
  e->source = [first] { return first; };
}

// Episodes last half a second to a second and a half on a 4-core x86 host,
// so a run holds a dozen or more and its medians damp host noise. The CDN
// episode is the longest because its simulated throughput depends most on
// the seed's population draws, and a longer run averages them. Each
// episode's windows number at least 1000, so its p99 window has at least
// ten samples beyond it. The trace warmup fills the 128 MB cache first, so
// counting starts in the eviction regime.
constexpr WorkloadDef kWorkloads[] = {
    // name, build, episode_requests, short_requests, warmup, window
    {"static_lite_50k", BuildStaticLite, 100'000, 6'000, 1'000, 100},
    {"churn_flash_1k", BuildChurnFlash, 400'000, 40'000, 1'000, 400},
    {"trace_merged", BuildTrace, 20'000, 3'000, 8'000, 20},
    {"cdn_invalidate", BuildCdn, 15'000, 1'000, 1'000, 15},
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
  return h * 0xff51afd7ed558ccdull;
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::unique_ptr<Episode> BuildEpisode(const WorkloadDef& def, uint64_t seed,
                                      bool short_mode, SpanLog* log) {
  auto e = std::make_unique<Episode>();
  e->target = short_mode ? def.short_requests : def.episode_requests;
  def.build(e.get(), seed, def.warmup, log);
  return e;
}

uint64_t Digest(const ioldrv::Telemetry& sink, iolsim::SimTime final_clock,
                const iolsim::SimStats& stats) {
  uint64_t h = 1469598103934665603ull;
  for (const ioldrv::RequestRecord& r : sink.records()) {
    h = Mix(h, static_cast<uint64_t>(r.issue));
    h = Mix(h, static_cast<uint64_t>(r.admit));
    h = Mix(h, static_cast<uint64_t>(r.complete));
    h = Mix(h, r.bytes);
    h = Mix(h, r.server);
    h = Mix(h, static_cast<uint64_t>(r.outcome));
    h = Mix(h, r.cache_hit ? 1 : 0);
    h = Mix(h, r.counted ? 1 : 0);
  }
  h = Mix(h, static_cast<uint64_t>(final_clock));
  static_assert(sizeof(iolsim::SimStats) % sizeof(uint64_t) == 0,
                "SimStats is a block of uint64_t counters");
  uint64_t words[sizeof(iolsim::SimStats) / sizeof(uint64_t)];
  std::memcpy(words, &stats, sizeof(words));
  for (uint64_t w : words) {
    h = Mix(h, w);
  }
  return h;
}

// --- SpanLog ----------------------------------------------------------------

void SpanLog::Begin(const char* name, int64_t request, bool hook) {
  uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Open{name, request, NowNs(), next_id_++, parent, hook});
}

void SpanLog::End() {
  int64_t end = NowNs();
  const Open& o = stack_.back();
  if (o.hook) {
    hook_ns_ += end - o.start;
  }
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{o.name, o.request, o.start, end, o.id, o.parent});
  } else {
    ++dropped_;
  }
  stack_.pop_back();
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) {
    t0 = s.start < t0 ? s.start : t0;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"dropped_spans\": %" PRIu64
                  "}, \"traceEvents\": [",
               dropped_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u, "
                 "\"request\": %" PRId64 "}}",
                 i == 0 ? "" : ",", s.name, (s.start - t0) / 1e3, (s.end - s.start) / 1e3,
                 s.id, s.parent, s.request);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- WindowSink -------------------------------------------------------------

double WindowSink::RequestsPerSecond() const {
  if (counted_ < 2 || last_ns_ <= first_ns_) {
    return 0;
  }
  return static_cast<double>(counted_ - 1) / ((last_ns_ - first_ns_) / 1e9);
}

void WindowSink::OnRecord(const ioldrv::RequestRecord& rec) {
  SpanScope s(log_, "telemetry.OnRecord", static_cast<int64_t>(records().size()) - 1, true);
  if (!rec.counted) {
    return;
  }
  int64_t now = NowNs();
  if (counted_++ == 0) {
    first_ns_ = now;
    window_start_ns_ = now;
  } else if ((counted_ - 1) % window_ == 0) {
    window_ms_.push_back((now - window_start_ns_) / 1e6);
    pending_.push_back(static_cast<double>(events_->size()));
    window_start_ns_ = now;
  }
  last_ns_ = now;
}

}  // namespace perfbench
