// Shared pieces of the simulator benchmark: the host clock, the in-memory
// span log, the benchmark-owned Workload decorator and Telemetry sink, the
// four workload builders and the layer replays.
//
// Everything here drives the simulator from outside, through its public
// headers; nothing in src/ is instrumented.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cdn/write_plan.h"
#include "src/driver/cdn_tier.h"
#include "src/driver/experiment.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/httpd/http_server.h"
#include "src/system/system.h"
#include "src/workload/trace.h"

namespace perfbench {

// Host nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans kept in memory and written once, at exit, as Chrome trace-event
// JSON (Perfetto opens it). Each span has a name, start, end, parent and
// the simulated record index it belongs to (-1 outside a request). Past
// `capacity` stored spans, further spans are still timed (so the traced
// run pays their cost) but only counted.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span as a child of the innermost open one; End closes it.
  // `hook` marks host time spent in benchmark-owned callbacks
  // (driver.hook_ns_per_request).
  void Begin(const char* name, int64_t request, bool hook);
  void End();

  int64_t hook_ns() const { return hook_ns_; }
  size_t stored() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    int64_t request;
    int64_t start;
    uint32_t id;
    uint32_t parent;
    bool hook;
  };
  struct Span {
    const char* name;
    int64_t request;
    int64_t start;
    int64_t end;
    uint32_t id;
    uint32_t parent;
  };

  bool enabled_ = false;
  size_t capacity_;
  uint32_t next_id_ = 1;  // 0 = no parent.
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  int64_t hook_ns_ = 0;
};

// RAII span; free when the log is absent or disabled.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int64_t request = -1, bool hook = false)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) {
      log_->Begin(name, request, hook);
    }
  }
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->End();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

// Telemetry sink that reads the steady clock every `window` counted
// records: the host time of each window, the timed phase (first to last
// counted record, i.e. after setup and warmup) and the event-queue depth
// at each window boundary.
class WindowSink : public ioldrv::Telemetry {
 public:
  WindowSink(uint64_t window, const iolsim::EventQueue* events, SpanLog* log)
      : window_(window), events_(events), log_(log) {}

  const std::vector<double>& window_ms() const { return window_ms_; }
  const std::vector<double>& pending() const { return pending_; }
  // Counted requests per host second between the first and last counted
  // record (0 with fewer than two).
  double RequestsPerSecond() const;

 protected:
  void OnRecord(const ioldrv::RequestRecord& rec) override;

 private:
  uint64_t window_;
  const iolsim::EventQueue* events_;
  SpanLog* log_;
  uint64_t counted_ = 0;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
  int64_t window_start_ns_ = 0;
  std::vector<double> window_ms_;
  std::vector<double> pending_;
};

// Forwards every Workload callback to `inner`, inside a span when the log
// is enabled. The request id is the index the next record will get.
// Files it pins are appended to `files` (the layer replay's request
// stream), up to its capacity.
class TracedWorkload : public ioldrv::Workload {
 public:
  TracedWorkload(ioldrv::Workload* inner, SpanLog* log, const ioldrv::Telemetry* sink,
                 std::vector<iolfs::FileId>* files)
      : inner_(inner), log_(log), sink_(sink), files_(files) {}

  const char* name() const override { return inner_->name(); }
  int initial_clients() const override { return inner_->initial_clients(); }
  int pipeline_depth() const override { return inner_->pipeline_depth(); }
  bool closed_loop() const override { return inner_->closed_loop(); }
  bool NextArrival(iolsim::SimTime now, iolsim::SimTime* at) override {
    SpanScope s(log_, "workload.NextArrival", Req(), true);
    return inner_->NextArrival(now, at);
  }
  iolsim::TenantId TenantOf(size_t client, uint64_t issue_seq) override {
    SpanScope s(log_, "workload.TenantOf", Req(), true);
    return inner_->TenantOf(client, issue_seq);
  }
  bool NextFile(iolfs::FileId* file) override {
    SpanScope s(log_, "workload.NextFile", Req(), true);
    bool pinned = inner_->NextFile(file);
    if (pinned && files_->size() < files_->capacity()) {
      files_->push_back(*file);
    }
    return pinned;
  }
  bool PinMember(size_t client, size_t* member) override {
    SpanScope s(log_, "workload.PinMember", Req(), true);
    return inner_->PinMember(client, member);
  }
  void Reset() override {
    SpanScope s(log_, "workload.Reset", Req(), true);
    inner_->Reset();
  }

 private:
  int64_t Req() const { return static_cast<int64_t>(sink_->records().size()); }

  ioldrv::Workload* inner_;
  SpanLog* log_;
  const ioldrv::Telemetry* sink_;
  std::vector<iolfs::FileId>* files_;
};

// One fully built run of a workload: machine, servers, generated inputs and
// the experiment (or CDN tier) that runs them. Members are declared so the
// System outlives everything that points into it.
struct Episode {
  std::unique_ptr<iolsys::System> sys;
  std::vector<std::unique_ptr<iolhttp::HttpServer>> servers;
  std::unique_ptr<iolwl::Trace> trace;
  std::vector<iolfs::FileId> ids;
  std::unique_ptr<iolsim::Rng> pick_rng;
  std::unique_ptr<ioldrv::Workload> workload;
  ioldrv::Experiment::RequestSource source;
  std::unique_ptr<ioldrv::Experiment> experiment;
  std::unique_ptr<ioldrv::CdnTier> tier;
  std::unique_ptr<iolcdn::WritePlan> writes;
  uint64_t target = 0;  // Counted completions the run must reach.
  // CDN only: the slowest invalidation's propagation delay, in ms.
  double ack_bound_ms = 0;

  ioldrv::ExperimentResult Run(ioldrv::Workload* w, ioldrv::Experiment::RequestSource src,
                               ioldrv::Telemetry* sink) {
    return tier ? tier->Run(w, std::move(src), sink)
                : experiment->Run(w, std::move(src), sink);
  }
};

struct WorkloadDef {
  const char* name;
  // Builds the machine, servers, inputs and experiment for `seed`.
  void (*build)(Episode* e, uint64_t seed, uint64_t warmup, SpanLog* log);
  uint64_t episode_requests;   // Counted completions per episode.
  uint64_t short_requests;     // The same, in --short mode.
  uint64_t warmup;             // Completions before counting starts.
  uint64_t window;             // Counted records per host-time window.
};

// The four workloads, in BENCHMARK.json order; null for an unknown name.
const WorkloadDef* FindWorkload(const std::string& name);

// Builds one episode; the setup phases are spans on `log`.
std::unique_ptr<Episode> BuildEpisode(const WorkloadDef& def, uint64_t seed,
                                      bool short_mode, SpanLog* log);

// Order-sensitive fold of the record stream, the final simulated clock and
// every SimStats counter.
uint64_t Digest(const ioldrv::Telemetry& sink, iolsim::SimTime final_clock,
                const iolsim::SimStats& stats);

// --- Layer replay ---------------------------------------------------------
// Re-issues a run's operation mix through each layer's public hot function
// on a private machine and returns host nanoseconds per operation.

struct ReplayInput {
  size_t pending_depth = 1;         // Event-queue depth to dispatch at.
  size_t checksum_bytes = 1024;     // Mean bytes per checksum operation.
  double cksum_hit_ratio = 0.5;     // Checksum-cache hits per lookup.
  size_t disk_read_bytes = 4096;    // Mean bytes per disk read.
  // The files one traced episode requested, in order, with their sizes:
  // replayed through a file cache of the run's policy and final size.
  std::vector<std::pair<iolfs::FileId, size_t>> requests;
  uint64_t cache_budget = 0;
  bool gds = true;                  // The run's file cache used GDS.
  size_t buffer_bytes = 4096;       // Mean bytes per pool allocation.
  size_t dma_bytes = 16384;         // Mean bytes per proxy fetch (NIC fill).
};

struct ReplayCost {
  double dispatch_ns = 0;           // ScheduleAt + RunOne, per event.
  double checksum_ns_per_kb = 0;    // ChecksumModule::Checksum, per KB.
  double cksum_cache_ns = 0;        // ChecksumCache Lookup (+Store), per lookup.
  double disk_fill_ns_per_kb = 0;   // SimFileSystem::ReadFromDisk, per KB.
  double lookup_ns = 0;             // FileCache Lookup (+Insert+EnforceBudget), per lookup.
  double invalidate_ns = 0;         // FileCache::InvalidateOlderThan, per call.
  double alloc_ns = 0;              // BufferPool Allocate + release, per call.
  double dma_fill_ns_per_kb = 0;    // BufferPool::AllocateDma, per KB.
};

ReplayCost ReplayLayers(const ReplayInput& in, bool short_mode, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
