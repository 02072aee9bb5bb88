// Experiment: the engine composing the three orthogonal experiment axes —
// Workload (arrival process) x Fleet (servers + balancer) x Telemetry
// (per-request records) — over the staged request pipeline.
//
// The engine owns the client population: it issues requests per the
// Workload, spreads them over the Fleet's members (queueing — never
// dropping — when ExperimentConfig::max_concurrent caps a member's
// concurrency), lets each member's staged pipeline acquire CPU/disk/link
// as stages run, delivers responses in per-connection issue order
// (HTTP/1.1 pipelining head-of-line blocking), and timestamps every
// request for the Telemetry sink. One Run per Experiment instance: a
// second Run would reuse stale lane/counter state and dies loudly instead.

#ifndef SRC_DRIVER_EXPERIMENT_H_
#define SRC_DRIVER_EXPERIMENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/fleet.h"
#include "src/driver/telemetry.h"
#include "src/driver/workload.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"
#include "src/fs/file_cache.h"
#include "src/httpd/http_server.h"
#include "src/httpd/request_pipeline.h"
#include "src/net/tcp.h"
#include "src/simos/event_queue.h"
#include "src/simos/sim_context.h"

namespace iolqos {
class QosPolicy;
}  // namespace iolqos

namespace ioldrv {

// Knobs orthogonal to all three axes: how much to measure, the network
// between clients and fleet, and per-member admission policy.
struct ExperimentConfig {
  // Stop after this many counted (post-warmup) request completions. A
  // replayed log may end first; the run then counts what completed.
  uint64_t max_requests = 20000;
  // Completions ignored at the start (cold caches, cold mappings).
  uint64_t warmup_requests = 0;
  bool persistent_connections = false;
  iolnet::DelayRouter delay;
  // Cap on concurrently served connections per fleet member (Apache
  // process model); 0 = off. Excess arrivals wait in that member's FIFO
  // accept queue — they are never dropped.
  int max_concurrent = 0;
  // Enforce the file-cache byte budget from the memory model after each
  // request (trace experiments). Off for single-file tests.
  bool enforce_cache_budget = false;
  // OS threads executing the sharded engine (ShardedExperiment only; the
  // classic single-context Experiment ignores it). The lane topology —
  // one lane per fleet member plus the frontend — is fixed by the fleet,
  // so any shard_count produces byte-identical telemetry; this knob only
  // changes how many lanes run concurrently.
  int shard_count = 1;
  // Multi-tenant QoS policy plane (src/qos; classic Experiment only). When
  // set, the engine classifies every request at issue time, fires the
  // on_admit stage hook at the fleet front door (token-bucket delays are
  // honored before the balancer runs), establishes the owning tenant on
  // the SimContext for each serve, and fills ExperimentResult::tenants.
  // Null runs the exact pre-QoS code paths. Not owned.
  iolqos::QosPolicy* qos = nullptr;
  // Fixed file-cache byte budget enforced after each completion (0 = off;
  // independent of enforce_cache_budget's memory-model budget). The
  // adversarial cache-pressure scenarios pin the budget explicitly.
  uint64_t cache_budget_bytes = 0;
  // Deterministic fault plan (src/fault; classic Experiment only). The
  // engine arms member crash/restart flips on the event queue and device
  // degradation windows on the context's disk/link Resources before the
  // run starts; backhaul flaps are armed by the proxy's owner instead (the
  // engine has no proxy handle). Null — or an EMPTY plan — leaves every
  // code path untouched: the golden determinism tests pin byte-identity.
  // Not owned. A plan containing member crashes requires the recovery
  // plane below (a black-holed request would otherwise hang the run).
  const iolfault::FaultPlan* faults = nullptr;
  // Recovery policy: per-request timeout, capped-backoff retries, hedged
  // requests, health-check balancer ejection. Inert (and byte-identical to
  // the pre-fault engine) unless recovery.enabled(). Recovery mode
  // requires pipeline_depth == 1: an abandoned attempt's connection is
  // dead, which is unrepresentable mid-pipeline.
  iolfault::RecoveryConfig recovery;
};

// Per-member slice of the run (who served what, how concurrently).
struct ServerShare {
  uint64_t requests = 0;  // Counted completions served by this member.
  uint64_t bytes = 0;
  int peak_concurrent = 0;
};

// Per-tenant slice of the result (multi-tenant runs; see
// ExperimentConfig::qos). The two hit metrics answer different questions:
// cache_hit_fraction is the per-request flag over the counted window, while
// cache_hit_rate is this tenant's whole-run unified-cache lookup rate from
// the QoS policy's per-tenant counters — the aggregate cache_hit_rate below
// can no longer mask one tenant's hit-rate collapse behind another's scan.
struct TenantBreakdown {
  iolsim::TenantId tenant = iolsim::kDefaultTenant;
  std::string name;        // Registry name when a policy is attached.
  uint64_t requests = 0;   // Counted completions.
  uint64_t bytes = 0;
  LatencySummary latency;  // End-to-end, counted records only.
  double cache_hit_fraction = 0;
  double cache_hit_rate = 0;
};

// The structured result: throughput counters plus the latency distribution,
// overall and per fleet member.
struct ExperimentResult {
  uint64_t requests = 0;
  uint64_t bytes = 0;
  double seconds = 0;
  double megabits_per_sec = 0;
  // Machine-wide cache hit rate over the WHOLE run, warmup included —
  // deliberately the old DriverResult semantics (the trace figures' hit
  // columns report the machine's cache behavior, cold start and all).
  double cache_hit_rate = 0;
  // Fraction of counted requests whose body came from the cache — the
  // same measurement window as `latency`; use this when correlating hit
  // behavior with percentiles.
  double cache_hit_fraction = 0;
  // High-water mark of concurrently served requests, fleet-wide.
  int peak_concurrent = 0;
  // Arrivals that had to wait in an accept queue (max_concurrent).
  uint64_t admission_waits = 0;
  // End-to-end latency (issue to last response byte) of counted requests.
  LatencySummary latency;
  std::vector<ServerShare> per_server;
  // Per-tenant breakdown, ordered by tenant id. Empty for single-tenant
  // runs with no QoS policy attached (every pre-QoS bench), so existing
  // JSON rows are unchanged.
  std::vector<TenantBreakdown> tenants;

  // Proxy-tier fields (filled by ProxyTier; zero for single-tier runs, and
  // serialized on every JsonReporter row so BENCH_*.json schemas are
  // uniform across figures). Hit rates cover the whole run, like
  // cache_hit_rate above.
  double proxy_hit_rate = 0;
  double origin_hit_rate = 0;
  // Payload fetched over the backhaul, and the subset of it a copy-based
  // proxy memcpy'd into its private cache on arrival. A warm co-located
  // IO-Lite run reports 0 for both.
  uint64_t backhaul_bytes = 0;
  uint64_t bytes_copied_backhaul = 0;
  // Backhaul fetch latency (proxy miss to object resident at the proxy).
  LatencySummary origin_latency;
  // Instant the measurement window opened (the warmup-th completion; 0
  // when warmup_requests == 0). ProxyTier classifies backhaul fetches
  // against the same window result.latency uses.
  iolsim::SimTime count_start = 0;

  // Host-side performance of the run (not simulated quantities): wall-clock
  // time spent inside Run and events dispatched by the engine. JsonReporter
  // emits these on every bench row so BENCH_*.json files carry a wall-clock
  // trajectory; simulated results must never depend on them.
  double wall_ms = 0;
  uint64_t events_dispatched = 0;

  // Fault-plane accounting (src/fault), over the counted window. Fault-free
  // runs report availability 1, error_rate 0, goodput == megabits_per_sec,
  // and zeros elsewhere — JsonReporter emits the first four on every row so
  // BENCH_*.json schemas stay uniform. goodput counts delivered bytes only;
  // failed requests contribute requests (the denominator) but no bytes, so
  // goodput < megabits-at-the-wire whenever work is wasted on lost serves.
  double availability = 1.0;
  double error_rate = 0.0;
  uint64_t retries = 0;            // Retry attempts issued.
  uint64_t hedges = 0;             // Hedged duplicates issued.
  double goodput_mbps = 0;
  uint64_t failed_requests = 0;    // Counted kTimedOut/kFailed outcomes.
  uint64_t response_drops = 0;     // Responses lost to member crashes.
  uint64_t blackholed_arrivals = 0;  // Arrivals routed to a down member.
  uint64_t health_ejections = 0;   // Health-checker ejection transitions.

  // --- CDN hierarchy (src/cdn; filled by CdnTier, empty otherwise) --------
  // One entry per hierarchy level, index 0 = the edge tier. Mirrors the
  // SimStats::cdn[] counter block, summed over the run's window.
  struct CdnLevelResult {
    int proxies = 0;           // Proxies at this level.
    double hit_rate = 0;       // Level-local cache hit rate.
    uint64_t backhaul_bytes = 0;
    uint64_t stale_serves = 0;
    uint64_t invalidations_sent = 0;
    uint64_t invalidations_applied = 0;
    uint64_t revalidations = 0;
    uint64_t revalidation_bytes = 0;
    uint64_t fetch_races = 0;
    uint64_t shaper_holds = 0;
  };
  std::vector<CdnLevelResult> cdn_levels;
  // Per-edge client-population slice (requests pin to their edge via
  // Workload::PinMember; per_server above carries the same edge indices).
  struct EdgeBreakdown {
    uint64_t requests = 0;
    uint64_t bytes = 0;
    LatencySummary latency;
    double cache_hit_fraction = 0;
  };
  std::vector<EdgeBreakdown> edges;
  // Staleness ages of every stale serve in the hierarchy (the "ms" fields
  // summarize ages, not latencies). Zero-count when nothing was stale.
  LatencySummary staleness;
  uint64_t stale_serves = 0;
  uint64_t cdn_writes = 0;       // Origin writes the write plan applied.
  // Load that reached the origin fleet: fetches issued by the top proxy
  // level — the number the hierarchy exists to shrink.
  uint64_t origin_fleet_fetches = 0;
};

class Experiment {
 public:
  // Returns the file to request next; shared across clients, called in
  // service order. Ignored for arrivals whose Workload pins the file
  // (trace replay).
  using RequestSource = std::function<iolfs::FileId()>;

  Experiment(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
             iolfs::FileCache* cache, Fleet fleet, ExperimentConfig config)
      : ctx_(ctx), net_(net), cache_(cache), fleet_(std::move(fleet)),
        config_(config) {}

  // Single-server convenience.
  Experiment(iolsim::SimContext* ctx, iolnet::NetworkSubsystem* net,
             iolfs::FileCache* cache, iolhttp::HttpServer* server,
             ExperimentConfig config)
      : Experiment(ctx, net, cache, Fleet::Single(server), config) {}

  // Runs `workload` to completion. Per-request records go to `sink` when
  // given, else to the internal Telemetry (see telemetry()). Fatal on a
  // second call: the engine's lanes and counters are single-run state.
  ExperimentResult Run(Workload* workload, RequestSource next_file,
                       Telemetry* sink = nullptr);

  // The sink the last Run recorded into.
  const Telemetry& telemetry() const { return *telemetry_; }

  Fleet& fleet() { return fleet_; }

  // Whether the run has hit its completion target. Self-rescheduling
  // background event sources (the CDN write plan) consult this to stop
  // re-arming — Run drains the queue after done_, and an event that always
  // schedules a successor would keep the drain alive forever.
  bool finished() const { return done_; }

 private:
  // One request slot: a connection (shared by a client's pipelined lanes)
  // plus the in-flight request state. Lives in a deque so addresses stay
  // stable when the open-loop pool grows, with block-contiguous storage
  // (the per-completion hot path walks lane state five times per request).
  struct Lane {
    iolnet::TcpConnection* conn = nullptr;
    size_t conn_index = 0;
    uint64_t seq = 0;        // Issue order on this lane's connection.
    size_t server = 0;       // Fleet member chosen at arrival.
    bool has_pinned_file = false;
    iolfs::FileId pinned_file = iolfs::kInvalidFile;
    RequestRecord record;
    iolhttp::RequestContext req;

    // --- Recovery plane (src/fault; untouched unless recovery.enabled()).
    // A logical request is a "flight"; its state lives on the lane of the
    // current primary attempt (the owner). Retries MIGRATE the flight to a
    // fresh lane/connection; hedges spawn a parallel attempt lane pointing
    // back at the owner via flight_owner. Every non-limbo lane is held by
    // exactly one pending continuation (arrival event, QoS hold, accept
    // queue slot, pipeline on_done, or delivery event), which is what
    // recycles it once it goes zombie; limbo lanes are held by nothing and
    // are reclaimed by the flight's timeout.
    uint32_t flight_owner = kNoLane;  // Set on hedge attempts only.
    uint32_t hedge_lane = kNoLane;    // Owner: outstanding hedge attempt.
    iolsim::EventQueue::EventId timeout_ev = kNoEvent;  // Owner only.
    iolsim::EventQueue::EventId hedge_ev = kNoEvent;    // Owner only.
    uint32_t serve_epoch = 0;  // Member crash epoch at serve start.
    uint8_t attempts = 1;      // Issues of this flight (1 + retries).
    uint8_t retries_used = 0;
    bool zombie = false;  // Abandoned attempt: swallow its completion, recycle.
    bool limbo = false;   // No continuation holds this lane (black-holed).
  };

  // Per-connection pipelining state: responses are delivered to the client
  // in request-issue order even when the staged pipeline completes them
  // out of order.
  struct ConnState {
    uint64_t next_issue = 0;
    uint64_t next_deliver = 0;
    // Completed out-of-order responses waiting for their turn: seq ->
    // (lane, bytes).
    std::map<uint64_t, std::pair<size_t, size_t>> done_out_of_order;
  };

  static constexpr uint32_t kNoLane = UINT32_MAX;
  static constexpr iolsim::EventQueue::EventId kNoEvent = ~0ull;

  size_t AddLane(size_t conn_index);
  void AddConnection();
  // Recomputes the steady-state memory the client population pins, for the
  // current pool size (open-loop growth re-runs this).
  void UpdateSteadyMemory();
  // Client issues: the request propagates to the fleet (one-way delay).
  void IssueRequest(size_t lane);
  // Request reaches the fleet: the on_admit stage hook may delay it
  // (token-bucket throttling), then the balancer picks a member; admitted
  // now or queued behind that member's max_concurrent.
  void ArriveAtFleet(size_t lane);
  void AdmitToFleet(size_t lane);
  void ServeRequest(size_t lane);
  void OnServerDone(size_t lane);
  void OnClientReceive(size_t lane, size_t bytes);
  // Serves queued waiters while the member has capacity (the per-completion
  // pop, and the post-restart kick), skipping zombie entries.
  void DrainAcceptQueue(size_t s);
  void ScheduleNextArrival();
  uint64_t CacheBudget() const;

  // --- Fault plane (src/fault) ------------------------------------------
  void ArmFaults();
  void CrashMember(size_t m);
  void RestartMember(size_t m, bool cold_cache);
  void RunHealthProbe();
  // Flight lifecycle (recovery mode only).
  void ArmFlightTimers(size_t lane, iolsim::SimTime extra_delay);
  void CancelFlightTimers(size_t lane);
  void OnRequestTimeout(size_t lane);
  void FireHedge(size_t lane);
  void DeliverFlight(size_t lane, size_t bytes);
  size_t AcquireAttemptLane();
  void RecycleLane(size_t lane);
  // Marks an attempt abandoned; reclaims it immediately when nothing holds
  // it (limbo), else its pending continuation swallows and recycles it.
  void AbandonAttempt(size_t lane);

  iolsim::SimContext* ctx_;
  iolnet::NetworkSubsystem* net_;
  iolfs::FileCache* cache_;
  Fleet fleet_;
  ExperimentConfig config_;
  Workload* workload_ = nullptr;
  RequestSource next_file_;
  Telemetry own_telemetry_;
  // Points at own_telemetry_ until Run is handed an external sink, so
  // telemetry() is always safe to call.
  Telemetry* telemetry_ = &own_telemetry_;

  std::vector<std::unique_ptr<iolnet::TcpConnection>> conns_;
  std::vector<ConnState> conn_state_;
  std::deque<Lane> lanes_;
  std::vector<size_t> free_lanes_;  // Open loop: idle pool entries.

  // Per fleet member.
  std::vector<std::deque<size_t>> accept_queues_;
  std::vector<int> in_service_per_;
  std::vector<ServerShare> share_;
  std::vector<int> load_scratch_;  // Balancer input, reused per arrival.

  int pipeline_depth_ = 1;
  int in_service_ = 0;
  int peak_in_service_ = 0;
  uint64_t admission_waits_ = 0;
  uint64_t completed_ = 0;  // All completions, including warmup.
  uint64_t counted_requests_ = 0;
  uint64_t counted_bytes_ = 0;
  iolsim::SimTime count_start_ = 0;
  bool done_ = false;
  bool ran_ = false;

  // Fault plane state. fault_on_/recovery_on_ gate every new branch on the
  // hot paths; both false reproduces the pre-fault engine byte for byte.
  bool fault_on_ = false;     // A non-empty plan is attached.
  bool recovery_on_ = false;  // config_.recovery.enabled().
  bool health_on_ = false;    // recovery_on_ && health_checks.
  std::vector<uint8_t> ejected_;  // Health-checker verdict per member.
  std::vector<int> probe_bad_;    // Consecutive failed probes.
  std::vector<int> probe_good_;   // Consecutive good probes.
  uint64_t retries_total_ = 0;
  uint64_t hedges_total_ = 0;
  uint64_t failed_counted_ = 0;
  uint64_t response_drops_ = 0;
  uint64_t blackholed_ = 0;
  uint64_t health_ejections_ = 0;
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_EXPERIMENT_H_
