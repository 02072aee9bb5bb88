#include "src/driver/sharded_experiment.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/httpd/request_pipeline.h"

namespace ioldrv {

namespace {

// Cross-lane protocol. Payload packing: FileId is int64_t and all times are
// SimTime (int64_t), so everything rides the ShardMsg uint64 fields.
constexpr uint32_t kRequest = 1;   // frontend → member: a=client, b=file.
constexpr uint32_t kResponse = 2;  // member → frontend: a=client, b=bytes,
                                   //   c=admit time, d=cache_hit.

constexpr uint32_t kFrontendLane = 0;

// The lane plumbing shared by the frontend and the members: an event queue
// view plus a pooled ShardMsg buffer, so delivering a message costs one
// slot index in the scheduled callback's capture (a ShardMsg itself would
// not fit an InlineCallback).
class LaneCore : public iolsim::ShardLane {
 public:
  LaneCore(iolsim::VirtualClock* clock, iolsim::EventQueue* events)
      : clock_(clock), events_(events) {}

  iolsim::SimTime NextEventAt() override {
    iolsim::SimTime when;
    return events_->PeekWhen(&when) ? when : iolsim::kShardIdle;
  }

  void RunWindow(iolsim::SimTime end) override {
    // Strictly-before: events at exactly `end` belong to the next window.
    // The clock is left at the last dispatched event, never pushed to
    // `end` — later arrivals must not be clamped forward.
    iolsim::SimTime when;
    while (events_->PeekWhen(&when) && when < end) {
      events_->RunOne();
    }
  }

  void OnMessage(const iolsim::ShardMsg& msg) override {
    uint32_t slot;
    if (!free_msgs_.empty()) {
      slot = free_msgs_.back();
      free_msgs_.pop_back();
      msgs_[slot] = msg;
    } else {
      slot = static_cast<uint32_t>(msgs_.size());
      msgs_.push_back(msg);
    }
    events_->ScheduleAt(msg.when, [this, slot] {
      iolsim::ShardMsg m = msgs_[slot];
      free_msgs_.push_back(slot);
      HandleMsg(m);
    });
  }

 protected:
  virtual void HandleMsg(const iolsim::ShardMsg& msg) = 0;

  iolsim::SimTime now() const { return clock_->now(); }

  iolsim::VirtualClock* clock_;
  iolsim::EventQueue* events_;

 private:
  std::vector<iolsim::ShardMsg> msgs_;
  std::vector<uint32_t> free_msgs_;
};

}  // namespace

// One fleet member: its own machine, server, connection pool, and the
// legacy admission discipline (max_concurrent + FIFO accept queue).
class ShardedExperiment::MemberLane : public LaneCore {
 public:
  MemberLane(ShardMember* member, size_t index, size_t fleet_size,
             const ExperimentConfig* config)
      : LaneCore(&member->sys->ctx().clock(), &member->sys->ctx().events()),
        sys_(member->sys.get()),
        server_(member->server.get()),
        lane_(static_cast<uint32_t>(index + 1)),
        fleet_size_(fleet_size),
        config_(config) {}

  void Bind(iolsim::ShardRunner* runner) { runner_ = runner; }

  int peak_concurrent() const { return peak_; }
  uint64_t admission_waits() const { return admission_waits_; }

 private:
  // One in-flight request. Slots live in a deque so RequestContext
  // addresses stay stable while the pool grows; on_done is wired once at
  // slot birth and reused across requests, like the legacy engine's lanes.
  struct Slot {
    uint64_t client = 0;
    iolsim::SimTime admit = 0;
    size_t conn = 0;
    iolhttp::RequestContext req;
  };

  void HandleMsg(const iolsim::ShardMsg& msg) override {
    assert(msg.kind == kRequest);
    uint32_t slot = AllocSlot();
    Slot& s = slots_[slot];
    s.client = msg.a;
    s.req.file = static_cast<iolfs::FileId>(msg.b);
    if (config_->max_concurrent > 0 && in_service_ >= config_->max_concurrent) {
      accept_queue_.push_back(slot);
      ++admission_waits_;
      return;
    }
    Serve(slot);
  }

  void Serve(uint32_t slot) {
    Slot& s = slots_[slot];
    ++in_service_;
    if (in_service_ > peak_) {
      peak_ = in_service_;
    }
    s.admit = now();
    s.conn = AcquireConn(s.client);
    s.req.conn = conns_[s.conn].get();
    s.req.response_bytes = 0;
    s.req.cache_hit = false;
    if (!s.req.conn->connected()) {
      // Handshake CPU is a pipeline stage, as in the legacy engine; the
      // handshake round trip is charged with the response delay below.
      iolnet::TcpConnection* conn = s.req.conn;
      iolhttp::RunCpuStage(
          &sys_->ctx(), [conn] { conn->Connect(); },
          [this, slot] { server_->StartRequest(&slots_[slot].req); });
    } else {
      server_->StartRequest(&s.req);
    }
  }

  void OnServerDone(uint32_t slot) {
    Slot& s = slots_[slot];
    uint64_t bytes = s.req.response_bytes;
    bool hit = s.req.cache_hit;
    uint64_t client = s.client;
    iolsim::SimTime admit = s.admit;
    if (!config_->persistent_connections) {
      s.req.conn->Close();
      free_conns_.push_back(s.conn);
    }
    --in_service_;
    if (!accept_queue_.empty()) {
      uint32_t waiting = accept_queue_.front();
      accept_queue_.pop_front();
      Serve(waiting);
    }
    free_slots_.push_back(slot);
    // Response propagation, plus one handshake round trip for
    // nonpersistent connections — both at or above the lookahead.
    iolsim::SimTime respond_delay = config_->delay.one_way_delay;
    if (!config_->persistent_connections) {
      respond_delay += config_->delay.RoundTrip();
    }
    iolsim::ShardMsg r;
    r.when = now() + respond_delay;
    r.kind = kResponse;
    r.a = client;
    r.b = bytes;
    r.c = static_cast<uint64_t>(admit);
    r.d = hit ? 1 : 0;
    runner_->Send(lane_, kFrontendLane, r);
  }

  uint32_t AllocSlot() {
    if (!free_slots_.empty()) {
      uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    uint32_t slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_[slot].req.on_done = [this, slot](iolhttp::RequestContext*) {
      OnServerDone(slot);
    };
    return slot;
  }

  // Persistent runs pin client c to connection c / fleet_size (the c-th
  // client of this member); nonpersistent runs recycle a free pool.
  size_t AcquireConn(uint64_t client) {
    if (config_->persistent_connections) {
      size_t local = static_cast<size_t>(client) / fleet_size_;
      while (pinned_.size() <= local) {
        pinned_.push_back(NewConn());
      }
      return pinned_[local];
    }
    if (!free_conns_.empty()) {
      size_t idx = free_conns_.back();
      free_conns_.pop_back();
      return idx;
    }
    return NewConn();
  }

  size_t NewConn() {
    conns_.push_back(std::make_unique<iolnet::TcpConnection>(
        &sys_->net(), server_->uses_iolite_sockets()));
    return conns_.size() - 1;
  }

  iolsys::System* sys_;
  iolhttp::HttpServer* server_;
  uint32_t lane_;
  size_t fleet_size_;
  const ExperimentConfig* config_;
  iolsim::ShardRunner* runner_ = nullptr;

  std::deque<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<std::unique_ptr<iolnet::TcpConnection>> conns_;
  std::vector<size_t> free_conns_;
  std::vector<size_t> pinned_;
  std::deque<uint32_t> accept_queue_;
  int in_service_ = 0;
  int peak_ = 0;
  uint64_t admission_waits_ = 0;
};

// The client population: issues per the Workload, receives responses,
// timestamps records, and owns the warmup / count / stop bookkeeping —
// the exact discipline of Experiment::OnClientReceive.
class ShardedExperiment::FrontendLane : public LaneCore {
 public:
  FrontendLane(size_t fleet_size, const ExperimentConfig* config,
               Telemetry* telemetry)
      : LaneCore(&front_clock_, nullptr),
        events_storage_(&front_clock_, &dispatched_),
        fleet_size_(fleet_size),
        config_(config),
        telemetry_(telemetry) {
    events_ = &events_storage_;
    share_.assign(fleet_size_, ServerShare{});
  }

  void Bind(iolsim::ShardRunner* runner) { runner_ = runner; }

  // Seeds the initial events; the runner's first window dispatches them.
  void Start(Workload* workload, RequestSource next_file) {
    workload_ = workload;
    next_file_ = std::move(next_file);
    int clients = workload_->initial_clients();
    for (int c = 0; c < clients; ++c) {
      AddClient();
    }
    if (workload_->closed_loop()) {
      for (int c = 0; c < clients; ++c) {
        uint64_t client = static_cast<uint64_t>(c);
        events_->ScheduleAt(0, [this, client] { Issue(client); });
      }
    } else {
      for (size_t c = in_flight_.size(); c-- > 0;) {
        free_clients_.push_back(c);
      }
      ScheduleNextArrival();
    }
  }

  uint64_t dispatched() const { return dispatched_; }
  uint64_t counted_requests() const { return counted_requests_; }
  uint64_t counted_bytes() const { return counted_bytes_; }
  iolsim::SimTime count_start() const { return count_start_; }
  iolsim::SimTime end_time() const { return done_ ? done_at_ : front_clock_.now(); }
  const std::vector<ServerShare>& share() const { return share_; }

 private:
  struct InFlight {
    iolsim::SimTime issue = 0;
  };

  void AddClient() { in_flight_.emplace_back(); }

  void Issue(uint64_t client) {
    if (done_) {
      return;
    }
    iolfs::FileId probe;
    if (workload_->NextFile(&probe)) {
      std::fprintf(stderr,
                   "ShardedExperiment: workload-pinned files (trace replay) "
                   "are not supported on the sharded engine\n");
      std::abort();
    }
    in_flight_[client].issue = now();
    iolsim::ShardMsg m;
    m.when = now() + config_->delay.one_way_delay;
    m.kind = kRequest;
    m.a = client;
    m.b = static_cast<uint64_t>(next_file_());
    runner_->Send(kFrontendLane, MemberLaneOf(client), m);
  }

  uint32_t MemberLaneOf(uint64_t client) const {
    return static_cast<uint32_t>(1 + client % fleet_size_);
  }

  void ScheduleNextArrival() {
    if (done_) {
      return;
    }
    iolsim::SimTime at = 0;
    if (!workload_->NextArrival(front_clock_.now(), &at)) {
      return;  // Stream exhausted: the run drains and ends.
    }
    events_->ScheduleAt(at, [this] {
      if (done_) {
        return;
      }
      uint64_t client;
      if (!free_clients_.empty()) {
        client = free_clients_.back();
        free_clients_.pop_back();
      } else {
        client = in_flight_.size();
        AddClient();
      }
      Issue(client);
      ScheduleNextArrival();
    });
  }

  void HandleMsg(const iolsim::ShardMsg& msg) override {
    assert(msg.kind == kResponse);
    if (done_) {
      return;
    }
    uint64_t client = msg.a;
    ++completed_;
    RequestRecord rec;
    rec.issue = in_flight_[client].issue;
    rec.complete = now();
    rec.admit = static_cast<iolsim::SimTime>(msg.c);
    rec.bytes = static_cast<size_t>(msg.b);
    rec.server = static_cast<size_t>(client % fleet_size_);
    rec.cache_hit = msg.d != 0;
    rec.counted = completed_ > config_->warmup_requests;
    telemetry_->Record(rec);
    if (!rec.counted) {
      if (completed_ == config_->warmup_requests) {
        count_start_ = now();
      }
    } else {
      ++counted_requests_;
      counted_bytes_ += rec.bytes;
      share_[rec.server].requests++;
      share_[rec.server].bytes += rec.bytes;
      if (counted_requests_ >= config_->max_requests) {
        done_ = true;
        done_at_ = now();
        return;
      }
    }
    if (workload_->closed_loop()) {
      Issue(client);
    } else {
      free_clients_.push_back(client);
    }
  }

  iolsim::VirtualClock front_clock_;
  uint64_t dispatched_ = 0;
  iolsim::EventQueue events_storage_;
  size_t fleet_size_;
  const ExperimentConfig* config_;
  Telemetry* telemetry_;
  iolsim::ShardRunner* runner_ = nullptr;
  Workload* workload_ = nullptr;
  RequestSource next_file_;

  std::vector<InFlight> in_flight_;
  std::vector<uint64_t> free_clients_;
  std::vector<ServerShare> share_;
  uint64_t completed_ = 0;
  uint64_t counted_requests_ = 0;
  uint64_t counted_bytes_ = 0;
  iolsim::SimTime count_start_ = 0;
  iolsim::SimTime done_at_ = 0;
  bool done_ = false;
};

ShardedExperiment::ShardedExperiment(size_t members, ShardMemberFactory factory,
                                     ExperimentConfig config)
    : member_count_(members), config_(config) {
  assert(members > 0);
  if (config_.delay.one_way_delay <= 0) {
    std::fprintf(stderr,
                 "ShardedExperiment: one_way_delay must be > 0 — it is the "
                 "conservative lookahead between shards\n");
    std::abort();
  }
  assert(!config_.enforce_cache_budget &&
         "cache-budget enforcement is a single-machine memory-model feature");
  // Members are built sequentially here, on the calling thread: global
  // construction-order state (e.g. BufferPool's pool-seed counter) must not
  // depend on the thread schedule.
  members_.reserve(members);
  for (size_t m = 0; m < members; ++m) {
    members_.push_back(factory(m));
  }
  frontend_ = std::make_unique<FrontendLane>(members, &config_, &telemetry_);
  member_lanes_.reserve(members);
  for (size_t m = 0; m < members; ++m) {
    member_lanes_.push_back(
        std::make_unique<MemberLane>(&members_[m], m, members, &config_));
  }
}

ShardedExperiment::~ShardedExperiment() = default;

ShardedResult ShardedExperiment::Run(Workload* workload, RequestSource next_file) {
  if (ran_) {
    std::fprintf(stderr, "ShardedExperiment: Run() called twice on the same instance\n");
    std::abort();
  }
  ran_ = true;
  assert(workload->pipeline_depth() <= 1 ||
         !config_.persistent_connections);  // Pipelining needs per-conn order.
  workload->Reset();
  telemetry_.Reserve(config_.max_requests + config_.warmup_requests);

  std::vector<iolsim::ShardLane*> lanes;
  lanes.push_back(frontend_.get());
  for (auto& m : member_lanes_) {
    lanes.push_back(m.get());
  }
  iolsim::ShardRunner::Options options;
  options.threads = config_.shard_count;
  options.lookahead = config_.delay.one_way_delay;
  iolsim::ShardRunner runner(lanes, options);
  frontend_->Bind(&runner);
  for (auto& m : member_lanes_) {
    m->Bind(&runner);
  }

  std::chrono::steady_clock::time_point wall_start = std::chrono::steady_clock::now();
  frontend_->Start(workload, std::move(next_file));
  iolsim::ShardRunner::Stats shard_stats = runner.Run();

  ShardedResult out;
  out.shard = shard_stats;
  ExperimentResult& result = out.result;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  result.requests = frontend_->counted_requests();
  result.bytes = frontend_->counted_bytes();
  result.count_start = frontend_->count_start();
  result.seconds = iolsim::ToSeconds(frontend_->end_time() - frontend_->count_start());
  if (result.seconds > 0) {
    result.megabits_per_sec =
        static_cast<double>(result.bytes) * 8.0 / 1e6 / result.seconds;
  }
  result.latency = telemetry_.EndToEndLatency();
  result.cache_hit_fraction = telemetry_.CacheHitFraction();
  result.per_server = frontend_->share();

  out.lane_events.push_back(frontend_->dispatched());
  result.events_dispatched = frontend_->dispatched();
  uint64_t hits = 0;
  uint64_t lookups = 0;
  for (size_t m = 0; m < member_count_; ++m) {
    const iolsim::SimStats& stats = members_[m].sys->ctx().stats();
    out.lane_events.push_back(stats.events_dispatched);
    result.events_dispatched += stats.events_dispatched;
    hits += stats.cache_hits;
    lookups += stats.cache_hits + stats.cache_misses;
    result.per_server[m].peak_concurrent = member_lanes_[m]->peak_concurrent();
    // Fleet-wide concurrency: members are independent machines here, so
    // the sum of per-member peaks is the deterministic upper envelope.
    result.peak_concurrent += member_lanes_[m]->peak_concurrent();
    result.admission_waits += member_lanes_[m]->admission_waits();
  }
  if (lookups > 0) {
    result.cache_hit_rate = static_cast<double>(hits) / static_cast<double>(lookups);
  }
  return out;
}

}  // namespace ioldrv
