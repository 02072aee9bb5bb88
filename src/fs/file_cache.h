// The unified IO-Lite file cache (Sections 3.5 and 3.7).
//
// A data structure mapping <file-id, offset, length> triples to buffer
// aggregates holding the corresponding extent of file data. The cache has no
// statically allocated storage: entries reference ordinary IO-Lite buffers,
// so cached data may concurrently be application state, pipe contents and
// network send-queue data.
//
// Key semantics implemented here:
//  * Writes *replace* entries (immutability): the replaced buffers drop out
//    of the cache but persist while other references exist, preserving the
//    snapshot semantics of earlier IOL_reads.
//  * Eviction removes the cache's references; the memory is actually
//    reclaimed only when the last outside reference disappears.
//  * Replacement policy is pluggable, including application-customized
//    policies (Flash-Lite installs Greedy Dual Size).
//  * The eviction *trigger* of Section 3.7 — evict one entry whenever more
//    than half of the VM pageout daemon's recent victim pages held cached
//    I/O data — is implemented in EvictionTrigger; benchmark drivers also
//    enforce an explicit byte budget, which is the steady state the trigger
//    rule converges to.

#ifndef SRC_FS_FILE_CACHE_H_
#define SRC_FS_FILE_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/fs/replacement_policy.h"
#include "src/fs/sim_file_system.h"
#include "src/iolite/aggregate.h"
#include "src/qos/tenant.h"
#include "src/simos/lru.h"
#include "src/simos/sim_context.h"

namespace iolqos {
class QosPolicy;
}  // namespace iolqos

namespace iolfs {

// Observer of cache membership changes. The multi-process data plane
// (src/ipc/shm_cache_mirror.h) implements this to project each entry's
// metadata into a shared-memory ShmMap, so *other processes* can find
// cached payload by (offset, len) without asking this process. The mirror
// sees every mutation path: Insert (including remainder re-inserts),
// InvalidateFile, and evictions.
class CacheMirror {
 public:
  virtual ~CacheMirror() = default;
  virtual void OnInsert(FileId file, uint64_t offset, const iolite::Aggregate& data) = 0;
  virtual void OnErase(FileId file, uint64_t offset, size_t length) = 0;
};

class FileCache : public CacheView {
 public:
  FileCache(iolsim::SimContext* ctx, std::unique_ptr<ReplacementPolicy> policy)
      : ctx_(ctx),
        policy_(std::move(policy)),
        hits_(&ctx->stats().cache_hits),
        misses_(&ctx->stats().cache_misses),
        evictions_(&ctx->stats().cache_evictions) {}

  FileCache(const FileCache&) = delete;
  FileCache& operator=(const FileCache&) = delete;

  // Application-specific policy customization (Section 3.7). Existing
  // entries are re-registered with the new policy in recency order.
  void SetPolicy(std::unique_ptr<ReplacementPolicy> policy);
  ReplacementPolicy& policy() { return *policy_; }

  // Cache-tier hook: points this cache's hit/miss/eviction accounting at
  // different SimStats counters. By default every FileCache counts into the
  // machine-wide cache_* fields; a second cache tier (the proxy cache of
  // src/proxy) routes its counters to the proxy_cache_* fields so per-tier
  // hit rates stay separable. Pointers must outlive the cache (SimStats
  // does: it lives in the SimContext).
  void RouteStats(uint64_t* hits, uint64_t* misses, uint64_t* evictions) {
    hits_ = hits;
    misses_ = misses;
    evictions_ = evictions;
  }

  // Attaches a membership observer (null detaches). The mirror must outlive
  // the cache or be detached first; it is invoked synchronously under every
  // entry create/erase.
  void set_mirror(CacheMirror* mirror) { mirror_ = mirror; }

  // --- Multi-tenant QoS plane (src/qos) -------------------------------------

  // Routes per-tenant accounting to `qos` the same way RouteStats routes the
  // machine-wide counters: every Lookup fires the on_cache_lookup stage hook
  // and bumps qos's per-tenant hit/miss block for this tier, and evictions
  // are charged to the evicted entry's owner. `proxy_tier` selects the
  // proxy-cache counter block (the unified/origin block otherwise). Null
  // detaches. The aggregate RouteStats counters are maintained regardless,
  // so existing per-tier hit-rate reporting is unchanged.
  void AttachQos(iolqos::QosPolicy* qos, bool proxy_tier = false) {
    qos_ = qos;
    qos_proxy_tier_ = proxy_tier;
  }

  // Enables per-tenant cache partitioning under `plan` (null disables):
  // entries are tagged with the inserting tenant (SimContext::
  // active_tenant), and eviction takes from the tenant furthest above its
  // reserved share — a tenant within its reservation never loses an entry
  // while any other tenant holds more than its own reservation. The
  // remainder (total - sum of reservations) is a shared pool tenants bid
  // for by inserting. Victims within a tenant are its least-recently-used
  // unreferenced entries (its referenced ones only as a last resort);
  // the global ReplacementPolicy covers the unpartitioned case. Must be
  // enabled while the cache is empty.
  void SetPartitions(const iolqos::CachePlan* plan);

  // Bytes currently held by `tenant` (0 unless partitioned).
  uint64_t tenant_bytes(iolsim::TenantId tenant) const {
    return tenant < shares_.size() ? shares_[tenant].bytes : 0;
  }

  bool partitioned() const { return plan_ != nullptr; }

  // Returns an aggregate covering [offset, offset+length) if the range is
  // fully cached (possibly assembled from several adjacent entries).
  // Counts a hit/miss and updates the policy's recency state.
  std::optional<iolite::Aggregate> Lookup(FileId file, uint64_t offset, size_t length);

  // Inserts `data` as the cache contents for [offset, offset+data.size()),
  // replacing any overlapping entries (their buffers persist while
  // referenced elsewhere). `version` tags the new entry for the CDN
  // consistency plane (src/cdn): a versioned cache can answer "how old are
  // these bytes?" without a side table. Trimmed remainders of overlapped
  // entries keep their own version — IO-Lite immutability means the old
  // snapshot is still exactly the old snapshot. Existing call sites pass no
  // version and are unchanged.
  void Insert(FileId file, uint64_t offset, iolite::Aggregate data,
              uint64_t version = 0);

  // Drops all entries of `file`.
  void InvalidateFile(FileId file);

  // --- CDN consistency plane (src/cdn) --------------------------------------

  // Whether any extent of `file` is cached. No accounting: this is a
  // metadata probe (invalidation targeting), not a lookup.
  bool Contains(FileId file) const {
    auto it = by_file_.find(file);
    return it != by_file_.end() && !it->second.empty();
  }

  // Highest version tag among `file`'s cached entries (0 when absent or
  // untagged). Proxies cache whole objects at offset 0, so this is the
  // version of the bytes a hit would serve.
  uint64_t VersionOf(FileId file) const;

  // Drops every entry of `file` tagged with a version below `min_version` —
  // the invalidation receive path. Returns the number of entries dropped
  // (0 when the file is absent or already current). Not counted as
  // evictions: the entry is not a replacement victim, it is dead data.
  int InvalidateOlderThan(FileId file, uint64_t min_version);

  // Evicts entries until the cache holds at most `budget` bytes. Returns
  // the number of entries evicted.
  int EnforceBudget(uint64_t budget);

  // Evicts a single entry chosen by the policy; false if the cache is empty.
  bool EvictOne();

  uint64_t bytes() const { return bytes_; }
  size_t entry_count() const { return entries_.size(); }

  // --- CacheView ------------------------------------------------------------
  bool IsReferenced(EntryId id) const override;
  size_t SizeOf(EntryId id) const override;

 private:
  struct Entry {
    FileId file;
    uint64_t offset;
    iolite::Aggregate data;
    iolsim::TenantId tenant = iolsim::kDefaultTenant;
    // Object version these bytes were fetched at (CDN consistency plane;
    // 0 for untagged single-tier entries).
    uint64_t version = 0;
  };

  // Per-tenant recency and byte accounting, maintained only when
  // partitioned (SetPartitions).
  struct TenantShare {
    uint64_t bytes = 0;
    iolsim::LruList<EntryId> lru;
  };

  void EraseEntry(EntryId id);
  // The partitioned victim: LRU entry of the most-over-reservation tenant.
  EntryId PartitionVictim() const;
  // Counts one lookup into the routed aggregate counters and, when a QoS
  // policy is attached, the active tenant's per-tier block + stage hooks.
  void CountLookup(bool hit);

  iolsim::SimContext* ctx_;
  std::unique_ptr<ReplacementPolicy> policy_;
  CacheMirror* mirror_ = nullptr;
  // Tier-routable accounting (see RouteStats).
  uint64_t* hits_;
  uint64_t* misses_;
  uint64_t* evictions_;
  std::unordered_map<EntryId, Entry> entries_;
  // Per file: offset -> entry id, entries non-overlapping.
  std::unordered_map<FileId, std::map<uint64_t, EntryId>> by_file_;
  // How many references the cache itself holds on each buffer, so
  // IsReferenced can detect references held *outside* the cache.
  std::unordered_map<iolite::Buffer*, int> cache_refs_;
  EntryId next_id_ = 1;
  uint64_t bytes_ = 0;
  // QoS plane state (null/empty when detached).
  iolqos::QosPolicy* qos_ = nullptr;
  bool qos_proxy_tier_ = false;
  const iolqos::CachePlan* plan_ = nullptr;
  std::vector<TenantShare> shares_;
};

// Models the Section 3.7 trigger: the VM pageout daemon reports each page
// it selects for replacement; if, since the last cache eviction, more than
// half of the selected pages held cached I/O data, one cache entry is
// evicted (and the window restarts).
class EvictionTrigger {
 public:
  explicit EvictionTrigger(FileCache* cache) : cache_(cache) {}

  // Reports one pageout-daemon victim page. Returns true if the rule fired
  // (one cache entry was evicted).
  bool OnPageSelected(bool page_held_cached_io_data);

  uint64_t evictions() const { return evictions_; }

 private:
  FileCache* cache_;
  uint64_t io_pages_ = 0;
  uint64_t total_pages_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace iolfs

#endif  // SRC_FS_FILE_CACHE_H_
