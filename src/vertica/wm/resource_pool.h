#ifndef FABRIC_VERTICA_WM_RESOURCE_POOL_H_
#define FABRIC_VERTICA_WM_RESOURCE_POOL_H_

// Workload manager: named hierarchical resource pools with priority
// admission queues, per-query memory grants and cascade-to-parent
// borrowing — the production-concurrency substrate of the Vertica paper
// ("C-Store 7 Years Later"). Every statement entering the database (SQL
// sessions, V2S partition scans, S2V load sessions) is tagged to a pool
// and admitted through it; the grant it receives carries the memory
// budget that spilling operators respect.
//
// Determinism contract: an uncontended admission is pure bookkeeping —
// no virtual time passes and no trace events are emitted beyond the
// "wm" category — so a workload that never queues or spills produces
// event traces byte-identical to a WM-off run modulo "wm" events, and a
// database configured without pools is bit-for-bit the pre-WM system.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/engine.h"
#include "sim/waitable.h"

namespace fabric::vertica::wm {

// One named pool. All capacities are per node (each node runs its own
// admission, mirroring Vertica's per-node resource manager).
struct PoolConfig {
  std::string name;
  // Pool to borrow from when this pool is at capacity ("" = none). The
  // borrowed grant is accounted against the target pool's budget and
  // concurrency, walking up the chain until a pool fits.
  std::string cascade_to;
  // Higher priorities are granted first; FIFO within a priority.
  int priority = 0;
  // Concurrent grants per node (0 = unlimited).
  int max_concurrency = 0;
  // Memory budget per node, bytes (0 = unlimited).
  double memory_budget = 0;
  // Default per-query grant, bytes. 0 derives memory_budget /
  // planned_concurrency (unlimited when the budget is unlimited).
  double query_memory = 0;
  // Divisor for the derived per-query grant (0: max_concurrency, or 4
  // when that is unlimited).
  int planned_concurrency = 0;
  // How long a request may queue before failing with the typed
  // WM_QUEUE_TIMEOUT error, virtual seconds (0 = wait forever).
  double queue_timeout = 0;
};

struct WorkloadConfig {
  std::vector<PoolConfig> pools;
  // Pool used by untagged sessions; created implicitly (unlimited)
  // when not listed in `pools`.
  std::string default_pool = "general";

  // The workload manager is built only when at least one pool is
  // configured; an empty config admits every statement at once.
  bool enabled() const { return !pools.empty(); }
};

// A granted admission. Plain value: released via
// WorkloadManager::Release, carried by the session for the statement's
// lifetime so budget-aware operators can read their memory allowance.
struct Grant {
  int pool = -1;     // pool index the resources were taken from
  int origin = -1;   // pool index the request was tagged to
  int node = -1;
  double memory = 0;  // granted bytes (0 = unlimited)

  bool valid() const { return pool >= 0; }
};

// Stable message prefixes for the typed RESOURCE_EXHAUSTED errors, so
// retry logic matches on a contract rather than on prose.
inline constexpr char kQueueTimeoutToken[] = "WM_QUEUE_TIMEOUT";
inline constexpr char kRequestExceedsPoolToken[] = "WM_REQUEST_EXCEEDS_POOL";

bool IsQueueTimeoutError(const Status& status);

class WorkloadManager {
 public:
  WorkloadManager(sim::Engine* engine, WorkloadConfig config, int num_nodes);
  ~WorkloadManager();

  WorkloadManager(const WorkloadManager&) = delete;
  WorkloadManager& operator=(const WorkloadManager&) = delete;

  // Admits one request on `node` against the named pool (empty name:
  // the default pool). `memory_request` of 0 takes the pool's derived
  // per-query grant. Blocks in the pool's priority queue while the pool
  // (and its cascade chain) is at capacity; fails with the typed
  // RESOURCE_EXHAUSTED errors above on queue timeout or on a request no
  // pool in the chain could ever satisfy, with UNAVAILABLE when the
  // node goes down while queued, with INVALID_ARGUMENT for an unknown
  // pool, and with CANCELLED when the caller is killed.
  Result<Grant> Admit(sim::Process& self, int node,
                      const std::string& pool_name, double memory_request);

  // Returns the grant's resources and wakes whatever now fits, highest
  // priority first. Safe to call with an invalid grant (no-op).
  void Release(const Grant& grant);

  // Attributes an operator spill to the grant's pool (telemetry only).
  void ReportSpill(const Grant& grant, double bytes);

  // Fails every request queued on `node` with UNAVAILABLE (the node
  // died; running grants unwind through their sessions' own teardown).
  void OnNodeDown(int node);

  const WorkloadConfig& config() const { return config_; }
  int num_pools() const { return static_cast<int>(pools_.size()); }
  Result<int> PoolIndex(const std::string& name) const;
  const PoolConfig& pool(int index) const { return pools_[index]; }

  // Telemetry rows for v_monitor.resource_pool_status.
  struct PoolStatus {
    int node = 0;
    std::string pool;
    int priority = 0;
    int max_concurrency = 0;
    double memory_budget = 0;
    double memory_inuse = 0;
    int running = 0;
    int queued = 0;
    int64_t admitted = 0;
    int64_t borrowed = 0;
    int64_t timeouts = 0;
    int64_t rejected = 0;
    int64_t spills = 0;
    double spill_bytes = 0;
    double queue_wait_seconds = 0;  // cumulative
  };
  std::vector<PoolStatus> PoolStatusRows() const;

  // Telemetry rows for v_monitor.resource_queues (currently queued
  // requests, in grant-consideration order).
  struct QueueEntry {
    int node = 0;
    std::string pool;
    int priority = 0;
    int position = 0;  // within the node's queue ordering
    double memory_requested = 0;
    double queued_at = 0;  // virtual time of queue entry
  };
  std::vector<QueueEntry> QueueRows() const;

 private:
  struct Waiter;
  struct PoolNodeState;

  int EffectivePoolOrDefault(const std::string& name) const;
  double DefaultGrantMemory(int pool) const;
  bool FitsIn(int pool, int node, double memory) const;
  // First pool in `origin`'s cascade chain with room, or -1.
  int TryTake(int origin, int node, double memory);
  // Grants every queued request that now fits on `node`, highest
  // priority first, never past a blocked (non-fitting) pool chain.
  void DrainQueue(int node);
  void RemoveWaiter(const Waiter* waiter);
  bool ChainsOverlap(int pool_a, int pool_b) const;

  sim::Engine* engine_;
  WorkloadConfig config_;
  int num_nodes_;
  std::vector<PoolConfig> pools_;                  // normalized
  std::vector<std::vector<int>> chains_;           // pool -> cascade chain
  std::map<std::string, int> by_name_;
  // state_[pool][node]
  std::vector<std::vector<PoolNodeState>> state_;
  // Queued waiters per node, in arrival order; grant order is
  // (priority desc, arrival asc), computed at drain time.
  std::vector<std::vector<std::unique_ptr<Waiter>>> queues_;
  uint64_t next_waiter_id_ = 0;
};

}  // namespace fabric::vertica::wm

#endif  // FABRIC_VERTICA_WM_RESOURCE_POOL_H_
