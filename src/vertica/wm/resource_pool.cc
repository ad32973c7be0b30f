#include "vertica/wm/resource_pool.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "obs/trace.h"

namespace fabric::vertica::wm {

bool IsQueueTimeoutError(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         StartsWith(std::string(status.message()), kQueueTimeoutToken);
}

// Per-(pool, node) accounting. All mutation happens from process or
// engine context, which share one host thread, so no locking is needed.
struct WorkloadManager::PoolNodeState {
  int running = 0;
  double memory_inuse = 0;
  int64_t admitted = 0;
  int64_t borrowed = 0;
  int64_t timeouts = 0;
  int64_t rejected = 0;
  int64_t spills = 0;
  double spill_bytes = 0;
  double queue_wait_seconds = 0;
};

struct WorkloadManager::Waiter {
  uint64_t id = 0;
  int pool = -1;  // origin pool
  int node = 0;
  int priority = 0;
  double memory = 0;
  double queued_at = 0;
  // Outcome, set by the granting/timeout/kill path before notify.
  int granted_from = -1;
  bool timed_out = false;
  bool node_down = false;
  std::unique_ptr<sim::Condition> cond;
  sim::Engine::TimerToken timer;  // null when the pool never times out

  bool decided() const { return granted_from >= 0 || timed_out || node_down; }
};

WorkloadManager::WorkloadManager(sim::Engine* engine, WorkloadConfig config,
                                 int num_nodes)
    : engine_(engine), config_(std::move(config)), num_nodes_(num_nodes) {
  pools_ = config_.pools;
  bool has_default = false;
  for (const PoolConfig& pool : pools_) {
    if (pool.name == config_.default_pool) has_default = true;
  }
  if (!has_default) {
    PoolConfig general;
    general.name = config_.default_pool;
    pools_.push_back(std::move(general));
  }
  for (size_t i = 0; i < pools_.size(); ++i) {
    by_name_.emplace(pools_[i].name, static_cast<int>(i));
  }
  // Cascade chains, cycle-safe: walk cascade_to until a pool repeats or
  // names nothing. Unknown targets end the chain (a misconfigured
  // cascade degrades to "no borrowing", never to a crash or a loop).
  chains_.resize(pools_.size());
  for (size_t i = 0; i < pools_.size(); ++i) {
    std::set<int> seen;
    int at = static_cast<int>(i);
    while (at >= 0 && seen.insert(at).second) {
      chains_[i].push_back(at);
      auto it = by_name_.find(pools_[at].cascade_to);
      at = it == by_name_.end() ? -1 : it->second;
    }
  }
  state_.assign(pools_.size(),
                std::vector<PoolNodeState>(static_cast<size_t>(num_nodes_)));
  queues_.resize(static_cast<size_t>(num_nodes_));
}

WorkloadManager::~WorkloadManager() = default;

Result<int> WorkloadManager::PoolIndex(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return InvalidArgumentError(StrCat("unknown resource pool '", name, "'"));
  }
  return it->second;
}

int WorkloadManager::EffectivePoolOrDefault(const std::string& name) const {
  auto it = by_name_.find(name.empty() ? config_.default_pool : name);
  return it == by_name_.end() ? -1 : it->second;
}

double WorkloadManager::DefaultGrantMemory(int pool) const {
  const PoolConfig& p = pools_[pool];
  if (p.query_memory > 0) return p.query_memory;
  if (p.memory_budget <= 0) return 0;  // unlimited budget: unlimited grant
  int planned = p.planned_concurrency > 0
                    ? p.planned_concurrency
                    : (p.max_concurrency > 0 ? p.max_concurrency : 4);
  return p.memory_budget / planned;
}

bool WorkloadManager::FitsIn(int pool, int node, double memory) const {
  const PoolConfig& p = pools_[pool];
  const PoolNodeState& s = state_[pool][node];
  if (p.max_concurrency > 0 && s.running >= p.max_concurrency) return false;
  if (p.memory_budget > 0 && s.memory_inuse + memory > p.memory_budget) {
    return false;
  }
  return true;
}

int WorkloadManager::TryTake(int origin, int node, double memory) {
  for (int pool : chains_[origin]) {
    if (!FitsIn(pool, node, memory)) continue;
    PoolNodeState& s = state_[pool][node];
    ++s.running;
    s.memory_inuse += memory;
    ++s.admitted;
    if (pool != origin) ++s.borrowed;
    return pool;
  }
  return -1;
}

bool WorkloadManager::ChainsOverlap(int pool_a, int pool_b) const {
  for (int a : chains_[pool_a]) {
    for (int b : chains_[pool_b]) {
      if (a == b) return true;
    }
  }
  return false;
}

Result<Grant> WorkloadManager::Admit(sim::Process& self, int node,
                                     const std::string& pool_name,
                                     double memory_request) {
  FABRIC_RETURN_IF_ERROR(self.CheckAlive());
  int origin = EffectivePoolOrDefault(pool_name);
  if (origin < 0) {
    return InvalidArgumentError(
        StrCat("unknown resource pool '", pool_name, "'"));
  }
  double memory =
      memory_request > 0 ? memory_request : DefaultGrantMemory(origin);

  // A request no pool in the chain could satisfy even when idle fails
  // fast with a stable message (Vertica's "request exceeds resources").
  bool could_ever_fit = false;
  for (int pool : chains_[origin]) {
    const PoolConfig& p = pools_[pool];
    if (p.memory_budget <= 0 || memory <= p.memory_budget) {
      could_ever_fit = true;
      break;
    }
  }
  if (!could_ever_fit) {
    ++state_[origin][node].rejected;
    obs::IncrCounter("wm.rejected");
    return ResourceExhaustedError(
        StrCat(kRequestExceedsPoolToken, ": pool '", pools_[origin].name,
               "' cannot grant ", memory, " bytes on any pool in its chain"));
  }

  // Barge only past strictly lower-priority waiters on an overlapping
  // chain; otherwise join the queue so FIFO within a priority holds and
  // a queued high-priority request is never overtaken.
  bool must_queue = false;
  for (const auto& waiter : queues_[node]) {
    if (waiter->decided()) continue;
    if (waiter->priority >= pools_[origin].priority &&
        ChainsOverlap(waiter->pool, origin)) {
      must_queue = true;
      break;
    }
  }
  if (!must_queue) {
    int from = TryTake(origin, node, memory);
    if (from >= 0) {
      obs::IncrCounter("wm.admitted");
      obs::TraceEvent("wm", "grant",
                      {{"pool", pools_[origin].name},
                       {"from", pools_[from].name},
                       {"node", node},
                       {"memory", memory}});
      return Grant{from, origin, node, memory};
    }
  }

  // Queue on the sim clock.
  auto waiter = std::make_unique<Waiter>();
  Waiter* w = waiter.get();
  w->id = next_waiter_id_++;
  w->pool = origin;
  w->node = node;
  w->priority = pools_[origin].priority;
  w->memory = memory;
  w->queued_at = self.Now();
  w->cond = std::make_unique<sim::Condition>(engine_);
  queues_[node].push_back(std::move(waiter));
  obs::IncrCounter("wm.queued");
  obs::TraceEvent("wm", "queue.enter",
                  {{"pool", pools_[origin].name},
                   {"node", node},
                   {"priority", w->priority},
                   {"memory", memory}});
  double timeout = pools_[origin].queue_timeout;
  if (timeout > 0) {
    uint64_t id = w->id;
    w->timer = engine_->ScheduleCancelableAt(
        self.Now() + timeout, [this, node, id] {
          for (const auto& queued : queues_[node]) {
            if (queued->id != id || queued->decided()) continue;
            queued->timed_out = true;
            queued->cond->NotifyAll();
            return;
          }
        });
  }

  Status wait = w->cond->WaitUntil(self, [w] { return w->decided(); });
  if (w->timer != nullptr) *w->timer = true;
  if (!wait.ok()) {
    // Killed while queued: give back anything a concurrent grant path
    // already took for us, then vanish from the queue.
    if (w->granted_from >= 0) {
      Release(Grant{w->granted_from, w->pool, node, w->memory});
    }
    RemoveWaiter(w);
    return wait;
  }
  double waited = self.Now() - w->queued_at;
  state_[origin][node].queue_wait_seconds += waited;
  obs::ObserveValue("wm.queue_wait_seconds", waited);
  if (w->timed_out) {
    ++state_[origin][node].timeouts;
    obs::IncrCounter("wm.queue_timeouts");
    obs::TraceEvent("wm", "queue.timeout",
                    {{"pool", pools_[origin].name},
                     {"node", node},
                     {"waited", waited}});
    RemoveWaiter(w);
    return ResourceExhaustedError(
        StrCat(kQueueTimeoutToken, ": pool '", pools_[origin].name,
               "' queue timeout after ", timeout, "s on node ", node));
  }
  if (w->node_down) {
    RemoveWaiter(w);
    return UnavailableError(
        StrCat("node ", node, " went down while queued on pool '",
               pools_[origin].name, "'"));
  }
  int from = w->granted_from;
  obs::IncrCounter("wm.admitted");
  obs::TraceEvent("wm", "queue.grant",
                  {{"pool", pools_[origin].name},
                   {"from", pools_[from].name},
                   {"node", node},
                   {"memory", memory},
                   {"waited", waited}});
  RemoveWaiter(w);
  return Grant{from, origin, node, memory};
}

void WorkloadManager::Release(const Grant& grant) {
  if (!grant.valid()) return;
  PoolNodeState& s = state_[grant.pool][grant.node];
  --s.running;
  s.memory_inuse -= grant.memory;
  if (s.memory_inuse < 1e-9) s.memory_inuse = 0;
  DrainQueue(grant.node);
}

void WorkloadManager::DrainQueue(int node) {
  // Consider waiters in (priority desc, arrival asc) order. A waiter
  // that does not fit blocks its whole cascade chain: nothing behind it
  // may take from those pools, so a queued high-priority request only
  // ever waits for currently-running grants — bounded priority
  // inversion by construction.
  std::vector<Waiter*> order;
  for (const auto& waiter : queues_[node]) {
    if (!waiter->decided()) order.push_back(waiter.get());
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Waiter* a, const Waiter* b) {
                     if (a->priority != b->priority) {
                       return a->priority > b->priority;
                     }
                     return a->id < b->id;
                   });
  std::set<int> blocked;
  for (Waiter* w : order) {
    bool behind_blocked = false;
    for (int pool : chains_[w->pool]) {
      if (blocked.count(pool) > 0) {
        behind_blocked = true;
        break;
      }
    }
    if (behind_blocked) continue;
    int from = TryTake(w->pool, node, w->memory);
    if (from >= 0) {
      w->granted_from = from;
      w->cond->NotifyAll();
    } else {
      for (int pool : chains_[w->pool]) blocked.insert(pool);
    }
  }
}

void WorkloadManager::RemoveWaiter(const Waiter* waiter) {
  auto& queue = queues_[waiter->node];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->get() == waiter) {
      queue.erase(it);
      return;
    }
  }
}

void WorkloadManager::ReportSpill(const Grant& grant, double bytes) {
  obs::IncrCounter("wm.spills");
  obs::IncrCounter("wm.spill_bytes", bytes);
  if (!grant.valid()) return;
  PoolNodeState& s = state_[grant.origin][grant.node];
  ++s.spills;
  s.spill_bytes += bytes;
  obs::TraceEvent("wm", "spill",
                  {{"pool", pools_[grant.origin].name},
                   {"node", grant.node},
                   {"bytes", bytes}});
}

void WorkloadManager::OnNodeDown(int node) {
  for (const auto& waiter : queues_[node]) {
    if (waiter->decided()) continue;
    waiter->node_down = true;
    waiter->cond->NotifyAll();
  }
}

std::vector<WorkloadManager::PoolStatus> WorkloadManager::PoolStatusRows()
    const {
  std::vector<PoolStatus> rows;
  for (int node = 0; node < num_nodes_; ++node) {
    std::vector<int> queued(pools_.size(), 0);
    for (const auto& waiter : queues_[node]) {
      if (!waiter->decided()) ++queued[waiter->pool];
    }
    for (size_t p = 0; p < pools_.size(); ++p) {
      const PoolNodeState& s = state_[p][node];
      PoolStatus row;
      row.node = node;
      row.pool = pools_[p].name;
      row.priority = pools_[p].priority;
      row.max_concurrency = pools_[p].max_concurrency;
      row.memory_budget = pools_[p].memory_budget;
      row.memory_inuse = s.memory_inuse;
      row.running = s.running;
      row.queued = queued[p];
      row.admitted = s.admitted;
      row.borrowed = s.borrowed;
      row.timeouts = s.timeouts;
      row.rejected = s.rejected;
      row.spills = s.spills;
      row.spill_bytes = s.spill_bytes;
      row.queue_wait_seconds = s.queue_wait_seconds;
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<WorkloadManager::QueueEntry> WorkloadManager::QueueRows() const {
  std::vector<QueueEntry> rows;
  for (int node = 0; node < num_nodes_; ++node) {
    std::vector<const Waiter*> order;
    for (const auto& waiter : queues_[node]) {
      if (!waiter->decided()) order.push_back(waiter.get());
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Waiter* a, const Waiter* b) {
                       if (a->priority != b->priority) {
                         return a->priority > b->priority;
                       }
                       return a->id < b->id;
                     });
    int position = 0;
    for (const Waiter* w : order) {
      QueueEntry entry;
      entry.node = node;
      entry.pool = pools_[w->pool].name;
      entry.priority = w->priority;
      entry.position = position++;
      entry.memory_requested = w->memory;
      entry.queued_at = w->queued_at;
      rows.push_back(std::move(entry));
    }
  }
  return rows;
}

}  // namespace fabric::vertica::wm
