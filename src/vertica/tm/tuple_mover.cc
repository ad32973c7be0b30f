#include "vertica/tm/tuple_mover.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/host.h"
#include "obs/trace.h"
#include "vertica/database.h"

namespace fabric::vertica {

namespace {

// Size-tiered stratum of a container: 0 below strata_base_bytes, k below
// base * ratio^k, capped so absurd sizes cannot loop forever.
int Stratum(double raw_bytes, const TupleMoverConfig& config) {
  int k = 0;
  double bound = std::max(config.strata_base_bytes, 1.0);
  double ratio = std::max(config.strata_ratio, 2.0);
  while (raw_bytes >= bound && k < 48) {
    bound *= ratio;
    ++k;
  }
  return k;
}

// Committed-container indices per stratum that reached the merge
// threshold (ordered map: lowest stratum first), from the store's
// (index, raw bytes) list of committed containers.
std::map<int, std::vector<int>> MergeableStrata(
    const storage::SegmentStore& store, const TupleMoverConfig& config) {
  std::map<int, std::vector<int>> strata;
  for (const auto& [index, raw_bytes] : store.CommittedRosRawBytes()) {
    strata[Stratum(raw_bytes, config)].push_back(index);
  }
  for (auto it = strata.begin(); it != strata.end();) {
    if (static_cast<int>(it->second.size()) < config.strata_min_containers) {
      it = strata.erase(it);
    } else {
      ++it;
    }
  }
  return strata;
}

}  // namespace

TupleMover::TupleMover(Database* db, TupleMoverConfig config)
    : db_(db),
      config_(config),
      moveout_(static_cast<size_t>(db->num_nodes())),
      mergeout_(static_cast<size_t>(db->num_nodes())),
      wos_relief_(std::make_unique<sim::Condition>(db->engine())) {}

void TupleMover::NotifyCommit() {
  if (!config_.enabled) return;
  for (int n = 0; n < db_->num_nodes(); ++n) {
    if (!db_->node_up(n)) continue;
    ArmMoveout(n);
    ArmMergeout(n);
  }
  ArmAhm();
  UpdateWosGauge();
}

void TupleMover::NotifyTopology() {
  // Stalled writers re-check their predicate (a dead host unblocks its
  // writers; the statement then fails on the broken session/copy path).
  wos_relief_->NotifyAll();
  if (!config_.enabled) return;
  for (int n = 0; n < db_->num_nodes(); ++n) {
    if (!db_->node_up(n)) continue;
    ArmMoveout(n);
    ArmMergeout(n);
  }
  ArmAhm();
}

Status TupleMover::AdmitWos(sim::Process& self, const std::string& table,
                            storage::SegmentStore* store, int host) {
  if (!config_.enabled || config_.wos_hard_cap_batches <= 0) {
    return Status::OK();
  }
  if (store->num_committed_wos_batches() < config_.wos_hard_cap_batches) {
    return Status::OK();
  }
  // Over the cap: moveout is necessarily armed (the commit that pushed
  // the count to the cap armed it), so wait for it to drain the WOS.
  double stalled_at = db_->engine()->now();
  obs::TraceEvent("tm", "wos.stall",
                  {{"table", table}, {"node", static_cast<int64_t>(host)}});
  Status waited = wos_relief_->WaitUntil(self, [this, store, host] {
    return !db_->node_up(host) ||
           store->num_committed_wos_batches() < config_.wos_hard_cap_batches;
  });
  double stall = db_->engine()->now() - stalled_at;
  if (stall > 0) obs::IncrCounter("vertica.wos_stall_ms", stall * 1e3);
  return waited;
}

bool TupleMover::MoveoutWorkPending(int node) const {
  for (const Database::HostedStore& hs : db_->HostedStores(node)) {
    int committed = hs.store->num_committed_wos_batches();
    if (committed >= config_.moveout_min_batches) return true;
    if (config_.wos_hard_cap_batches > 0 &&
        committed >= config_.wos_hard_cap_batches) {
      return true;
    }
  }
  return false;
}

bool TupleMover::MergeoutWorkPending(int node) const {
  for (const Database::HostedStore& hs : db_->HostedStores(node)) {
    if (!MergeableStrata(*hs.store, config_).empty()) return true;
  }
  return false;
}

void TupleMover::ArmMoveout(int node) {
  if (moveout_[node].armed || !MoveoutWorkPending(node)) return;
  moveout_[node].armed = true;
  db_->engine()->Spawn(StrCat("tm:moveout:n", node),
                       [this, node](sim::Process& self) {
                         RunMoveout(self, node);
                       });
}

void TupleMover::ArmMergeout(int node) {
  if (mergeout_[node].armed || !MergeoutWorkPending(node)) return;
  mergeout_[node].armed = true;
  db_->engine()->Spawn(StrCat("tm:mergeout:n", node),
                       [this, node](sim::Process& self) {
                         RunMergeout(self, node);
                       });
}

void TupleMover::ArmAhm() {
  if (ahm_armed_) return;
  ahm_armed_ = true;
  db_->engine()->Spawn("tm:ahm", [this](sim::Process& self) { RunAhm(self); });
}

void TupleMover::RunMoveout(sim::Process& self, int node) {
  Status slept = self.Sleep(config_.moveout_interval);
  moveout_[node].armed = false;
  if (!slept.ok()) return;
  if (!db_->node_up(node)) {
    // Paused on a non-UP node; recovery completion re-arms via
    // NotifyTopology. Writers must still re-check (their host is gone).
    wos_relief_->NotifyAll();
    return;
  }
  // Host-side, step-atomic drain of every pressured hosted store, then
  // one CPU charge for the rewrite — mutating before charging keeps the
  // store state consistent with any scan interleaved during the charge.
  double drained_bytes = 0;
  int64_t drained_batches = 0;
  for (const Database::HostedStore& hs : db_->HostedStores(node)) {
    int committed = hs.store->num_committed_wos_batches();
    bool over_cap = config_.wos_hard_cap_batches > 0 &&
                    committed >= config_.wos_hard_cap_batches;
    if (committed < config_.moveout_min_batches && !over_cap) continue;
    double bytes =
        hs.store->CommittedWosRawBytes() * db_->EffectiveScale(hs.table);
    Status moved = hs.store->Moveout();
    FABRIC_CHECK(moved.ok()) << moved.ToString();
    drained_bytes += bytes;
    drained_batches += committed;
    ++moveout_[node].runs;
    moveout_[node].bytes += bytes;
    obs::IncrCounter("tm.moveout_runs");
  }
  wos_relief_->NotifyAll();
  UpdateWosGauge();
  if (drained_batches > 0) {
    obs::TraceEvent("tm", "moveout",
                    {{"node", static_cast<int64_t>(node)},
                     {"batches", drained_batches},
                     {"bytes", drained_bytes}});
    // Re-encoding the drained rows into a ROS container costs CPU on the
    // hosting node (ignore failure: a kill mid-charge loses nothing, the
    // store already moved).
    Status charged =
        net::RunCpu(self, db_->network(), db_->node_host(node),
                    drained_bytes * db_->cost().scan_cpu_per_byte);
    (void)charged;  // a kill mid-charge loses nothing, the store moved
    ArmMergeout(node);
  }
  ArmMoveout(node);
}

void TupleMover::RunMergeout(sim::Process& self, int node) {
  Status slept = self.Sleep(config_.mergeout_interval);
  mergeout_[node].armed = false;
  if (!slept.ok()) return;
  if (!db_->node_up(node)) return;
  double merged_bytes = 0;
  int64_t merges = 0;
  for (const Database::HostedStore& hs : db_->HostedStores(node)) {
    // One merge per stratum per pass. Every merge invalidates container
    // indices, so re-snapshot the stats after each and track which strata
    // already ran.
    std::set<int> done;
    while (true) {
      std::map<int, std::vector<int>> strata =
          MergeableStrata(*hs.store, config_);
      auto it = strata.begin();
      while (it != strata.end() && done.count(it->first) > 0) ++it;
      if (it == strata.end()) break;
      done.insert(it->first);
      std::vector<int>& members = it->second;
      if (static_cast<int>(members.size()) > config_.strata_max_fanin) {
        members.resize(static_cast<size_t>(config_.strata_max_fanin));
      }
      Result<double> merged = hs.store->MergeRosContainers(members);
      FABRIC_CHECK(merged.ok()) << merged.status();
      merged_bytes += *merged * db_->EffectiveScale(hs.table);
      ++merges;
      ++mergeout_[node].runs;
      mergeout_[node].bytes += *merged * db_->EffectiveScale(hs.table);
    }
  }
  if (merges > 0) {
    obs::IncrCounter("tm.mergeout_runs", static_cast<double>(merges));
    obs::IncrCounter("tm.mergeout_bytes", merged_bytes);
    obs::TraceEvent("tm", "mergeout",
                    {{"node", static_cast<int64_t>(node)},
                     {"merges", merges},
                     {"bytes", merged_bytes}});
    // Mergeout reads and rewrites every merged byte.
    Status charged =
        net::RunCpu(self, db_->network(), db_->node_host(node),
                    2 * merged_bytes * db_->cost().scan_cpu_per_byte);
    (void)charged;
  }
  ArmMergeout(node);
}

void TupleMover::RunAhm(sim::Process& self) {
  Status slept = self.Sleep(config_.ahm_interval);
  ahm_armed_ = false;
  if (!slept.ok()) return;
  // AHM = min(retention bound, oldest pinned snapshot, oldest down-node
  // epoch); monotone non-decreasing.
  storage::Epoch current = db_->current_epoch();
  storage::Epoch candidate =
      current > config_.retention_epochs ? current - config_.retention_epochs
                                         : 0;
  candidate = std::min(candidate, db_->MinPinnedEpoch());
  candidate = std::min(candidate, db_->MinNodeDownEpoch());
  if (candidate <= ahm_) return;
  ahm_ = candidate;
  ++ahm_advances_;
  obs::IncrCounter("tm.ahm_advances");
  obs::TraceEvent("tm", "ahm.advance",
                  {{"ahm", static_cast<int64_t>(ahm_)},
                   {"epoch", static_cast<int64_t>(current)}});
  db_->TrimEpochBookkeeping(ahm_);
  if (!config_.purge) return;
  // Purge every UP-hosted copy in one engine step: both UP copies of a
  // buddy pair purge together, so quiesced pairs keep equal fingerprints.
  // Copies on non-UP nodes are skipped — recovery's final atomic clone
  // re-converges them.
  int64_t purged = 0;
  double purged_scaled_rows = 0;
  std::vector<double> host_bytes(static_cast<size_t>(db_->num_nodes()), 0.0);
  for (int n = 0; n < db_->num_nodes(); ++n) {
    if (!db_->node_up(n)) continue;
    for (const Database::HostedStore& hs : db_->HostedStores(n)) {
      double before = hs.store->TotalRawBytes();
      Result<int64_t> dropped = hs.store->PurgeDeletedRows(ahm_);
      FABRIC_CHECK(dropped.ok()) << dropped.status();
      if (*dropped == 0) continue;
      purged += *dropped;
      purged_scaled_rows +=
          static_cast<double>(*dropped) * db_->EffectiveScale(hs.table);
      // Rewriting a container costs a read+write of its surviving bytes
      // plus the dropped ones — approximate with the pre-purge size.
      host_bytes[n] += before * db_->EffectiveScale(hs.table);
    }
  }
  if (purged > 0) {
    purged_rows_ += purged;
    obs::IncrCounter("tm.purged_rows", purged_scaled_rows);
    obs::TraceEvent("tm", "purge",
                    {{"ahm", static_cast<int64_t>(ahm_)},
                     {"rows", purged}});
    for (int n = 0; n < db_->num_nodes(); ++n) {
      if (host_bytes[n] <= 0) continue;
      Status charged =
          net::RunCpu(self, db_->network(), db_->node_host(n),
                      2 * host_bytes[n] * db_->cost().scan_cpu_per_byte);
      (void)charged;
    }
  }
}

void TupleMover::UpdateWosGauge() {
  obs::SetGauge("vertica.wos_batches",
                static_cast<double>(db_->TotalWosBatches()));
}

}  // namespace fabric::vertica
