#include "vertica/designer/designer.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "vertica/projections/planner.h"

namespace fabric::vertica::designer {

namespace {

// One candidate layout derived from an observed query shape, with its
// hypothetical ProjectionDef ready for the planner to cost.
struct Candidate {
  std::string anchor;  // lower-cased
  std::vector<std::string> columns;       // anchor-schema case
  std::vector<std::string> sort_columns;
  std::vector<std::string> segment_columns;
  std::string identity;  // dedup key
  ProjectionDef def;     // name left empty until proposed
  double storage_bytes = 0;
};

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ",";
    out += ToLower(name);
  }
  return out;
}

// The query shape a history entry replays as. Unknown columns (dropped
// since capture) are filtered out.
projections::QueryShape ShapeOfRequest(const QueryRequest& request,
                                       const TableDef& def) {
  projections::QueryShape shape;
  std::set<std::string> referenced;
  for (const std::string& col : request.referenced) {
    if (def.schema.Contains(col)) referenced.insert(ToLower(col));
  }
  for (const std::string& col : request.group_by) {
    if (!def.schema.Contains(col)) continue;
    shape.group_by.push_back(ToLower(col));
    referenced.insert(ToLower(col));
  }
  for (const std::string& col : request.join_keys) {
    if (!def.schema.Contains(col)) continue;
    shape.join_keys.push_back(ToLower(col));
    referenced.insert(ToLower(col));
  }
  shape.referenced.assign(referenced.begin(), referenced.end());
  shape.aggregate = request.aggregate || !shape.group_by.empty();
  return shape;
}

// Builds the hypothetical ProjectionDef so projections::Eligible /
// CostProjection can treat a candidate exactly like a real projection.
bool ResolveCandidateDef(const TableDef& anchor, Candidate* cand) {
  ProjectionDef& def = cand->def;
  def.anchor = anchor.name;
  def.create_epoch = 1;  // as if populated at the initial epoch
  std::vector<storage::ColumnDef> schema_cols;
  for (const std::string& name : cand->columns) {
    auto idx = anchor.schema.IndexOf(name);
    if (!idx.ok()) return false;
    def.columns.push_back(*idx);
    schema_cols.push_back(anchor.schema.column(*idx));
  }
  def.schema = storage::Schema(std::move(schema_cols));
  for (const std::string& name : cand->sort_columns) {
    auto idx = def.schema.IndexOf(name);
    if (!idx.ok()) return false;
    def.sort_columns.push_back(*idx);
  }
  for (const std::string& name : cand->segment_columns) {
    auto idx = def.schema.IndexOf(name);
    if (!idx.ok()) return false;
    def.segmentation.columns.push_back(*idx);
  }
  return true;
}

// True when the candidate duplicates an existing layout of the anchor
// (the super projection or a named projection) — nothing to gain.
bool DuplicatesExisting(const Catalog& catalog, const TableDef& anchor,
                        const Candidate& cand) {
  if (cand.sort_columns.empty() &&
      static_cast<int>(cand.def.columns.size()) ==
          anchor.schema.num_columns()) {
    bool identity = true;
    for (size_t i = 0; i < cand.def.columns.size(); ++i) {
      if (cand.def.columns[i] != static_cast<int>(i)) identity = false;
    }
    if (identity) return true;  // the super projection
  }
  for (const ProjectionDef* proj : catalog.ProjectionsOf(anchor.name)) {
    if (proj->columns == cand.def.columns &&
        proj->sort_columns == cand.def.sort_columns &&
        proj->segmentation.columns == cand.def.segmentation.columns) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Proposal> Propose(
    const Catalog& catalog, const std::deque<QueryRequest>& history,
    const std::map<std::string, double>& table_raw_bytes,
    const Options& options) {
  // Replayable history entries, each paired with its anchor and shape.
  struct Replay {
    const TableDef* def;
    projections::QueryShape shape;
    double current_cost;  // under the already-selected proposal set
  };
  std::vector<Replay> replays;
  for (const QueryRequest& request : history) {
    auto def = catalog.GetTable(request.table);
    if (!def.ok()) continue;  // table dropped since capture
    Replay replay;
    replay.def = *def;
    replay.shape = ShapeOfRequest(request, **def);
    if (replay.shape.referenced.empty()) continue;
    replay.current_cost =
        projections::ChoosePlan(catalog, **def, replay.shape).cost;
    replays.push_back(std::move(replay));
  }

  // Candidate layouts from the observed shapes: join/group-by keys lead
  // both the column list and the sort order; segmentation follows the
  // join key so equal keys co-locate across tables.
  double anchors_total_bytes = 0;
  for (const auto& [table, bytes] : table_raw_bytes) {
    anchors_total_bytes += bytes;
  }
  std::map<std::string, Candidate> candidates;  // identity -> candidate
  for (const Replay& replay : replays) {
    const TableDef& def = *replay.def;
    Candidate cand;
    cand.anchor = ToLower(def.name);
    std::set<std::string> seen;
    auto add_column = [&](const std::string& lower) {
      if (seen.count(lower) > 0) return;
      seen.insert(lower);
      auto idx = def.schema.IndexOf(lower);
      cand.columns.push_back(def.schema.column(*idx).name);
    };
    for (const std::string& col : replay.shape.join_keys) add_column(col);
    for (const std::string& col : replay.shape.group_by) add_column(col);
    for (const std::string& col : replay.shape.referenced) add_column(col);
    if (cand.columns.empty()) continue;
    std::set<std::string> sort_seen;
    for (const std::string& col : replay.shape.join_keys) {
      if (sort_seen.insert(col).second) cand.sort_columns.push_back(col);
    }
    for (const std::string& col : replay.shape.group_by) {
      if (sort_seen.insert(col).second) cand.sort_columns.push_back(col);
    }
    if (!replay.shape.join_keys.empty()) {
      cand.segment_columns.push_back(replay.shape.join_keys.front());
    } else {
      // Keep the anchor's segmentation when the subset covers it, else
      // replicate (unsegmented) — a narrow replicated layout is still a
      // fine merge-join inner side.
      bool covered = true;
      std::vector<std::string> anchor_seg;
      for (int c : def.segmentation.columns) {
        std::string name = ToLower(def.schema.column(c).name);
        if (seen.count(name) == 0) covered = false;
        anchor_seg.push_back(std::move(name));
      }
      if (covered) cand.segment_columns = std::move(anchor_seg);
    }
    if (!ResolveCandidateDef(def, &cand)) continue;
    if (DuplicatesExisting(catalog, def, cand)) continue;
    double table_bytes = 0;
    auto bytes_it = table_raw_bytes.find(cand.anchor);
    if (bytes_it != table_raw_bytes.end()) table_bytes = bytes_it->second;
    cand.storage_bytes =
        table_bytes * static_cast<double>(cand.columns.size()) /
        static_cast<double>(std::max(1, def.schema.num_columns()));
    cand.identity = StrCat(cand.anchor, "|", JoinNames(cand.columns), "|",
                           JoinNames(cand.sort_columns), "|",
                           JoinNames(cand.segment_columns));
    candidates.emplace(cand.identity, std::move(cand));
  }

  // Greedy selection: each round takes the candidate with the largest
  // marginal cost reduction that still fits the remaining budget. Ties
  // break toward smaller storage, then identity order — deterministic.
  double budget = options.budget_fraction * anchors_total_bytes;
  std::vector<Proposal> proposals;
  std::set<std::string> taken;
  int auto_index = 1;
  while (static_cast<int>(proposals.size()) < options.max_proposals) {
    const Candidate* best = nullptr;
    double best_gain = 0;
    for (const auto& [identity, cand] : candidates) {
      if (taken.count(identity) > 0) continue;
      if (cand.storage_bytes > budget + 1e-9) continue;
      double gain = 0;
      for (const Replay& replay : replays) {
        if (ToLower(replay.def->name) != cand.anchor) continue;
        if (!projections::Eligible(*replay.def, cand.def, replay.shape)) {
          continue;
        }
        double cost =
            projections::CostProjection(*replay.def, &cand.def, replay.shape);
        if (cost < replay.current_cost) gain += replay.current_cost - cost;
      }
      if (gain <= 1e-12) continue;
      bool better = gain > best_gain + 1e-12;
      bool tied = !better && gain > best_gain - 1e-12;
      if (tied && best != nullptr) {
        better = cand.storage_bytes < best->storage_bytes - 1e-9 ||
                 (cand.storage_bytes < best->storage_bytes + 1e-9 &&
                  cand.identity < best->identity);
      }
      if (best == nullptr || better) {
        best = &cand;
        best_gain = gain;
      }
    }
    if (best == nullptr) break;
    taken.insert(best->identity);
    budget -= best->storage_bytes;
    // Apply the winner to the replay costs before the next round.
    for (Replay& replay : replays) {
      if (ToLower(replay.def->name) != best->anchor) continue;
      if (!projections::Eligible(*replay.def, best->def, replay.shape)) {
        continue;
      }
      double cost =
          projections::CostProjection(*replay.def, &best->def, replay.shape);
      replay.current_cost = std::min(replay.current_cost, cost);
    }

    Proposal proposal;
    proposal.anchor = best->anchor;
    proposal.columns = best->columns;
    proposal.sort_columns = best->sort_columns;
    proposal.segment_columns = best->segment_columns;
    proposal.benefit = best_gain;
    proposal.storage_bytes = best->storage_bytes;
    do {
      proposal.name = StrCat(best->anchor, "_auto_", auto_index++);
    } while (catalog.HasProjection(proposal.name) ||
             catalog.HasTable(proposal.name));
    std::string ddl = StrCat("CREATE PROJECTION ", proposal.name,
                             " AS SELECT ");
    for (size_t i = 0; i < proposal.columns.size(); ++i) {
      ddl += StrCat(i == 0 ? "" : ", ", proposal.columns[i]);
    }
    ddl += StrCat(" FROM ", proposal.anchor);
    for (size_t i = 0; i < proposal.sort_columns.size(); ++i) {
      ddl += StrCat(i == 0 ? " ORDER BY " : ", ", proposal.sort_columns[i]);
    }
    if (proposal.segment_columns.empty()) {
      ddl += " UNSEGMENTED ALL NODES";
    } else {
      ddl += " SEGMENTED BY HASH(";
      for (size_t i = 0; i < proposal.segment_columns.size(); ++i) {
        ddl += StrCat(i == 0 ? "" : ", ", proposal.segment_columns[i]);
      }
      ddl += ") ALL NODES";
    }
    proposal.ddl = std::move(ddl);
    proposals.push_back(std::move(proposal));
  }
  return proposals;
}

}  // namespace fabric::vertica::designer
