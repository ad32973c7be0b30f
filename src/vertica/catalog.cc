#include "vertica/catalog.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace fabric::vertica {

std::vector<HashRange> EvenRingPartition(int num_segments) {
  FABRIC_CHECK(num_segments > 0);
  std::vector<HashRange> ranges;
  ranges.reserve(num_segments);
  // Ring width per segment, computed in 64-bit arithmetic. The last
  // segment's upper bound is the wrap sentinel 0 (== 2^64).
  uint64_t step = UINT64_MAX / static_cast<uint64_t>(num_segments) + 1;
  for (int i = 0; i < num_segments; ++i) {
    HashRange range;
    range.lower = step * static_cast<uint64_t>(i);
    range.upper = (i + 1 == num_segments) ? 0 : step * (i + 1);
    ranges.push_back(range);
  }
  return ranges;
}

int RingSegmentOf(uint64_t h, int num_segments) {
  if (num_segments == 1) return 0;  // step would wrap to zero below
  uint64_t step = UINT64_MAX / static_cast<uint64_t>(num_segments) + 1;
  int segment = static_cast<int>(h / step);
  if (segment >= num_segments) segment = num_segments - 1;
  return segment;
}

Status Catalog::CreateTable(TableDef def) {
  std::string key = ToLower(def.name);
  if (tables_.count(key) > 0) {
    return AlreadyExistsError(StrCat("table '", def.name, "' exists"));
  }
  if (views_.count(key) > 0) {
    return AlreadyExistsError(StrCat("view '", def.name, "' exists"));
  }
  if (projections_.count(key) > 0) {
    return AlreadyExistsError(StrCat("projection '", def.name, "' exists"));
  }
  for (int c : def.segmentation.columns) {
    if (c < 0 || c >= def.schema.num_columns()) {
      return InvalidArgumentError("segmentation column out of range");
    }
  }
  tables_.emplace(key, std::move(def));
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = ToLower(name);
  if (tables_.erase(key) == 0) {
    return NotFoundError(StrCat("no table '", name, "'"));
  }
  // Cascade: projections cannot outlive their anchor.
  for (auto it = projections_.begin(); it != projections_.end();) {
    if (ToLower(it->second.anchor) == key) {
      it = projections_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Result<const TableDef*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return NotFoundError(StrCat("no table '", name, "'"));
  }
  return &it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(ToLower(name)) > 0;
}

Status Catalog::RenameTable(const std::string& from, const std::string& to) {
  auto it = tables_.find(ToLower(from));
  if (it == tables_.end()) {
    return NotFoundError(StrCat("no table '", from, "'"));
  }
  std::string to_key = ToLower(to);
  if (tables_.count(to_key) > 0 || views_.count(to_key) > 0 ||
      projections_.count(to_key) > 0) {
    return AlreadyExistsError(StrCat("'", to, "' exists"));
  }
  TableDef def = std::move(it->second);
  tables_.erase(it);
  def.name = to;
  tables_.emplace(to_key, std::move(def));
  for (auto& [key, proj] : projections_) {
    if (ToLower(proj.anchor) == ToLower(from)) proj.anchor = to;
  }
  return Status::OK();
}

Status Catalog::CreateView(ViewDef def) {
  std::string key = ToLower(def.name);
  if (views_.count(key) > 0 || tables_.count(key) > 0 ||
      projections_.count(key) > 0) {
    return AlreadyExistsError(StrCat("'", def.name, "' exists"));
  }
  views_.emplace(key, std::move(def));
  return Status::OK();
}

Status Catalog::DropView(const std::string& name) {
  if (views_.erase(ToLower(name)) == 0) {
    return NotFoundError(StrCat("no view '", name, "'"));
  }
  return Status::OK();
}

Result<const ViewDef*> Catalog::GetView(const std::string& name) const {
  auto it = views_.find(ToLower(name));
  if (it == views_.end()) {
    return NotFoundError(StrCat("no view '", name, "'"));
  }
  return &it->second;
}

bool Catalog::HasView(const std::string& name) const {
  return views_.count(ToLower(name)) > 0;
}

std::vector<storage::Row> ProjectionDef::Project(
    const std::vector<storage::Row>& anchor_rows) const {
  std::vector<storage::Row> out;
  out.reserve(anchor_rows.size());
  for (const storage::Row& row : anchor_rows) {
    storage::Row prow;
    prow.reserve(columns.size());
    for (int c : columns) prow.push_back(row[c]);
    out.push_back(std::move(prow));
  }
  return out;
}

Status Catalog::CreateProjection(ProjectionDef def) {
  std::string key = ToLower(def.name);
  if (projections_.count(key) > 0 || tables_.count(key) > 0 ||
      views_.count(key) > 0) {
    return AlreadyExistsError(StrCat("'", def.name, "' exists"));
  }
  auto anchor = tables_.find(ToLower(def.anchor));
  if (anchor == tables_.end()) {
    return NotFoundError(StrCat("no table '", def.anchor, "'"));
  }
  int anchor_cols = anchor->second.schema.num_columns();
  for (int c : def.columns) {
    if (c < 0 || c >= anchor_cols) {
      return InvalidArgumentError("projection column out of range");
    }
  }
  int width = static_cast<int>(def.columns.size());
  for (int c : def.sort_columns) {
    if (c < 0 || c >= width) {
      return InvalidArgumentError("projection sort column out of range");
    }
  }
  for (int c : def.segmentation.columns) {
    if (c < 0 || c >= width) {
      return InvalidArgumentError("projection segmentation column out of range");
    }
  }
  projections_.emplace(key, std::move(def));
  return Status::OK();
}

Status Catalog::DropProjection(const std::string& name) {
  if (projections_.erase(ToLower(name)) == 0) {
    return NotFoundError(StrCat("no projection '", name, "'"));
  }
  return Status::OK();
}

Result<const ProjectionDef*> Catalog::GetProjection(
    const std::string& name) const {
  auto it = projections_.find(ToLower(name));
  if (it == projections_.end()) {
    return NotFoundError(StrCat("no projection '", name, "'"));
  }
  return &it->second;
}

bool Catalog::HasProjection(const std::string& name) const {
  return projections_.count(ToLower(name)) > 0;
}

Status Catalog::SetProjectionCreateEpoch(const std::string& name,
                                         storage::Epoch epoch) {
  auto it = projections_.find(ToLower(name));
  if (it == projections_.end()) {
    return NotFoundError(StrCat("no projection '", name, "'"));
  }
  it->second.create_epoch = epoch;
  return Status::OK();
}

std::vector<const ProjectionDef*> Catalog::ProjectionsOf(
    const std::string& table) const {
  std::vector<const ProjectionDef*> defs;
  std::string key = ToLower(table);
  for (const auto& [name, def] : projections_) {
    if (ToLower(def.anchor) == key) defs.push_back(&def);
  }
  return defs;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, def] : tables_) names.push_back(def.name);
  return names;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [key, def] : views_) names.push_back(def.name);
  return names;
}

std::vector<std::string> Catalog::ProjectionNames() const {
  std::vector<std::string> names;
  names.reserve(projections_.size());
  for (const auto& [key, def] : projections_) names.push_back(def.name);
  return names;
}

}  // namespace fabric::vertica
