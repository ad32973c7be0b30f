#ifndef FABRIC_VERTICA_CATALOG_H_
#define FABRIC_VERTICA_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/segment_store.h"

namespace fabric::vertica {

// Segmentation of a table across the hash ring. Vertica assigns each node
// one contiguous range of the 2^64 ring (Section 3.1.2); the boundaries
// live in the system catalog where the connector reads them.
struct Segmentation {
  // Column indices of SEGMENTED BY HASH(...); empty means UNSEGMENTED
  // (replicated to every node, served locally).
  std::vector<int> columns;
  bool unsegmented() const { return columns.empty(); }
};

// Half-open range [lower, upper) on the hash ring; upper == 0 means 2^64
// (wrap-to-end sentinel).
struct HashRange {
  uint64_t lower = 0;
  uint64_t upper = 0;

  bool Contains(uint64_t h) const {
    if (upper == 0) return h >= lower;
    return h >= lower && h < upper;
  }
  // Width as a double (for skew diagnostics only).
  double Width() const {
    if (upper == 0) return static_cast<double>(UINT64_MAX) - lower + 1;
    return static_cast<double>(upper - lower);
  }

  friend bool operator==(const HashRange& a, const HashRange& b) {
    return a.lower == b.lower && a.upper == b.upper;
  }
};

// Evenly divides the ring into `num_segments` contiguous ranges; segment i
// belongs to node i. This is also what V2S uses to build "synthetic" hash
// ranges for views and unsegmented tables.
std::vector<HashRange> EvenRingPartition(int num_segments);

// Returns which segment of an EvenRingPartition(num_segments) contains h.
int RingSegmentOf(uint64_t h, int num_segments);

struct TableDef {
  std::string name;
  storage::Schema schema;
  Segmentation segmentation;
};

struct ViewDef {
  std::string name;
  std::string query_sql;  // the SELECT this view stands for
};

// One extra physical layout of a table (C-Store/Vertica projection): a
// column subset in declared order, its own sort order and per-column
// encodings, and its own segmentation on the ring. The anchor table's
// implicit layout (all columns, insertion order, anchor segmentation) is
// the super projection; it has no ProjectionDef.
struct ProjectionDef {
  std::string name;
  std::string anchor;        // anchor table name
  std::vector<int> columns;  // anchor schema indices, declared order
  // Indices into `columns` (projection-local), major sort key first.
  std::vector<int> sort_columns;
  // One forced encoding per projection column, chosen at creation (RLE
  // on sorted low-cardinality columns, dictionary elsewhere).
  std::vector<storage::Encoding> encodings;
  // Projection-local segmentation (indices into `columns`); UNSEGMENTED
  // projections are replicated to every node.
  Segmentation segmentation;
  // Epoch of the populating commit: AT EPOCH reads older than this must
  // not be served from the projection (population collapses the anchor's
  // history into one commit). 0 while CREATE PROJECTION is still
  // populating it, which keeps the planner off the half-built layout.
  storage::Epoch create_epoch = 0;
  // Projection-local schema (the `columns` subset of the anchor schema).
  storage::Schema schema;

  storage::PhysicalDesign Design() const {
    return storage::PhysicalDesign{sort_columns, encodings};
  }
  // The projection's image of anchor-width rows: each row's `columns`,
  // in declared order.
  std::vector<storage::Row> Project(
      const std::vector<storage::Row>& anchor_rows) const;
};

// Named metadata for every table and view in the database. Storage lives
// with the cluster (per node); the catalog is pure metadata, shared by all
// nodes (as Vertica's global catalog is).
class Catalog {
 public:
  Status CreateTable(TableDef def);
  Status DropTable(const std::string& name);
  Result<const TableDef*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  // ALTER TABLE ... RENAME TO ... — the S2V overwrite commit path. Fails
  // if `to` exists.
  Status RenameTable(const std::string& from, const std::string& to);

  Status CreateView(ViewDef def);
  Status DropView(const std::string& name);
  Result<const ViewDef*> GetView(const std::string& name) const;
  bool HasView(const std::string& name) const;

  // Projections. Names share the table/view namespace; DropTable
  // cascades to the table's projections and RenameTable re-anchors them.
  Status CreateProjection(ProjectionDef def);
  Status DropProjection(const std::string& name);
  Result<const ProjectionDef*> GetProjection(const std::string& name) const;
  bool HasProjection(const std::string& name) const;
  // Stamps the populating commit epoch after CREATE PROJECTION commits.
  Status SetProjectionCreateEpoch(const std::string& name,
                                  storage::Epoch epoch);
  // Projections anchored on `table`, in name order.
  std::vector<const ProjectionDef*> ProjectionsOf(
      const std::string& table) const;

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ViewNames() const;
  std::vector<std::string> ProjectionNames() const;

 private:
  // Keys are lower-cased (SQL identifiers are case-insensitive).
  std::map<std::string, TableDef> tables_;
  std::map<std::string, ViewDef> views_;
  std::map<std::string, ProjectionDef> projections_;
};

}  // namespace fabric::vertica

#endif  // FABRIC_VERTICA_CATALOG_H_
