// LIN/LOUT index-organized tables (paper Sec 3.4 / Sec 5.1) — the
// writer.
//
// The paper stores the cover in two Oracle tables,
//   LIN(ID, INID[, DIST])  and  LOUT(ID, OUTID[, DIST]),
// each as an index-organized table sorted by the *forward* key (ID, INID)
// plus a *backward* index on (INID, ID) — doubling the stored integers.
// LinLoutStore lays a cover out as exactly those four sorted runs and
// persists them in the versioned file format (storage/format.h). The
// paper's access paths over the persisted tables — the connection test
// (SELECT COUNT(*) ... WHERE LOUT.OUTID = LIN.INID), the distance
// lookup (SELECT MIN(LOUT.DIST + LIN.DIST) ...), and the backward
// probes for descendants and ancestors — are served by the one reader,
// MappedLinLoutStore (storage/mapped_linlout.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "storage/compress.h"
#include "twohop/cover.h"
#include "util/result.h"

namespace hopi::storage {

/// Writer knobs for WriteToFile.
struct StoreWriteOptions {
  /// The version to write. This build writes only kFormatVersionV4
  /// (block-compressed rows, decoded lazily by MappedLinLoutStore);
  /// any other value makes WriteToFile return InvalidArgument.
  uint32_t format_version = 4;
  /// Block sizing.
  CompressOptions compress;
};

/// One table row: a node and one center from its label.
struct TableRow {
  NodeId id;
  NodeId center;
  uint32_t dist;
};

class LinLoutStore {
 public:
  LinLoutStore() = default;

  /// Loads the cover into the four sorted runs.
  static LinLoutStore FromCover(const twohop::TwoHopCover& cover,
                                bool with_distance);

  // ---- storage accounting (Sec 7.2) ----

  /// Total label entries (|L| — rows across LIN and LOUT).
  uint64_t NumEntries() const { return lin_fwd_.size() + lout_fwd_.size(); }

  /// Integers stored: 2 per row in the forward table + 2 per row in the
  /// backward index (plus one DIST integer per forward row when
  /// distance-aware), matching the paper's arithmetic.
  uint64_t StorageIntegers() const;

  bool with_distance() const { return with_distance_; }

  // ---- persistence ----
  //
  // Files use the versioned on-disk format defined in storage/format.h
  // and specified byte-by-byte in docs/FILE_FORMAT.md: v4, with
  // block-compressed rows, a section table and a trailing CRC-32.
  // Writes are crash-safe: the image is staged in a sibling temp file,
  // fsynced, and atomically renamed into place, so readers see either
  // the old file or the new one — never a torn mix. Errors:
  // InvalidArgument for a version this build cannot write, IOError.
  Status WriteToFile(const std::string& path,
                     const StoreWriteOptions& options = {}) const;

 private:
  // Forward runs sorted by (id, center); backward runs by (center, id).
  std::vector<TableRow> lin_fwd_;
  std::vector<TableRow> lin_bwd_;
  std::vector<TableRow> lout_fwd_;
  std::vector<TableRow> lout_bwd_;
  bool with_distance_ = false;
};

}  // namespace hopi::storage
