#include "storage/linlout.h"

#include <algorithm>

#include "storage/format.h"

namespace hopi::storage {

// On-disk layout: storage/format.h (constants + codec) and
// docs/FILE_FORMAT.md (byte-level spec). This file only lays the cover
// out as sorted runs.

LinLoutStore LinLoutStore::FromCover(const twohop::TwoHopCover& cover,
                                     bool with_distance) {
  LinLoutStore store;
  store.with_distance_ = with_distance;
  // Node-major iteration over center-sorted labels already yields the
  // forward runs in (id, center) order.
  for (NodeId v = 0; v < cover.NumNodes(); ++v) {
    for (twohop::LabelEntry e : cover.In(v)) {
      store.lin_fwd_.push_back({v, e.center, with_distance ? e.dist : 0});
    }
    for (twohop::LabelEntry e : cover.Out(v)) {
      store.lout_fwd_.push_back({v, e.center, with_distance ? e.dist : 0});
    }
  }
  auto by_center_id = [](const TableRow& a, const TableRow& b) {
    return a.center != b.center ? a.center < b.center : a.id < b.id;
  };
  store.lin_bwd_ = store.lin_fwd_;
  store.lout_bwd_ = store.lout_fwd_;
  std::sort(store.lin_bwd_.begin(), store.lin_bwd_.end(), by_center_id);
  std::sort(store.lout_bwd_.begin(), store.lout_bwd_.end(), by_center_id);
  return store;
}

uint64_t LinLoutStore::StorageIntegers() const {
  uint64_t per_row = 2 + (with_distance_ ? 1 : 0);
  // Forward table + backward index.
  return NumEntries() * per_row * 2;
}

Status LinLoutStore::WriteToFile(const std::string& path,
                                 const StoreWriteOptions& options) const {
  if (options.format_version != kFormatVersionV4) {
    return Status::InvalidArgument(
        "cannot write LIN/LOUT format version " +
        std::to_string(options.format_version) + "; this build writes " +
        std::to_string(kFormatVersionV4) + " only");
  }
  return AtomicWriteFile(
      path, BuildFileImageV4(lin_fwd_, lout_fwd_, lin_bwd_, lout_bwd_,
                             with_distance_, options.compress));
}

}  // namespace hopi::storage
