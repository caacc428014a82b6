#include "hopi/index.h"

#include "hopi/join.h"

namespace hopi {

HopiIndex::HopiIndex(collection::Collection* collection,
                     twohop::TwoHopCover cover, bool with_distance)
    : collection_(collection),
      cover_(std::move(cover)),
      with_distance_(with_distance) {
  cover_.EnsureNodes(collection->NumElements());
  size_t live = 0;
  for (collection::DocId d = 0; d < collection_->NumDocuments(); ++d) {
    if (collection_->IsLive(d)) live += collection_->ElementsOf(d).size();
  }
  density_at_build_ =
      live == 0 ? 0.0
                : static_cast<double>(cover_.cover().Size()) /
                      static_cast<double>(live);
}

double HopiIndex::DegradationFactor() const {
  if (density_at_build_ <= 0.0) return 1.0;
  size_t live = 0;
  for (collection::DocId d = 0; d < collection_->NumDocuments(); ++d) {
    if (collection_->IsLive(d)) live += collection_->ElementsOf(d).size();
  }
  if (live == 0) return 1.0;
  double density = static_cast<double>(cover_.cover().Size()) /
                   static_cast<double>(live);
  return density / density_at_build_;
}

Status HopiIndex::InsertLink(NodeId u, NodeId v) {
  if (u >= collection_->NumElements() || v >= collection_->NumElements()) {
    return Status::InvalidArgument("link endpoint out of range");
  }
  cover_.EnsureNodes(collection_->NumElements());
  if (!collection_->AddLink(u, v)) {
    return Status::InvalidArgument("link already present");
  }
  MergeLink(u, v, with_distance_, &cover_);
  return Status::OK();
}

}  // namespace hopi
