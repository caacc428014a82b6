#include "engine/snapshot.h"

#include <atomic>
#include <memory>
#include <utility>

#include "engine/backends.h"
#include "twohop/cover.h"

namespace hopi::engine {

namespace {

uint64_t NextVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

struct FreezeHolder {
  // Order matters: the index holds a pointer into `collection`, so the
  // collection member must be constructed first and destroyed last.
  collection::Collection collection;
  HopiIndex index;

  FreezeHolder(const collection::Collection& source_collection,
               twohop::TwoHopCover cover, bool with_distance)
      : collection(source_collection),
        index(&collection, std::move(cover), with_distance) {}
};

}  // namespace

BackendSnapshot::BackendSnapshot(
    std::shared_ptr<const collection::Collection> collection,
    std::function<std::unique_ptr<ReachabilityBackend>()> make_backend,
    std::shared_ptr<const void> keepalive,
    std::shared_ptr<const query::TagIndex> tags, const HopiIndex* index)
    : version_(NextVersion()),
      index_(index),
      collection_(std::move(collection)),
      tags_(tags ? std::move(tags)
                 : std::make_shared<query::TagIndex>(*collection_)),
      make_backend_(std::move(make_backend)),
      keepalive_(std::move(keepalive)) {}

std::shared_ptr<const BackendSnapshot> BackendSnapshot::OfIndex(
    std::shared_ptr<const HopiIndex> index,
    std::shared_ptr<const query::TagIndex> tags) {
  const HopiIndex* raw = index.get();
  auto collection = std::shared_ptr<const collection::Collection>(
      index, raw->collection());
  return std::shared_ptr<const BackendSnapshot>(new BackendSnapshot(
      std::move(collection),
      [raw] { return std::make_unique<HopiIndexBackend>(*raw); },
      std::move(index), std::move(tags), raw));
}

std::shared_ptr<const BackendSnapshot> BackendSnapshot::OfMappedStore(
    std::shared_ptr<const collection::Collection> collection,
    std::shared_ptr<const storage::MappedLinLoutStore> store,
    std::shared_ptr<const query::TagIndex> tags) {
  const storage::MappedLinLoutStore* raw = store.get();
  return std::shared_ptr<const BackendSnapshot>(new BackendSnapshot(
      std::move(collection),
      [raw] { return std::make_unique<MappedStoreBackend>(*raw); },
      std::move(store), std::move(tags), /*index=*/nullptr));
}

std::shared_ptr<const BackendSnapshot> BackendSnapshot::Freeze(
    const HopiIndex& index) {
  auto holder = std::make_shared<FreezeHolder>(
      *index.collection(), index.cover(), index.with_distance());
  const HopiIndex* raw = &holder->index;
  auto collection = std::shared_ptr<const collection::Collection>(
      holder, &holder->collection);
  return std::shared_ptr<const BackendSnapshot>(new BackendSnapshot(
      std::move(collection),
      [raw] { return std::make_unique<HopiIndexBackend>(*raw); },
      std::move(holder), nullptr, raw));
}

}  // namespace hopi::engine
