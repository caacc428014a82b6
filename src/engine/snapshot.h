// BackendSnapshot: one immutable, reference-counted serving unit.
//
// The serving layer (engine/engine_pool.h) runs many reader threads
// against one index while a maintenance path (hopi/maintenance.cc)
// mutates a *different*, private copy — HopiIndex's incremental
// operations rewrite labels in place and are not safe to run under
// concurrent readers. The snapshot is the hand-off object between the
// two worlds: it bundles an access path (the in-memory cover or the
// LIN/LOUT file reader), the collection it indexes, and a
// pre-built tag index, all frozen at creation, under one
// std::shared_ptr<const BackendSnapshot>. Publication is RCU-style:
// EnginePool::Swap() stores the new shared_ptr; readers that grabbed
// the old one keep it alive until their in-flight queries finish, and
// the last reference reclaims the old index. The index data itself is
// never locked and no reader ever observes a half-updated label set —
// the only synchronization on the serving path is one brief
// pointer-copy lock per *work item* (items are whole batches, so the
// critical section is amortized across hundreds of probes).
//
// Two ways to make one:
//   - the Of* factories share ownership of an existing immutable
//     object (use Unowned() for stack-owned objects that provably
//     outlive the pool — tests, benches);
//   - Freeze() deep-copies a live HopiIndex + collection, which is the
//     maintenance hand-off: mutate your private index, Freeze it,
//     Swap the frozen copy in, keep mutating the private one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "collection/collection.h"
#include "engine/backend.h"
#include "hopi/index.h"
#include "query/tag_index.h"
#include "storage/mapped_linlout.h"

namespace hopi::engine {

/// Non-owning shared_ptr over `object` (the aliasing constructor with
/// an empty control block). For handing stack- or caller-owned objects
/// to the Of* snapshot factories when the caller guarantees the object
/// outlives every snapshot reference.
template <typename T>
std::shared_ptr<const T> Unowned(const T& object) {
  return std::shared_ptr<const T>(std::shared_ptr<const void>(), &object);
}

class BackendSnapshot {
 public:
  // ---- factories over the two access paths ----
  //
  // Each shares ownership of the wrapped object(s) and builds the
  // snapshot's tag index eagerly (O(collection), paid once per
  // snapshot instead of once per serving thread) — or reuses a
  // caller-supplied `tags` built over the SAME collection object, so
  // rotating several snapshots of one collection (hopi / mapped over
  // the same cover, rollback pairs) pays the build once.
  // The wrapped objects must never be mutated while any snapshot
  // reference exists.

  /// In-memory 2-hop cover. The index's collection pointer must stay
  /// valid (Freeze() instead makes the snapshot self-contained).
  static std::shared_ptr<const BackendSnapshot> OfIndex(
      std::shared_ptr<const HopiIndex> index,
      std::shared_ptr<const query::TagIndex> tags = nullptr);

  /// The LIN/LOUT file reader; `collection` is the collection the
  /// store's cover was built from. N serving threads share one file
  /// image, each decoding blocks into its own engine's cache.
  static std::shared_ptr<const BackendSnapshot> OfMappedStore(
      std::shared_ptr<const collection::Collection> collection,
      std::shared_ptr<const storage::MappedLinLoutStore> store,
      std::shared_ptr<const query::TagIndex> tags = nullptr);

  /// Deep-copies `index` (cover + collection) into a self-contained
  /// snapshot. This is the maintenance hand-off: the source index may
  /// be freely mutated — or destroyed — afterwards. O(index size).
  /// Always builds a fresh tag index: the frozen collection is a new
  /// object, and a tag index bound to the still-mutable source would
  /// silently drift with it.
  static std::shared_ptr<const BackendSnapshot> Freeze(const HopiIndex& index);

  // ---- the frozen surface ----

  /// Process-wide monotonic id, assigned at snapshot creation. Pool
  /// responses carry the version of the snapshot that served them, so
  /// a client (or the stress test) can match answers to index states
  /// across Swaps.
  uint64_t version() const { return version_; }

  const collection::Collection& collection() const { return *collection_; }

  /// The snapshot-shared tag index (built over collection() at
  /// creation; immutable, safe to share across threads).
  const std::shared_ptr<const query::TagIndex>& tags() const { return tags_; }

  /// Fresh non-owning adapter viewing this snapshot's storage. The
  /// snapshot must outlive the adapter — callers keep their
  /// shared_ptr<const BackendSnapshot> alongside it (EnginePool workers
  /// store both in one WorkerState).
  std::unique_ptr<ReachabilityBackend> MakeBackend() const {
    return make_backend_();
  }

  /// True when every label read is a read of process memory (OfIndex,
  /// Freeze); false for OfMappedStore, whose block decodes can fault
  /// file pages in. EnginePool::ServeBatch serves only memory-resident
  /// snapshots on the caller's thread.
  bool memory_resident() const { return memory_resident_; }

 private:
  BackendSnapshot(std::shared_ptr<const collection::Collection> collection,
                  std::function<std::unique_ptr<ReachabilityBackend>()>
                      make_backend,
                  std::shared_ptr<const void> keepalive,
                  std::shared_ptr<const query::TagIndex> tags,
                  bool memory_resident);

  uint64_t version_;
  bool memory_resident_;
  std::shared_ptr<const collection::Collection> collection_;
  std::shared_ptr<const query::TagIndex> tags_;
  std::function<std::unique_ptr<ReachabilityBackend>()> make_backend_;
  // Owns whatever the backend factory captures raw pointers into (the
  // index / store, or Freeze's private copies).
  std::shared_ptr<const void> keepalive_;
};

}  // namespace hopi::engine
