// The concrete ReachabilityBackend adapters (paper Sec 5.1's access
// paths):
//
//   HopiIndexBackend      in-memory 2-hop cover labels (hopi/index.h),
//   MappedStoreBackend    the LIN/LOUT file reader, mmapped or buffered
//                         (storage/mapped_linlout.h),
//   ClosureBackend        the materialized transitive closure baseline
//                         (hopi/baseline.h).
//
// All adapters are non-owning views: the wrapped index must outlive the
// adapter. They are header-only so thin shims can construct them
// without linking the engine library.
//
// Thread sharing: every adapter is stateless beyond its wrapped
// pointer, so any number of threads may query one adapter — or their
// own adapters over one store — concurrently, PROVIDED the wrapped
// object is never mutated meanwhile. engine/snapshot.h packages that
// guarantee (BackendSnapshot keeps the store alive and frozen and
// hands each EnginePool worker a fresh adapter via MakeBackend).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "engine/backend.h"
#include "hopi/baseline.h"
#include "hopi/index.h"
#include "storage/mapped_linlout.h"

namespace hopi::engine {

/// Adapter over the in-memory HopiIndex (2-hop cover labels). Labels
/// are lent straight from the cover's packed columns — no copies, no
/// cache needed. Safe to share across serving threads only while no
/// maintenance operation mutates the index; for live maintenance, serve
/// a BackendSnapshot::Freeze copy instead (see engine/snapshot.h).
class HopiIndexBackend final : public ReachabilityBackend {
 public:
  explicit HopiIndexBackend(const HopiIndex& index) : index_(&index) {}

  std::string_view Name() const override { return "hopi"; }
  bool with_distance() const override { return index_->with_distance(); }

  bool IsReachable(NodeId u, NodeId v) const override {
    return index_->IsReachable(u, v);
  }
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const override {
    return index_->Distance(u, v);
  }
  std::vector<NodeId> Descendants(NodeId u) const override {
    return index_->Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return index_->Ancestors(u);
  }

  bool HasLabels() const override { return true; }
  std::optional<twohop::JoinView> BorrowOutJoin(NodeId u) const override {
    const twohop::TwoHopCover& cover = index_->cover();
    return u < cover.NumNodes() ? cover.Out(u) : twohop::JoinView{};
  }
  std::optional<twohop::JoinView> BorrowInJoin(NodeId v) const override {
    const twohop::TwoHopCover& cover = index_->cover();
    return v < cover.NumNodes() ? cover.In(v) : twohop::JoinView{};
  }

 private:
  const HopiIndex* index_;
};

/// Adapter over the LIN/LOUT file reader. It speaks the block route:
/// it names the block holding a node's row and decodes it on demand,
/// and the engine's byte-budgeted cache keeps hot blocks resident.
/// Nodes without rows borrow an engaged empty view — no decode for
/// them.
class MappedStoreBackend final : public ReachabilityBackend {
 public:
  explicit MappedStoreBackend(const storage::MappedLinLoutStore& store)
      : store_(&store) {}

  std::string_view Name() const override { return "mapped"; }
  bool with_distance() const override { return store_->with_distance(); }

  bool IsReachable(NodeId u, NodeId v) const override {
    return store_->TestConnection(u, v);
  }
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const override {
    return store_->MinDistance(u, v);
  }
  std::vector<NodeId> Descendants(NodeId u) const override {
    return store_->Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return store_->Ancestors(u);
  }

  bool HasLabels() const override { return true; }
  std::optional<twohop::JoinView> BorrowOutJoin(NodeId u) const override {
    return BorrowEmpty(store_->LoutBlockHandle(u));
  }
  std::optional<twohop::JoinView> BorrowInJoin(NodeId v) const override {
    return BorrowEmpty(store_->LinBlockHandle(v));
  }
  std::optional<uint64_t> OutLabelBlock(NodeId u) const override {
    return store_->LoutBlockHandle(u);
  }
  std::optional<uint64_t> InLabelBlock(NodeId v) const override {
    return store_->LinBlockHandle(v);
  }
  Result<LabelBlock> DecodeLabelBlock(uint64_t handle) const override {
    return store_->DecodeBlock(handle);
  }

 private:
  /// The one label this backend lends: the empty one of a node without
  /// a block. A node with a block is served by the block route.
  static std::optional<twohop::JoinView> BorrowEmpty(
      std::optional<uint64_t> block) {
    if (block) return std::nullopt;
    return twohop::JoinView::Empty();
  }

  const storage::MappedLinLoutStore* store_;
};

/// Adapter over the materialized transitive-closure baseline. Carries no
/// 2-hop labels, so the QueryEngine batch path probes it directly.
class ClosureBackend final : public ReachabilityBackend {
 public:
  /// `with_distance` must match the flag the closure was built with
  /// (TransitiveClosureIndex does not expose it).
  ClosureBackend(const TransitiveClosureIndex& closure, bool with_distance)
      : closure_(&closure), with_distance_(with_distance) {}

  std::string_view Name() const override { return "closure"; }
  bool with_distance() const override { return with_distance_; }

  bool IsReachable(NodeId u, NodeId v) const override {
    return closure_->IsReachable(u, v);
  }
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const override {
    return closure_->Distance(u, v);
  }
  std::vector<NodeId> Descendants(NodeId u) const override {
    return closure_->Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return closure_->Ancestors(u);
  }

 private:
  const TransitiveClosureIndex* closure_;
  bool with_distance_;
};

}  // namespace hopi::engine
