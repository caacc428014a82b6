#include "storage/mapped_linlout.h"

#include <algorithm>
#include <unordered_map>

#include "twohop/join_kernel.h"

namespace hopi::storage {

namespace {

/// Handle group ids (see the header's block-handle contract).
constexpr uint64_t kGroupLin = 0;
constexpr uint64_t kGroupLout = 1;
constexpr uint64_t kGroupLinBwd = 2;
constexpr uint64_t kGroupLoutBwd = 3;

uint64_t MakeHandle(uint64_t group, uint64_t block_index) {
  return (group << 32) | block_index;
}

/// `key`'s row of a decoded block; empty when the block lacks it.
twohop::JoinView RowView(const DecodedBlock& block, uint32_t key) {
  int64_t r = block.RowIndexFor(key);
  return r < 0 ? twohop::JoinView::Empty()
               : block.JoinRow(static_cast<size_t>(r));
}

/// Caches block decodes within one scalar query (Descendants probes
/// many centers whose backward rows often share a block).
class LocalBlockCache {
 public:
  explicit LocalBlockCache(const MappedLinLoutStore* store) : store_(store) {}

  /// Null on decode failure (the infallible query shapes degrade to
  /// "no rows"; checked access goes through the store's Result API).
  const DecodedBlock* Get(uint64_t handle) {
    auto it = blocks_.find(handle);
    if (it != blocks_.end()) return it->second.get();
    auto decoded = store_->DecodeBlock(handle);
    std::shared_ptr<const DecodedBlock> block =
        decoded.ok() ? std::move(*decoded) : nullptr;
    return blocks_.emplace(handle, std::move(block)).first->second.get();
  }

 private:
  const MappedLinLoutStore* store_;
  std::unordered_map<uint64_t, std::shared_ptr<const DecodedBlock>> blocks_;
};

}  // namespace

Result<MappedLinLoutStore> MappedLinLoutStore::Open(
    const std::string& path, MappedOpenOptions options) {
  MappedLinLoutStore store;
  if (options.prefer_mmap && MappedFile::Supported()) {
    auto map = MappedFile::Open(path);
    if (map.ok()) {
      store.map_.emplace(std::move(*map));
    } else if (!map.status().IsUnsupported()) {
      return map.status();  // missing/unreadable file: no fallback helps
    }
    // Unsupported (kernel refused the map): fall through to the
    // buffered path below.
  }
  std::span<const std::byte> image;
  if (store.map_) {
    image = {store.map_->data(), store.map_->size()};
  } else {
    HOPI_ASSIGN_OR_RETURN(store.buffer_, ReadFileImage(path));
    image = store.buffer_;
  }
  store.file_bytes_ = image.size();
  ParseV4Options parse_options;
  parse_options.verify_file_checksum = options.verify_file_checksum;
  HOPI_ASSIGN_OR_RETURN(store.view_, ParseV4(image, path, parse_options));
  store.num_lin_entries_ = store.view_.lin.TotalEntries();
  store.num_lout_entries_ = store.view_.lout.TotalEntries();
  return store;
}

// ---- block access ----

const LabelSectionView* MappedLinLoutStore::SectionForGroup(
    uint64_t group) const {
  switch (group) {
    case kGroupLin:
      return &view_.lin;
    case kGroupLout:
      return &view_.lout;
    case kGroupLinBwd:
      return &view_.lin_bwd;
    case kGroupLoutBwd:
      return &view_.lout_bwd;
    default:
      return nullptr;
  }
}

std::optional<uint64_t> MappedLinLoutStore::FindRow(uint64_t group,
                                                   uint32_t key) const {
  const LabelSectionView* section = SectionForGroup(group);
  // Directory lookup: is there a row for this key at all?
  size_t lo = 0, hi = section->dir.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (section->dir[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == section->dir.size() || section->dir[lo].key != key) {
    return std::nullopt;
  }
  // Block lookup: the last block whose first_dir <= the row's index.
  // Blocks tile the directory (ParseV4 verified), so this block holds
  // the row.
  size_t blo = 0, bhi = section->blocks.size();
  while (blo < bhi) {
    size_t mid = blo + (bhi - blo) / 2;
    if (section->blocks[mid].first_dir <= lo) {
      blo = mid + 1;
    } else {
      bhi = mid;
    }
  }
  return MakeHandle(group, blo - 1);
}

std::optional<uint64_t> MappedLinLoutStore::LinBlockHandle(NodeId id) const {
  return FindRow(kGroupLin, id);
}

std::optional<uint64_t> MappedLinLoutStore::LoutBlockHandle(NodeId id) const {
  return FindRow(kGroupLout, id);
}

Result<std::shared_ptr<const DecodedBlock>> MappedLinLoutStore::DecodeBlock(
    uint64_t handle) const {
  const uint64_t group = handle >> 32;
  const uint64_t index = handle & 0xFFFFFFFFu;
  const LabelSectionView* section = SectionForGroup(group);
  if (section == nullptr || index >= section->blocks.size()) {
    return Status::InvalidArgument("unknown block handle " +
                                   std::to_string(handle));
  }
  // Backward sections are dist-less regardless of the store flag.
  const bool with_distance =
      view_.with_distance && (group == kGroupLin || group == kGroupLout);
  Result<DecodedBlock> decoded = DecodeLabelBlock(
      section->blob, section->dir, section->blocks[index], with_distance);
  if (!decoded.ok()) {
    return Status::Corruption(std::string(decoded.status().message())
                                  .append(" in block ")
                                  .append(std::to_string(index))
                                  .append(" of section group ")
                                  .append(std::to_string(group)));
  }
  return std::make_shared<const DecodedBlock>(std::move(*decoded));
}

Result<PinnedJoin> MappedLinLoutStore::DecodeForwardRow(uint64_t group,
                                                        NodeId id) const {
  std::optional<uint64_t> handle = FindRow(group, id);
  if (!handle) return PinnedJoin{twohop::JoinView::Empty(), nullptr};
  HOPI_ASSIGN_OR_RETURN(std::shared_ptr<const DecodedBlock> block,
                        DecodeBlock(*handle));
  twohop::JoinView view = RowView(*block, id);
  return PinnedJoin{view, std::move(block)};
}

Result<PinnedJoin> MappedLinLoutStore::DecodeLinRow(NodeId id) const {
  return DecodeForwardRow(kGroupLin, id);
}

Result<PinnedJoin> MappedLinLoutStore::DecodeLoutRow(NodeId id) const {
  return DecodeForwardRow(kGroupLout, id);
}

Status MappedLinLoutStore::VerifyBlocks() const {
  for (uint64_t group = 0; group < 4; ++group) {
    const LabelSectionView* section = SectionForGroup(group);
    for (size_t i = 0; i < section->blocks.size(); ++i) {
      HOPI_RETURN_NOT_OK(DecodeBlock(MakeHandle(group, i)).status());
    }
  }
  return Status::OK();
}

// ---- the paper's query shapes ----

twohop::LabelJoinResult MappedLinLoutStore::Join(NodeId id1, NodeId id2,
                                                 bool want_distance) const {
  auto lout = DecodeLoutRow(id1);
  auto lin = DecodeLinRow(id2);
  if (!lout.ok() || !lin.ok()) return {};  // post-Open corruption only
  return twohop::JoinViews(id1, id2, lout->view, lin->view, want_distance);
}

bool MappedLinLoutStore::TestConnection(NodeId id1, NodeId id2) const {
  if (id1 == id2) return true;
  return Join(id1, id2, /*want_distance=*/false).connected;
}

std::optional<uint32_t> MappedLinLoutStore::MinDistance(NodeId id1,
                                                        NodeId id2) const {
  if (id1 == id2) return 0;
  return Join(id1, id2, /*want_distance=*/true).distance;
}

std::vector<NodeId> MappedLinLoutStore::Expand(NodeId id,
                                               bool descendants) const {
  // The backward row of a center lists the nodes whose LIN (for
  // descendants) or LOUT (for ancestors) mentions it.
  LocalBlockCache blocks(this);
  auto backward_row = [&](NodeId center) -> twohop::JoinView {
    std::optional<uint64_t> handle =
        FindRow(descendants ? kGroupLinBwd : kGroupLoutBwd, center);
    if (!handle) return twohop::JoinView::Empty();
    const DecodedBlock* block = blocks.Get(*handle);
    return block == nullptr ? twohop::JoinView::Empty()
                            : RowView(*block, center);
  };
  std::vector<NodeId> result;
  auto forward = descendants ? DecodeLoutRow(id) : DecodeLinRow(id);
  if (forward.ok()) {
    for (twohop::LabelEntry e : forward->view) {
      if (e.center != id) result.push_back(e.center);  // the center itself
      for (twohop::LabelEntry x : backward_row(e.center)) {
        if (x.center != id) result.push_back(x.center);
      }
    }
  }
  // Implicit self center: nodes whose LIN (LOUT) mentions `id`.
  for (twohop::LabelEntry x : backward_row(id)) result.push_back(x.center);
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<NodeId> MappedLinLoutStore::Descendants(NodeId id) const {
  return Expand(id, /*descendants=*/true);
}

std::vector<NodeId> MappedLinLoutStore::Ancestors(NodeId id) const {
  return Expand(id, /*descendants=*/false);
}

}  // namespace hopi::storage
