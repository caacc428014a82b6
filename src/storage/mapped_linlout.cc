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

/// An empty label (the summary rejects every probe outright).
twohop::JoinView EmptyView() {
  return twohop::JoinView::FromEntries(nullptr, 0);
}

/// `key`'s row of a decoded block; empty when the block lacks it.
twohop::JoinView RowView(const DecodedBlock& block, uint32_t key) {
  int64_t r = block.RowIndexFor(key);
  return r < 0 ? EmptyView() : block.JoinRow(static_cast<size_t>(r));
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
  HOPI_ASSIGN_OR_RETURN(RawHeader header, ReadRawHeader(image, path));
  if (header.version != kFormatVersion && header.version != kFormatVersionV4) {
    return Status::Unsupported(
        "LIN/LOUT file " + path + " has format version " +
        std::to_string(header.version) + "; this build reads versions " +
        std::to_string(kFormatVersion) + " and " +
        std::to_string(kFormatVersionV4) +
        " — rebuild the store from the cover");
  }
  if (header.version == kFormatVersionV4) {
    ParseV4Options parse_options;
    parse_options.verify_file_checksum = options.verify_file_checksum;
    HOPI_ASSIGN_OR_RETURN(store.view4_,
                          ParseV4(image, path, parse_options));
    store.version_ = kFormatVersionV4;
    store.num_lin_entries_ = store.view4_.lin.TotalEntries();
    store.num_lout_entries_ = store.view4_.lout.TotalEntries();
    return store;
  }
  HOPI_ASSIGN_OR_RETURN(store.view_, ParseV3(image, path));
  store.version_ = kFormatVersion;
  store.num_lin_entries_ = store.view_.lin_rows.size();
  store.num_lout_entries_ = store.view_.lout_rows.size();
  return store;
}

// ---- v4 block access ----

const LabelSectionView* MappedLinLoutStore::SectionForGroup(
    uint64_t group) const {
  switch (group) {
    case kGroupLin:
      return &view4_.lin;
    case kGroupLout:
      return &view4_.lout;
    case kGroupLinBwd:
      return &view4_.lin_bwd;
    case kGroupLoutBwd:
      return &view4_.lout_bwd;
    default:
      return nullptr;
  }
}

std::optional<uint64_t> MappedLinLoutStore::FindRow(uint64_t group,
                                                   uint32_t key) const {
  if (!compressed()) return std::nullopt;
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
  if (!compressed()) {
    return Status::InvalidArgument(
        "block handles only exist for v4 (compressed) stores");
  }
  const uint64_t group = handle >> 32;
  const uint64_t index = handle & 0xFFFFFFFFu;
  const LabelSectionView* section = SectionForGroup(group);
  if (section == nullptr || index >= section->blocks.size()) {
    return Status::InvalidArgument("unknown block handle " +
                                   std::to_string(handle));
  }
  // Backward sections are dist-less regardless of the store flag.
  const bool with_distance =
      view4_.with_distance && (group == kGroupLin || group == kGroupLout);
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
  if (!compressed()) {
    auto rows = group == kGroupLin ? LinSpan(id) : LoutSpan(id);
    return PinnedJoin{twohop::JoinView::FromEntries(rows.data(), rows.size()),
                      nullptr};
  }
  std::optional<uint64_t> handle = FindRow(group, id);
  if (!handle) return PinnedJoin{EmptyView(), nullptr};
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
  if (!compressed()) return Status::OK();
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
    if (!compressed()) {
      std::span<const uint32_t> ids =
          descendants
              ? LookupRows(view_.lin_bwd_dir, view_.lin_bwd_ids, center)
              : LookupRows(view_.lout_bwd_dir, view_.lout_bwd_ids, center);
      twohop::JoinView v;
      v.centers = ids.data();
      v.n = ids.size();
      return v;
    }
    std::optional<uint64_t> handle =
        FindRow(descendants ? kGroupLinBwd : kGroupLoutBwd, center);
    if (!handle) return EmptyView();
    const DecodedBlock* block = blocks.Get(*handle);
    return block == nullptr ? EmptyView() : RowView(*block, center);
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
