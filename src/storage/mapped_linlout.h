// The one reader for LIN/LOUT files: maps the file read-only and
// serves queries off the page cache.
//
// Label rows live in compressed blocks (storage/compress.h) and are
// decoded on demand: LinBlockHandle/LoutBlockHandle name the block
// holding a node's row, DecodeBlock materializes it as a shared,
// immutable DecodedBlock, and DecodeLinRow/DecodeLoutRow pin one row.
// The engine caches the decoded blocks by byte budget
// (engine/label_cache.h), so hot rows stay cheap while the file itself
// can be far bigger than RAM — Open touches only the metadata
// sections, never the blobs.
//
// Open() validates before any query can dereference: header, section
// bounds, directory sortedness, and — per MappedOpenOptions — either
// the whole-file CRC-32 (the default; decode can then only fail if
// the file is tampered with after Open) or, for lazy opens, the
// metadata CRC now plus each block's CRC at first decode. A torn or
// bit-flipped file fails with Status::Corruption; decode-time
// corruption surfaces through the Result-returning accessors, while
// the infallible conveniences (TestConnection, Descendants, ...)
// degrade to "no rows" — never a crash or silently wrong rows.
//
// On platforms without mmap (or when the kernel refuses the map, or
// the caller asks for it) Open falls back to one buffered read of the
// whole file into a private heap image; every query path and every
// validation is identical, only the backing memory differs.
//
// A MappedLinLoutStore is immutable and therefore safe to share across
// threads once constructed (block decoding allocates fresh
// DecodedBlocks; it never mutates the store).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "storage/compress.h"
#include "storage/format.h"
#include "twohop/cover.h"
#include "util/mmap_file.h"
#include "util/result.h"

namespace hopi::storage {

struct MappedOpenOptions {
  /// When false, skip mmap and take the buffered-fallback path even
  /// where mmap is available (used by tests and benchmarks to compare
  /// the two modes; queries behave identically).
  bool prefer_mmap = true;
  /// When false, Open skips the whole-file checksum: the metadata CRC
  /// is still verified (structure is always trusted-after-check) but
  /// blob bytes wait for their per-block CRC at first decode — the
  /// lazy open for covers bigger than RAM.
  bool verify_file_checksum = true;
};

class MappedLinLoutStore {
 public:
  /// Opens and validates `path`. Errors: IOError (missing/unreadable
  /// file), Corruption (torn write, checksum mismatch, inconsistent
  /// sections), Unsupported (any version but 4, the v3 raw-row layout
  /// included — rebuild such a store from its cover).
  static Result<MappedLinLoutStore> Open(const std::string& path,
                                         MappedOpenOptions options = {});

  // ---- the paper's query shapes (Sec 5.1) ----

  /// True iff id1 ->* id2 according to the stored cover (reflexive).
  bool TestConnection(NodeId id1, NodeId id2) const;

  /// Minimum connection length, nullopt when unconnected; 0 for every
  /// connected pair of a store written without distances.
  std::optional<uint32_t> MinDistance(NodeId id1, NodeId id2) const;

  /// All strict descendants of `id` (sorted), via the persisted
  /// backward LIN sections.
  std::vector<NodeId> Descendants(NodeId id) const;

  /// All strict ancestors of `id` (sorted), via the persisted backward
  /// LOUT sections.
  std::vector<NodeId> Ancestors(NodeId id) const;

  // ---- block-wise label access ----
  //
  // A block handle names one compressed block: (section group << 32) |
  // block index, where the group is 0=LIN, 1=LOUT, 2=backward LIN,
  // 3=backward LOUT. Handles are dense per section and stable for the
  // store's lifetime — the engine uses them as cache keys.

  /// Handle of the block holding LIN(id) / LOUT(id); nullopt when the
  /// node has no rows on that side.
  std::optional<uint64_t> LinBlockHandle(NodeId id) const;
  std::optional<uint64_t> LoutBlockHandle(NodeId id) const;

  /// Decodes one block (CRC + full structural validation). Errors:
  /// InvalidArgument (foreign handle), Corruption (bit rot — only
  /// reachable on lazy opens or post-Open tampering).
  Result<std::shared_ptr<const DecodedBlock>> DecodeBlock(
      uint64_t handle) const;

  /// Checked row access: LIN(id) / LOUT(id) as a kernel view, the
  /// decoded row pinned by its block. A node without rows yields an
  /// engaged, empty view (null pin).
  Result<PinnedJoin> DecodeLinRow(NodeId id) const;
  Result<PinnedJoin> DecodeLoutRow(NodeId id) const;

  /// Decodes every block of every section once (discarding the rows):
  /// the full-integrity sweep a lazy open defers.
  Status VerifyBlocks() const;

  // ---- storage accounting (as LinLoutStore counts it) ----

  uint64_t NumEntries() const { return num_lin_entries_ + num_lout_entries_; }
  uint64_t StorageIntegers() const {
    return NumEntries() * (2 + (with_distance() ? 1 : 0)) * 2;
  }
  bool with_distance() const { return view_.with_distance; }

  /// On-disk size (bytes/entry accounting in the storage bench).
  uint64_t file_bytes() const { return file_bytes_; }

  /// True when backed by an actual memory map; false on the buffered
  /// fallback path.
  bool mapped() const { return map_.has_value(); }

 private:
  MappedLinLoutStore() = default;

  /// The four label sections by handle group (0..3).
  const LabelSectionView* SectionForGroup(uint64_t group) const;
  /// Handle of the block holding `key`'s row in `group`'s section;
  /// nullopt when the key has no row there.
  std::optional<uint64_t> FindRow(uint64_t group, uint32_t key) const;
  Result<PinnedJoin> DecodeForwardRow(uint64_t group, NodeId id) const;
  /// The 2-hop join of LOUT(id1) and LIN(id2); empty on decode failure.
  twohop::LabelJoinResult Join(NodeId id1, NodeId id2,
                               bool want_distance) const;
  /// Descendants (forward LOUT row, backward LIN rows) or ancestors
  /// (forward LIN row, backward LOUT rows) of `id`, sorted.
  std::vector<NodeId> Expand(NodeId id, bool descendants) const;

  // Exactly one of map_/buffer_ backs the view; both keep their data
  // pointer stable under move, so its spans survive moves.
  std::optional<MappedFile> map_;
  std::vector<std::byte> buffer_;
  FileViewV4 view_;
  uint64_t num_lin_entries_ = 0;
  uint64_t num_lout_entries_ = 0;
  uint64_t file_bytes_ = 0;
};

}  // namespace hopi::storage
