// Block compression for LIN/LOUT label rows (the v4 section type).
//
// Raw (center u32, dist u32) rows would let a mapped store serve only
// covers whose labels fit uncompressed. v4 instead packs rows into
// self-contained compressed blocks, following the delta +
// prefix-clustering design the ROADMAP cites (CSIndex's DataComp):
// centers inside a row are sorted and unique, so they delta-encode as
// varints, and consecutive rows in a cover are highly similar, so a
// sliding-window clustering pass makes the first row of each block the
// cluster dictionary and stores only the shared-prefix length for the
// rows after it.
//
// One block is the unit of IO, checksumming, decoding and caching:
//
//   block   := row*                        (concatenated, no padding)
//   row     := prefix_count:varint         entries shared with the
//                                          block's first row (0 for the
//                                          first row itself)
//              suffix_entry*               count = dir.count - prefix
//   suffix_entry := delta:varint           center - prev_center - 1
//                                          (prev = last prefix center,
//                                          or "none" -> raw center)
//              [dist:varint]               only in with_distance
//                                          forward sections
//
// Row keys and counts live in the per-section directory (V4DirEntry),
// NOT in the blob — the decoder always knows how many entries to read,
// so a corrupt length cannot make it run away. Every block carries a
// CRC-32 in its V4BlockEntry and decoding revalidates structure
// (bounds, ascending centers, exact byte consumption) before any entry
// is returned: a bit-flipped blob surfaces as Status::Corruption,
// never a crash or silently wrong rows.
//
// DecodedBlock is deliberately defined inline here: engine/backend.h
// exposes it as the unit of the engine's byte-budgeted block cache,
// and that header must stay usable without linking the storage
// library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "twohop/cover.h"
#include "util/result.h"

namespace hopi::storage {

/// Directory entry of a v4 label section: one per row (node id for
/// forward sections, center id for backward sections), sorted by key.
/// There is no `begin` — row positions follow from the cumulative
/// counts, and the block table says which block holds which row range.
struct V4DirEntry {
  uint32_t key;
  uint32_t count;  // entries in this row, always >= 1
};
static_assert(sizeof(V4DirEntry) == 8 && alignof(V4DirEntry) == 4);

/// Block table entry of a v4 label section: one compressed block of
/// consecutive rows. Blocks tile their section exactly: block i's rows
/// start where block i-1's ended (same for blob bytes), which the
/// parser verifies before any block is decoded.
struct V4BlockEntry {
  uint64_t blob_offset;  // first byte in the section's blob
  uint32_t blob_bytes;   // encoded size, > 0
  uint32_t crc;          // CRC-32 of the encoded bytes
  uint64_t first_dir;    // index of the block's first row in the dir
  uint32_t num_rows;     // rows in this block, >= 1
  uint32_t num_entries;  // sum of dir counts over those rows
};
static_assert(sizeof(V4BlockEntry) == 32 && alignof(V4BlockEntry) == 8);

/// Writer knobs for the clustering pass. A block closes at
/// target_block_bytes, or earlier at a cluster boundary once it holds
/// cluster_split_bytes. On clustered covers the split closes almost
/// every block, well under the target (on the 1000-document DBLP
/// collection, all but the last forward block of each section close
/// there, averaging about 1.1 KB). A block is what one cold probe
/// decodes: big enough to amortize its dictionary row, small enough to
/// decode in microseconds.
struct CompressOptions {
  /// Close the current block once its encoded bytes reach this.
  size_t target_block_bytes = 4096;
  /// Close early when a row shares no prefix with the current
  /// dictionary row and the block already holds this many bytes —
  /// the sliding-window cluster split (a new cluster seeds a new
  /// dictionary instead of storing the divergent row verbatim).
  size_t cluster_split_bytes = 1024;
};

/// One fully decoded block: every row as packed label columns plus a
/// summary per row, and the row directory needed to find a key's row.
/// This is the unit the engine's LabelCache holds (shared_ptr-pinned:
/// eviction drops the cache's reference, in-flight views keep the
/// block alive).
struct DecodedBlock {
  std::vector<uint32_t> row_keys;       // strictly ascending
  std::vector<uint32_t> row_begin;      // row_keys.size() + 1 offsets
  std::vector<uint32_t> centers;        // rows back to back
  std::vector<uint32_t> dists;          // parallel to centers
  std::vector<uint64_t> row_summaries;  // LabelSummary word per row

  size_t NumRows() const { return row_keys.size(); }

  /// Heap footprint for the cache's byte budget.
  size_t ApproxBytes() const {
    return sizeof(DecodedBlock) + row_keys.size() * sizeof(uint32_t) +
           row_begin.size() * sizeof(uint32_t) +
           centers.size() * sizeof(uint32_t) +
           dists.size() * sizeof(uint32_t) +
           row_summaries.size() * sizeof(uint64_t);
  }

  /// Packed kernel-ready view of row r (columns + summary).
  twohop::JoinView JoinRow(size_t r) const {
    twohop::JoinView v;
    v.centers = centers.data() + row_begin[r];
    v.dists = dists.data() + row_begin[r];
    v.n = row_begin[r + 1] - row_begin[r];
    v.summary = twohop::LabelSummary{row_summaries[r]};
    return v;
  }

  /// Binary search by row key; -1 when the key is not in this block.
  int64_t RowIndexFor(uint32_t key) const {
    size_t lo = 0, hi = row_keys.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (row_keys[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == row_keys.size() || row_keys[lo] != key) return -1;
    return static_cast<int64_t>(lo);
  }
};

/// A label view plus whatever keeps it alive — the one pinned label
/// type. `block` is null when the view borrows storage that lives as
/// long as its owner anyway (an in-memory cover, or none at all for an
/// empty row); otherwise it pins the DecodedBlock the view aliases, so
/// a cache eviction cannot invalidate the view. Hold the PinnedJoin,
/// not just the view: a bare view must not outlive its pin.
struct PinnedJoin {
  twohop::JoinView view;
  std::shared_ptr<const DecodedBlock> block;
};

/// One input row for the encoder: a key and its sorted, unique-center
/// entries. Rows must arrive sorted by key; empty rows are skipped
/// (absent and empty are the same thing in the format).
struct LabelRowRef {
  uint32_t key;
  std::span<const twohop::LabelEntry> entries;
};

/// A fully encoded v4 label section, ready to be laid into the file:
/// the directory, the block table, and the concatenated block bytes.
struct EncodedLabelSection {
  std::vector<V4DirEntry> dir;
  std::vector<V4BlockEntry> blocks;
  std::vector<std::byte> blob;
};

/// Compresses `rows` (sorted by key, centers sorted and unique within
/// each row) into blocks. `with_distance` selects whether per-entry
/// distances are encoded; backward sections always pass false.
EncodedLabelSection EncodeLabelRows(std::span<const LabelRowRef> rows,
                                    bool with_distance,
                                    const CompressOptions& options = {});

/// Decodes one block out of a section. Validates everything before
/// trusting it: the block's dir/blob ranges against the spans, the
/// per-block CRC, the block's entry count against its bytes and its
/// directory rows (checked before each row is written into columns
/// sized from it), and the encoding itself (prefix bounds, center
/// overflow, exact byte consumption). The error names what is wrong;
/// callers add where. Errors: Corruption.
Result<DecodedBlock> DecodeLabelBlock(std::span<const std::byte> blob,
                                      std::span<const V4DirEntry> dir,
                                      const V4BlockEntry& block,
                                      bool with_distance);

// ---- varint primitives (exposed for the codec property tests) ----

/// Appends the LEB128 encoding of `value` (1..5 bytes).
void PutVarint32(std::vector<std::byte>* out, uint32_t value);

/// Reads one varint from [*p, end), advancing *p. False on truncation
/// or a value that does not fit 32 bits (never reads past `end`).
bool GetVarint32(const std::byte** p, const std::byte* end, uint32_t* value);

}  // namespace hopi::storage
