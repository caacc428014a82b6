#include "storage/compress.h"

#include <cstring>

#include "util/checksum.h"

namespace hopi::storage {

void PutVarint32(std::vector<std::byte>* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<std::byte>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<std::byte>(value));
}

bool GetVarint32(const std::byte** p, const std::byte* end, uint32_t* value) {
  uint32_t result = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (*p == end) return false;
    uint32_t byte = static_cast<uint32_t>(**p);
    ++*p;
    if (shift == 28 && (byte & 0x7F) > 0x0F) return false;  // > 32 bits
    result |= (byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
  }
  return false;  // 5 continuation bytes: overlong
}

namespace {

/// Entries match for prefix sharing when both the center and the
/// stored distance agree (the prefix is copied verbatim from the
/// dictionary row, so a distance mismatch would corrupt the row).
bool SameEntry(const twohop::LabelEntry& a, const twohop::LabelEntry& b,
               bool with_distance) {
  return a.center == b.center && (!with_distance || a.dist == b.dist);
}

size_t SharedPrefix(std::span<const twohop::LabelEntry> dict,
                    std::span<const twohop::LabelEntry> row,
                    bool with_distance) {
  size_t n = dict.size() < row.size() ? dict.size() : row.size();
  size_t p = 0;
  while (p < n && SameEntry(dict[p], row[p], with_distance)) ++p;
  return p;
}

/// Appends one row's encoding: prefix count, then delta-coded suffix
/// centers (and distances when enabled). `prev` is the last prefix
/// center, or nullopt when the suffix starts the row.
void EncodeRow(std::vector<std::byte>* out,
               std::span<const twohop::LabelEntry> row, size_t prefix,
               std::span<const twohop::LabelEntry> dict, bool with_distance) {
  PutVarint32(out, static_cast<uint32_t>(prefix));
  bool have_prev = prefix > 0;
  uint32_t prev = have_prev ? dict[prefix - 1].center : 0;
  for (size_t i = prefix; i < row.size(); ++i) {
    uint32_t center = row[i].center;
    PutVarint32(out, have_prev ? center - prev - 1 : center);
    if (with_distance) PutVarint32(out, row[i].dist);
    prev = center;
    have_prev = true;
  }
}

}  // namespace

EncodedLabelSection EncodeLabelRows(std::span<const LabelRowRef> rows,
                                    bool with_distance,
                                    const CompressOptions& options) {
  EncodedLabelSection section;
  std::vector<std::byte> cur;            // bytes of the open block
  std::span<const twohop::LabelEntry> dict;  // its dictionary row
  uint64_t block_first_dir = 0;
  uint32_t block_rows = 0;
  uint32_t block_entries = 0;

  auto flush = [&] {
    if (block_rows == 0) return;
    V4BlockEntry block;
    block.blob_offset = section.blob.size();
    block.blob_bytes = static_cast<uint32_t>(cur.size());
    block.crc = Crc32(cur.data(), cur.size());
    block.first_dir = block_first_dir;
    block.num_rows = block_rows;
    block.num_entries = block_entries;
    section.blocks.push_back(block);
    section.blob.insert(section.blob.end(), cur.begin(), cur.end());
    cur.clear();
    block_first_dir += block_rows;
    block_rows = 0;
    block_entries = 0;
  };

  for (const LabelRowRef& row : rows) {
    if (row.entries.empty()) continue;  // absent == empty
    if (block_rows > 0) {
      size_t prefix = SharedPrefix(dict, row.entries, with_distance);
      // Sliding-window split: target size reached, or the row opens a
      // new cluster (no shared prefix) and this block already earns
      // its keep.
      if (cur.size() >= options.target_block_bytes ||
          (prefix == 0 && cur.size() >= options.cluster_split_bytes)) {
        flush();
      } else {
        EncodeRow(&cur, row.entries, prefix, dict, with_distance);
        ++block_rows;
        block_entries += static_cast<uint32_t>(row.entries.size());
        section.dir.push_back(
            {row.key, static_cast<uint32_t>(row.entries.size())});
        continue;
      }
    }
    // First row of a fresh block: it IS the dictionary.
    dict = row.entries;
    EncodeRow(&cur, row.entries, 0, dict, with_distance);
    block_rows = 1;
    block_entries = static_cast<uint32_t>(row.entries.size());
    section.dir.push_back(
        {row.key, static_cast<uint32_t>(row.entries.size())});
  }
  flush();
  return section;
}

Result<DecodedBlock> DecodeLabelBlock(std::span<const std::byte> blob,
                                      std::span<const V4DirEntry> dir,
                                      const V4BlockEntry& block,
                                      bool with_distance) {
  auto corrupt = [](const char* what) { return Status::Corruption(what); };
  // Bounds first: never dereference a byte the block table cannot
  // prove is there.
  if (block.num_rows == 0 || block.first_dir > dir.size() ||
      block.num_rows > dir.size() - block.first_dir) {
    return corrupt("block row range out of bounds");
  }
  if (block.blob_bytes == 0 || block.blob_offset > blob.size() ||
      block.blob_bytes > blob.size() - block.blob_offset) {
    return corrupt("block byte range out of bounds");
  }
  std::span<const std::byte> bytes =
      blob.subspan(block.blob_offset, block.blob_bytes);
  if (Crc32(bytes.data(), bytes.size()) != block.crc) {
    return corrupt("block checksum mismatch (bit rot?)");
  }
  // The columns are sized from the block table before a byte is
  // decoded, so the entry count must be one the blob can back: every
  // entry is a suffix entry (at least one byte) or a copy of a
  // dictionary entry (itself a suffix entry), so no row holds more
  // than blob_bytes entries.
  const uint32_t num_rows = block.num_rows;
  const uint32_t num_entries = block.num_entries;
  if (num_entries > uint64_t{num_rows} * block.blob_bytes) {
    return corrupt("block entry count exceeds its bytes");
  }

  DecodedBlock decoded;
  decoded.row_keys.resize(num_rows);
  decoded.row_begin.resize(size_t{num_rows} + 1);
  decoded.row_summaries.resize(num_rows);
  decoded.centers.resize(num_entries);
  decoded.dists.resize(num_entries);  // stays 0 without distances
  uint32_t* centers = decoded.centers.data();
  uint32_t* dists = decoded.dists.data();
  const V4DirEntry* rows = dir.data() + block.first_dir;

  // Pass 1: columns. Each row is its shared prefix, copied from the
  // dictionary (row 0, at [0, dict_len)), then its delta-coded suffix.
  // row_summaries[r] holds the row's prefix length until pass 2.
  const std::byte* p = bytes.data();
  const std::byte* end = p + bytes.size();
  uint32_t pos = 0;  // entries written so far
  uint32_t dict_len = 0;
  for (uint32_t r = 0; r < num_rows; ++r) {
    const V4DirEntry& d = rows[r];
    if (d.count == 0) return corrupt("empty row in directory");
    // The running count bounds every write below: a directory that
    // disagrees with the block table cannot push a row past the
    // presized columns.
    if (d.count > num_entries - pos) {
      return corrupt("block entry count mismatch");
    }
    uint32_t prefix;
    if (!GetVarint32(&p, end, &prefix)) {
      return corrupt("truncated block (prefix count)");
    }
    if (prefix > d.count || (r == 0 && prefix != 0)) {
      return corrupt("bad row prefix count");
    }
    if (prefix > dict_len) return corrupt("row prefix beyond dictionary");
    if (prefix > 0) {
      std::memcpy(centers + pos, centers, prefix * sizeof(uint32_t));
      if (with_distance) {
        std::memcpy(dists + pos, dists, prefix * sizeof(uint32_t));
      }
    }
    // Smallest center the next entry may take: one past the previous
    // center, or 0 when the suffix starts the row.
    uint64_t next = prefix > 0 ? uint64_t{centers[prefix - 1]} + 1 : 0;
    const uint32_t row_end = pos + d.count;
    for (uint32_t i = pos + prefix; i < row_end; ++i) {
      uint32_t delta;
      if (!GetVarint32(&p, end, &delta)) {
        return corrupt("truncated block (center delta)");
      }
      if (with_distance && !GetVarint32(&p, end, &dists[i])) {
        return corrupt("truncated block (distance)");
      }
      uint64_t center = next + delta;
      if (center > UINT32_MAX) return corrupt("center overflows 32 bits");
      centers[i] = static_cast<uint32_t>(center);
      next = center + 1;
    }
    decoded.row_keys[r] = d.key;
    decoded.row_begin[r + 1] = row_end;
    // The dictionary row is its own prefix.
    decoded.row_summaries[r] = r == 0 ? d.count : prefix;
    if (r == 0) dict_len = d.count;
    pos = row_end;
  }
  if (p != end) return corrupt("trailing bytes after last row");
  if (pos != num_entries) return corrupt("block entry count mismatch");

  // Pass 2: summaries. A row's prefix summary is the dictionary's
  // running summary at the prefix length, and its suffix (ascending,
  // like every row) is folded in after it.
  std::vector<uint64_t> dict_summaries(dict_len);
  twohop::LabelSummary running = twohop::LabelSummary::Empty();
  for (uint32_t i = 0; i < dict_len; ++i) {
    running.Add(centers[i]);
    dict_summaries[i] = running.word;
  }
  for (uint32_t r = 0; r < num_rows; ++r) {
    const uint32_t prefix = static_cast<uint32_t>(decoded.row_summaries[r]);
    twohop::LabelSummary summary =
        prefix > 0 ? twohop::LabelSummary{dict_summaries[prefix - 1]}
                   : twohop::LabelSummary::Empty();
    const uint32_t suffix = decoded.row_begin[r] + prefix;
    summary.AddAscending(centers + suffix, decoded.row_begin[r + 1] - suffix);
    decoded.row_summaries[r] = summary.word;
  }
  return decoded;
}

}  // namespace hopi::storage
