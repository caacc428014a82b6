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
    if (row.entries.empty()) continue;  // absent == empty, like v3 dirs
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
                                      bool with_distance,
                                      const std::string& context) {
  auto corrupt = [&context](const char* what) {
    return Status::Corruption(std::string(what) + " in " + context);
  };
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

  DecodedBlock decoded;
  decoded.row_keys.reserve(block.num_rows);
  decoded.row_begin.reserve(block.num_rows + 1);
  decoded.row_summaries.reserve(block.num_rows);
  decoded.centers.reserve(block.num_entries);
  decoded.dists.reserve(block.num_entries);
  decoded.row_begin.push_back(0);
  auto append = [&decoded](uint32_t center, uint32_t dist,
                           twohop::LabelSummary* summary) {
    decoded.centers.push_back(center);
    decoded.dists.push_back(dist);
    summary->Add(center);
  };

  const std::byte* p = bytes.data();
  const std::byte* end = p + bytes.size();
  uint64_t total_entries = 0;
  for (uint32_t r = 0; r < block.num_rows; ++r) {
    const V4DirEntry& d = dir[block.first_dir + r];
    if (d.count == 0) return corrupt("empty row in directory");
    uint32_t prefix;
    if (!GetVarint32(&p, end, &prefix)) {
      return corrupt("truncated block (prefix count)");
    }
    if (prefix > d.count || (r == 0 && prefix != 0)) {
      return corrupt("bad row prefix count");
    }
    // The dictionary is row 0 of this block, already decoded at
    // [0, row_begin[1]).
    size_t dict_len = r == 0 ? 0 : decoded.row_begin[1];
    if (prefix > dict_len) return corrupt("row prefix beyond dictionary");
    twohop::LabelSummary summary = twohop::LabelSummary::Empty();
    for (size_t i = 0; i < prefix; ++i) {
      append(decoded.centers[i], decoded.dists[i], &summary);
    }
    bool have_prev = prefix > 0;
    uint64_t prev = have_prev ? decoded.centers[prefix - 1] : 0;
    for (uint32_t i = prefix; i < d.count; ++i) {
      uint32_t delta, dist = 0;
      if (!GetVarint32(&p, end, &delta)) {
        return corrupt("truncated block (center delta)");
      }
      if (with_distance && !GetVarint32(&p, end, &dist)) {
        return corrupt("truncated block (distance)");
      }
      uint64_t center = have_prev ? prev + 1 + delta : delta;
      if (center > UINT32_MAX) return corrupt("center overflows 32 bits");
      append(static_cast<uint32_t>(center), dist, &summary);
      prev = center;
      have_prev = true;
    }
    decoded.row_keys.push_back(d.key);
    decoded.row_begin.push_back(static_cast<uint32_t>(decoded.centers.size()));
    decoded.row_summaries.push_back(summary.word);
    total_entries += d.count;
  }
  if (p != end) return corrupt("trailing bytes after last row");
  if (total_entries != block.num_entries) {
    return corrupt("block entry count mismatch");
  }
  return decoded;
}

}  // namespace hopi::storage
