#include "storage/format.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "storage/linlout.h"
#include "util/checksum.h"

#if defined(__unix__) || defined(__APPLE__)
#define HOPI_HAS_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#else
#define HOPI_HAS_POSIX_IO 0
#endif

namespace hopi::storage {

// The spec (docs/FILE_FORMAT.md) fixes all integers as little-endian;
// the implementation reads/writes native integers, so enforce the
// match instead of silently producing byte-swapped files.
static_assert(std::endian::native == std::endian::little,
              "LIN/LOUT files are little-endian; this port needs swaps");

namespace {

// v1 files started with the 8-byte magic "HOPILL01": bytes 4..8 parse
// as this constant where v2+ store the version number.
constexpr uint32_t kV1MagicTail = 0x31304C4Cu;  // "LL01"

void PutU32(std::byte* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(std::byte* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t GetU32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

/// CRC-32 over [0, meta_end) of a v4 image with the meta_crc field
/// (bytes [16, 20)) treated as zero — computed identically by writer
/// and reader so the stored value can live inside the sealed range.
uint32_t ComputeMetaCrc(std::span<const std::byte> image, uint64_t meta_end) {
  const uint32_t zero = 0;
  uint32_t crc = Crc32(image.data(), 16);
  crc = Crc32(&zero, sizeof(zero), crc);
  crc = Crc32(image.data() + 20, meta_end - 20, crc);
  return crc;
}

/// Validates one v4 label section's metadata: directory sortedness and
/// block-table tiling (blocks cover the dir rows and the blob bytes
/// exactly, in order, gap-free). Blob *contents* are not touched —
/// they are sealed per block.
bool SectionConsistent(const LabelSectionView& s) {
  for (size_t e = 0; e < s.dir.size(); ++e) {
    if (e > 0 && s.dir[e].key <= s.dir[e - 1].key) return false;
    if (s.dir[e].count == 0) return false;
  }
  uint64_t next_dir = 0;
  uint64_t next_byte = 0;
  for (const V4BlockEntry& b : s.blocks) {
    if (b.first_dir != next_dir || b.num_rows == 0 ||
        b.num_rows > s.dir.size() - next_dir) {
      return false;
    }
    if (b.blob_offset != next_byte || b.blob_bytes == 0 ||
        b.blob_bytes > s.blob.size() - next_byte) {
      return false;
    }
    uint64_t entries = 0;
    for (uint64_t r = b.first_dir; r < b.first_dir + b.num_rows; ++r) {
      entries += s.dir[r].count;
    }
    if (entries != b.num_entries) return false;
    next_dir += b.num_rows;
    next_byte += b.blob_bytes;
  }
  return next_dir == s.dir.size() && next_byte == s.blob.size();
}

/// Magic/version/flags of any HOPI LIN/LOUT file, before any version
/// policy.
struct RawHeader {
  uint32_t version = 0;
  uint32_t flags = 0;
};

/// Errors: Corruption for a short image or foreign magic, Unsupported
/// for the pre-versioned v1 layout ("HOPILL01").
Result<RawHeader> ReadRawHeader(std::span<const std::byte> image,
                                const std::string& path) {
  if (image.size() < 4 ||
      std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a HOPI LIN/LOUT file (bad magic): " +
                              path);
  }
  if (image.size() < 12) {
    return Status::Corruption("truncated header in " + path);
  }
  RawHeader header;
  header.version = GetU32(image.data() + 4);
  header.flags = GetU32(image.data() + 8);
  if (header.version == kV1MagicTail) {
    return Status::Unsupported(
        "LIN/LOUT file " + path +
        " uses the pre-versioned v1 layout (magic \"HOPILL01\") — "
        "rebuild the store from the cover");
  }
  return header;
}

/// Regroups a sorted table run into encoder rows. `forward` selects
/// the grouping key (id vs center) and the entry payload (center+dist
/// vs id, dist-less). `buf` backs the returned spans and must outlive
/// them; it is reserved up front so pushes never reallocate.
std::vector<LabelRowRef> GroupRun(std::span<const TableRow> run, bool forward,
                                  std::vector<twohop::LabelEntry>* buf) {
  buf->clear();
  buf->reserve(run.size());
  std::vector<LabelRowRef> rows;
  size_t i = 0;
  while (i < run.size()) {
    uint32_t key = forward ? run[i].id : run[i].center;
    size_t start = buf->size();
    size_t j = i;
    while (j < run.size() && (forward ? run[j].id : run[j].center) == key) {
      buf->push_back(forward
                         ? twohop::LabelEntry{run[j].center, run[j].dist}
                         : twohop::LabelEntry{run[j].id, 0});
      ++j;
    }
    rows.push_back({key, std::span<const twohop::LabelEntry>(
                             buf->data() + start, j - i)});
    i = j;
  }
  return rows;
}

}  // namespace

Result<FileViewV4> ParseV4(std::span<const std::byte> image,
                           const std::string& path, ParseV4Options options) {
  HOPI_ASSIGN_OR_RETURN(RawHeader header, ReadRawHeader(image, path));
  if (header.version != kFormatVersionV4) {
    return Status::Unsupported(
        "LIN/LOUT file " + path + " has format version " +
        std::to_string(header.version) + "; this build reads version " +
        std::to_string(kFormatVersionV4) +
        " only — rebuild the store from the cover");
  }
  if ((header.flags & ~kKnownFlags) != 0) {
    return Status::Corruption("unknown header flags in " + path);
  }
  if (image.size() < kHeaderBytesV4 + kTrailerBytes) {
    return Status::Corruption("truncated v4 header in " + path);
  }
  if (GetU32(image.data() + 12) != kHeaderBytesV4) {
    return Status::Corruption("bad header size field in " + path);
  }
  if (GetU32(image.data() + 20) != 0) {
    return Status::Corruption("reserved header field set in " + path);
  }
  // The trailer magic is checked even on lazy opens (it costs nothing
  // and catches most torn writes); the full-file checksum is the
  // verified-open guarantee.
  const std::byte* trailer = image.data() + image.size() - kTrailerBytes;
  if (std::memcmp(trailer + 4, kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
    return Status::Corruption("missing checksum trailer (torn write?) in " +
                              path);
  }
  if (options.verify_file_checksum) {
    uint32_t actual = Crc32(image.data(), image.size() - kTrailerBytes);
    if (actual != GetU32(trailer)) {
      return Status::Corruption("checksum mismatch in " + path +
                                " (torn write or bit rot)");
    }
  }
  // Section table: in-order, 8-aligned, inside [header, trailer), with
  // every metadata section before every blob section.
  SectionRange sections[kNumSectionsV4];
  uint64_t prev_end = kHeaderBytesV4;
  const uint64_t data_end = image.size() - kTrailerBytes;
  constexpr size_t kElemSize[kNumSectionsV4] = {
      sizeof(V4DirEntry), sizeof(V4BlockEntry),
      sizeof(V4DirEntry), sizeof(V4BlockEntry),
      sizeof(V4DirEntry), sizeof(V4BlockEntry),
      sizeof(V4DirEntry), sizeof(V4BlockEntry),
      1, 1, 1, 1};
  for (size_t s = 0; s < kNumSectionsV4; ++s) {
    sections[s].offset = GetU64(image.data() + 24 + s * 16);
    sections[s].length = GetU64(image.data() + 24 + s * 16 + 8);
    if (sections[s].offset % 8 != 0 || sections[s].offset < prev_end ||
        sections[s].length > data_end ||
        sections[s].offset > data_end - sections[s].length ||
        sections[s].length % kElemSize[s] != 0) {
      return Status::Corruption("section table out of bounds in " + path);
    }
    prev_end = sections[s].offset + sections[s].length;
  }
  // Everything structural lives in [0, first blob); the metadata CRC
  // seals it, so even a lazy open never trusts a flipped dir key or
  // block offset.
  const uint64_t meta_end = sections[kV4LinBlob].offset;
  if (ComputeMetaCrc(image, meta_end) != GetU32(image.data() + 16)) {
    return Status::Corruption("metadata checksum mismatch in " + path);
  }

  FileViewV4 view;
  view.flags = header.flags;
  view.with_distance = (header.flags & kFlagDistance) != 0;
  auto dir_span = [&](SectionV4 s) {
    return std::span<const V4DirEntry>(
        reinterpret_cast<const V4DirEntry*>(image.data() +
                                            sections[s].offset),
        sections[s].length / sizeof(V4DirEntry));
  };
  auto block_span = [&](SectionV4 s) {
    return std::span<const V4BlockEntry>(
        reinterpret_cast<const V4BlockEntry*>(image.data() +
                                              sections[s].offset),
        sections[s].length / sizeof(V4BlockEntry));
  };
  auto blob_span = [&](SectionV4 s) {
    return image.subspan(sections[s].offset, sections[s].length);
  };
  view.lin = {dir_span(kV4LinDir), block_span(kV4LinBlocks),
              blob_span(kV4LinBlob)};
  view.lout = {dir_span(kV4LoutDir), block_span(kV4LoutBlocks),
               blob_span(kV4LoutBlob)};
  view.lin_bwd = {dir_span(kV4LinBwdDir), block_span(kV4LinBwdBlocks),
                  blob_span(kV4LinBwdBlob)};
  view.lout_bwd = {dir_span(kV4LoutBwdDir), block_span(kV4LoutBwdBlocks),
                   blob_span(kV4LoutBwdBlob)};

  if (!SectionConsistent(view.lin) || !SectionConsistent(view.lout) ||
      !SectionConsistent(view.lin_bwd) ||
      !SectionConsistent(view.lout_bwd) ||
      view.lin_bwd.TotalEntries() != view.lin.TotalEntries() ||
      view.lout_bwd.TotalEntries() != view.lout.TotalEntries()) {
    return Status::Corruption("inconsistent label directories in " + path);
  }
  return view;
}

std::vector<std::byte> BuildFileImageV4(std::span<const TableRow> lin_fwd,
                                        std::span<const TableRow> lout_fwd,
                                        std::span<const TableRow> lin_bwd,
                                        std::span<const TableRow> lout_bwd,
                                        bool with_distance,
                                        const CompressOptions& compress) {
  std::vector<twohop::LabelEntry> buf;
  EncodedLabelSection encoded[4];
  const std::span<const TableRow> runs[4] = {lin_fwd, lout_fwd, lin_bwd,
                                             lout_bwd};
  for (size_t side = 0; side < 4; ++side) {
    bool forward = side < 2;
    std::vector<LabelRowRef> rows = GroupRun(runs[side], forward, &buf);
    // Backward sections are dist-less: the ids are the payload.
    encoded[side] =
        EncodeLabelRows(rows, forward && with_distance, compress);
  }

  // Section lengths in file order: the four (dir, blocks) metadata
  // pairs, then the four blobs (the meta-CRC ordering invariant).
  uint64_t lengths[kNumSectionsV4];
  for (size_t side = 0; side < 4; ++side) {
    lengths[2 * side] = encoded[side].dir.size() * sizeof(V4DirEntry);
    lengths[2 * side + 1] =
        encoded[side].blocks.size() * sizeof(V4BlockEntry);
    lengths[8 + side] = encoded[side].blob.size();
  }
  SectionRange sections[kNumSectionsV4];
  uint64_t end = kHeaderBytesV4;
  for (size_t s = 0; s < kNumSectionsV4; ++s) {
    sections[s].offset = Align8(end);
    sections[s].length = lengths[s];
    end = sections[s].offset + sections[s].length;
  }
  std::vector<std::byte> image(Align8(end) + kTrailerBytes, std::byte{0});

  std::memcpy(image.data(), kMagic, sizeof(kMagic));
  PutU32(image.data() + 4, kFormatVersionV4);
  PutU32(image.data() + 8, with_distance ? kFlagDistance : 0);
  PutU32(image.data() + 12, kHeaderBytesV4);
  // meta_crc (offset 16) and the reserved word stay zero for now; the
  // CRC is patched in once the metadata bytes are final.
  for (size_t s = 0; s < kNumSectionsV4; ++s) {
    PutU64(image.data() + 24 + s * 16, sections[s].offset);
    PutU64(image.data() + 24 + s * 16 + 8, sections[s].length);
  }

  auto write_bytes = [&](size_t s, const void* data, size_t n) {
    if (n == 0) return;  // empty vectors may have null data()
    std::memcpy(image.data() + sections[s].offset, data, n);
  };
  for (size_t side = 0; side < 4; ++side) {
    write_bytes(2 * side, encoded[side].dir.data(),
                encoded[side].dir.size() * sizeof(V4DirEntry));
    write_bytes(2 * side + 1, encoded[side].blocks.data(),
                encoded[side].blocks.size() * sizeof(V4BlockEntry));
    write_bytes(8 + side, encoded[side].blob.data(),
                encoded[side].blob.size());
  }

  PutU32(image.data() + 16,
         ComputeMetaCrc(image, sections[kV4LinBlob].offset));
  std::byte* trailer = image.data() + image.size() - kTrailerBytes;
  PutU32(trailer, Crc32(image.data(), image.size() - kTrailerBytes));
  std::memcpy(trailer + 4, kTrailerMagic, sizeof(kTrailerMagic));
  return image;
}

#if HOPI_HAS_POSIX_IO

Status AtomicWriteFile(const std::string& path,
                       std::span<const std::byte> image) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot open " + tmp);
  const std::byte* p = image.data();
  size_t left = image.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("short write to " + tmp);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  // Data must be on disk before the rename publishes it: a crash after
  // the rename but before a data flush would otherwise leave a complete-
  // looking file full of unwritten pages.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("cannot fsync " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " over " + path);
  }
  // And the rename itself must be durable: fsync the containing
  // directory so a crash cannot resurrect the old directory entry.
  // From here on the new file IS published — failures below must say
  // so, because the caller can no longer assume the old file survived.
  size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) {
    return Status::IOError("cannot open directory " + dir +
                           " — new file " + path +
                           " is in place but the rename's durability "
                           "is unconfirmed");
  }
  if (::fsync(dfd) != 0) {
    ::close(dfd);
    return Status::IOError("cannot fsync directory " + dir +
                           " — new file " + path +
                           " is in place but the rename's durability "
                           "is unconfirmed");
  }
  ::close(dfd);
  return Status::OK();
}

#else  // !HOPI_HAS_POSIX_IO

Status AtomicWriteFile(const std::string& path,
                       std::span<const std::byte> image) {
  // Best effort without POSIX durability primitives: still stage into a
  // sibling temp file so an interrupted write never truncates `path`.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  bool ok = image.empty() ||
            std::fwrite(image.data(), image.size(), 1, f) == 1;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  std::remove(path.c_str());  // std::rename does not overwrite everywhere
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " over " + path);
  }
  return Status::OK();
}

#endif  // HOPI_HAS_POSIX_IO

Result<std::vector<std::byte>> ReadFileImage(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  long end = std::ftell(f);
  if (end < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("cannot determine size of " + path);
  }
  std::vector<std::byte> image(static_cast<size_t>(end));
  bool ok = image.empty() ||
            std::fread(image.data(), image.size(), 1, f) == 1;
  std::fclose(f);
  if (!ok) return Status::IOError("cannot read " + path);
  return image;
}

Result<FormatInfo> InspectFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::byte header[kHeaderBytesV4];
  size_t got = std::fread(header, 1, sizeof(header), f);
  std::fseek(f, 0, SEEK_END);
  long end = std::ftell(f);
  std::fclose(f);
  auto raw = ReadRawHeader({header, got}, path);
  if (!raw.ok()) return raw.status();
  FormatInfo info;
  info.version = raw->version;
  info.flags = raw->flags;
  info.file_bytes = end > 0 ? static_cast<uint64_t>(end) : 0;
  if (raw->version != kFormatVersionV4) {
    return info;  // no section table this build knows
  }
  if (got < kHeaderBytesV4) {
    return Status::Corruption("truncated header in " + path);
  }
  info.sections.resize(kNumSectionsV4);
  for (size_t s = 0; s < kNumSectionsV4; ++s) {
    info.sections[s].offset = GetU64(header + 24 + s * 16);
    info.sections[s].length = GetU64(header + 24 + s * 16 + 8);
  }
  return info;
}

}  // namespace hopi::storage
