// On-disk LIN/LOUT file format (version 4) — encode, decode,
// validate.
//
// This header is the single in-code definition of the format; the
// byte-level specification (including the v1-v3 history and the error
// contract) lives in docs/FILE_FORMAT.md and MUST be updated in the
// same change as this file.
//
// Layout (all integers little-endian):
//
//   header   24 bytes   magic "HOPI", version u32 (=4), flags u32,
//                       header_bytes u32 (= kHeaderBytesV4),
//                       meta_crc u32, reserved u32 (zero)
//   table    12 x 16 B  {offset u64, length u64} per SectionV4, byte
//                       offsets from the start of the file
//   sections ...        4 label sections x (dir, block table, blob),
//                       label rows block-compressed
//                       (storage/compress.h); every section starts
//                       8-aligned (zero padding between sections).
//                       ALL dirs and block tables come before ANY
//                       blob, so `meta_crc` — a CRC-32 over bytes
//                       [0, first blob offset) with its own field
//                       zeroed — seals every structural field without
//                       touching a blob byte. That is what makes the
//                       lazy open (skip the whole-file checksum, pay
//                       per-block CRCs at decode time) safe for
//                       covers bigger than RAM.
//   trailer  8 bytes    CRC-32 u32 over bytes [0, size-8), then the
//                       trailer magic "IPOH"
//
// Decoding never trusts a field before validating it: magic/version/
// flags first, then a checksum (the whole-file trailer, or for lazy
// opens the metadata CRC now and per-block CRCs at decode), then
// section bounds and sortedness. A torn or bit-flipped file surfaces
// as Status::Corruption — never a crash or silently wrong rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/compress.h"
#include "util/result.h"

namespace hopi::storage {

struct TableRow;  // linlout.h

inline constexpr char kMagic[4] = {'H', 'O', 'P', 'I'};
inline constexpr char kTrailerMagic[4] = {'I', 'P', 'O', 'H'};
/// The one format version this build reads and writes: block-
/// compressed rows (storage/compress.h), decoded lazily.
inline constexpr uint32_t kFormatVersionV4 = 4;
inline constexpr uint32_t kFlagDistance = 1u << 0;
inline constexpr uint32_t kKnownFlags = kFlagDistance;

struct SectionRange {
  uint64_t offset = 0;  // byte offset from the start of the file
  uint64_t length = 0;  // byte length (excludes inter-section padding)
};

inline constexpr size_t kTrailerBytes = 8;

/// The twelve sections of a v4 file, in file order. Structure-bearing
/// sections (directories + block tables) ALL precede the blobs — the
/// metadata CRC depends on that ordering (see the header comment).
enum SectionV4 : size_t {
  kV4LinDir = 0,      // V4DirEntry per node with LIN rows, sorted by id
  kV4LinBlocks,       // V4BlockEntry per LIN block
  kV4LoutDir,         // V4DirEntry per node with LOUT rows
  kV4LoutBlocks,      // V4BlockEntry per LOUT block
  kV4LinBwdDir,       // V4DirEntry per center in LIN, sorted by center
  kV4LinBwdBlocks,    // V4BlockEntry per backward-LIN block
  kV4LoutBwdDir,      // V4DirEntry per center in LOUT
  kV4LoutBwdBlocks,   // V4BlockEntry per backward-LOUT block
  kV4LinBlob,         // compressed LIN row bytes
  kV4LoutBlob,        // compressed LOUT row bytes
  kV4LinBwdBlob,      // compressed backward-LIN id bytes (dist-less)
  kV4LoutBwdBlob,     // compressed backward-LOUT id bytes (dist-less)
  kNumSectionsV4
};

inline constexpr size_t kHeaderBytesV4 = 24 + kNumSectionsV4 * 16;

/// One label section of a v4 file: the directory and block table
/// (metadata, CRC-sealed at open) plus the compressed blob (sealed
/// per block, decoded on demand). Spans alias the file image.
struct LabelSectionView {
  std::span<const V4DirEntry> dir;
  std::span<const V4BlockEntry> blocks;
  std::span<const std::byte> blob;

  /// Sum of block entry counts (|rows| of this section).
  uint64_t TotalEntries() const {
    uint64_t n = 0;
    for (const V4BlockEntry& b : blocks) n += b.num_entries;
    return n;
  }
};

/// Typed, validated view over a v4 file image. Spans alias the image —
/// they are valid exactly as long as the underlying bytes (the mmap or
/// the heap buffer) stay alive.
struct FileViewV4 {
  uint32_t flags = 0;
  bool with_distance = false;
  LabelSectionView lin, lout, lin_bwd, lout_bwd;
};

struct ParseV4Options {
  /// Verify the whole-file trailer checksum at parse time (after
  /// Open, no byte of the file is untrusted). Turning it off is the
  /// lazy open for covers bigger than RAM: the metadata CRC is still
  /// verified here — every dir/block-table field is trusted — but blob
  /// bytes are only checked by their per-block CRC when a block is
  /// first decoded, so Open never faults in the label data.
  bool verify_file_checksum = true;
};

/// Full v4 decode: header, checksum policy per ParseV4Options, section
/// table bounds, directory sortedness, block-table tiling (blocks
/// partition their dir and blob exactly) and cross-section entry
/// totals. The returned view aliases `image`. Errors: Corruption,
/// Unsupported (v1 layout or any version but 4 — the message names the
/// version and says to rebuild the store from the cover).
Result<FileViewV4> ParseV4(std::span<const std::byte> image,
                           const std::string& path,
                           ParseV4Options options = {});

/// Serializes the four sorted runs into a complete v4 file image:
/// block-compressed label sections (storage/compress.h), the metadata
/// CRC, and the whole-file checksum trailer. The forward runs must be
/// sorted by (id, center), the backward runs by (center, id) — exactly
/// the invariant LinLoutStore maintains.
std::vector<std::byte> BuildFileImageV4(std::span<const TableRow> lin_fwd,
                                        std::span<const TableRow> lout_fwd,
                                        std::span<const TableRow> lin_bwd,
                                        std::span<const TableRow> lout_bwd,
                                        bool with_distance,
                                        const CompressOptions& compress = {});

/// Crash-safe whole-file write: serialize to `path + ".tmp"`, fsync the
/// data, atomically rename over `path`, then fsync the directory so the
/// rename itself is durable. Readers concurrently opening `path` see
/// either the complete old file or the complete new file, never a
/// partial write. Caveat: an IOError naming the *directory* means the
/// rename already published the new file and only its durability is
/// unconfirmed — the error message says so explicitly. On platforms
/// without POSIX fsync/rename-over the fallback is remove+rename
/// (atomicity is then best-effort).
Status AtomicWriteFile(const std::string& path,
                       std::span<const std::byte> image);

/// Reads the whole file into memory (the buffered open's first step).
/// Missing/unreadable files are IOError; everything after this point is
/// format validation.
Result<std::vector<std::byte>> ReadFileImage(const std::string& path);

/// Header introspection for tools and the torn-write tests: reads just
/// the header + section table (no checksum pass). `sections` holds
/// kNumSectionsV4 entries for a v4 file and is empty for any other
/// version.
struct FormatInfo {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t file_bytes = 0;
  std::vector<SectionRange> sections;
};
Result<FormatInfo> InspectFile(const std::string& path);

}  // namespace hopi::storage
