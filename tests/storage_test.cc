#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "hopi/build.h"
#include "storage/compress.h"
#include "storage/format.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "test_util.h"
#include "twohop/builder.h"
#include "twohop/reverse_index.h"
#include "util/checksum.h"

namespace hopi::storage {
namespace {

using hopi::testing::ToEntries;

twohop::TwoHopCover SampleCover(bool with_distance, uint64_t seed = 5) {
  Digraph g = hopi::testing::RandomDag(40, 2.0, seed);
  twohop::CoverBuildOptions options;
  options.with_distance = with_distance;
  auto cover = twohop::BuildCover(g, options);
  EXPECT_TRUE(cover.ok());
  return std::move(cover).value();
}

/// Writer options selecting `version` (default block sizes).
StoreWriteOptions Format(uint32_t version) {
  StoreWriteOptions options;
  options.format_version = version;
  return options;
}

/// Writes `store` to `path` with tiny blocks, so even the test covers
/// span several.
void WriteSmallBlocks(const LinLoutStore& store, const std::string& path) {
  StoreWriteOptions options;
  options.compress.target_block_bytes = 256;
  options.compress.cluster_split_bytes = 64;
  ASSERT_TRUE(store.WriteToFile(path, options).ok());
}

MappedLinLoutStore OpenOrDie(const std::string& path, bool prefer_mmap) {
  auto store = MappedLinLoutStore::Open(path, {.prefer_mmap = prefer_mmap});
  EXPECT_TRUE(store.ok()) << store.status();
  // POSIX CI: the real mmap path when asked, the buffered one otherwise.
  EXPECT_EQ(store->mapped(), prefer_mmap);
  return std::move(store).value();
}

void WriteBytes(const std::string& path, std::span<const std::byte> bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Recomputes the checksums of a patched image — the metadata CRC
/// (bytes [0, first blob) with its own field zeroed) and the trailer —
/// so the reader's structural checks, not a checksum, must catch the
/// patch.
void Reseal(std::vector<std::byte>* image) {
  uint64_t meta_end = 0;
  std::memcpy(&meta_end, image->data() + 24 + kV4LinBlob * 16,
              sizeof(meta_end));
  uint32_t zero = 0;
  uint32_t meta_crc = Crc32(image->data(), 16);
  meta_crc = Crc32(&zero, sizeof(zero), meta_crc);
  meta_crc = Crc32(image->data() + 20, meta_end - 20, meta_crc);
  std::memcpy(image->data() + 16, &meta_crc, sizeof(meta_crc));
  uint32_t crc = Crc32(image->data(), image->size() - kTrailerBytes);
  std::memcpy(image->data() + image->size() - kTrailerBytes, &crc,
              sizeof(crc));
}

TEST(LinLoutStoreTest, EntryAccounting) {
  twohop::TwoHopCover cover = SampleCover(false);
  LinLoutStore store = LinLoutStore::FromCover(cover, false);
  EXPECT_EQ(store.NumEntries(), cover.Size());
  // 2 ints per forward row, doubled by the backward index.
  EXPECT_EQ(store.StorageIntegers(), cover.Size() * 4);
  LinLoutStore dstore = LinLoutStore::FromCover(cover, true);
  EXPECT_EQ(dstore.StorageIntegers(), cover.Size() * 6);
}

// ---- the one reader against the source cover ----

/// (prefer_mmap, with_distance).
using ReaderCase = std::tuple<bool, bool>;

/// A cover written to a file and reopened through one open mode of
/// MappedLinLoutStore; every answer must match the source cover.
class MappedReaderParityTest : public ::testing::TestWithParam<ReaderCase> {
 protected:
  void SetUp() override {
    auto [prefer_mmap, with_distance] = GetParam();
    with_distance_ = with_distance;
    cover_ = SampleCover(with_distance, 59);
    LinLoutStore store = LinLoutStore::FromCover(cover_, with_distance);
    num_entries_ = store.NumEntries();
    storage_integers_ = store.StorageIntegers();
    WriteSmallBlocks(store, path_);
    store_.emplace(OpenOrDie(path_, prefer_mmap));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_ = ::testing::TempDir() + "hopi_reader_parity.bin";
  twohop::TwoHopCover cover_;
  bool with_distance_ = false;
  uint64_t num_entries_ = 0;
  uint64_t storage_integers_ = 0;
  std::optional<MappedLinLoutStore> store_;
};

TEST_P(MappedReaderParityTest, AccountingMatchesTheWriter) {
  EXPECT_EQ(store_->with_distance(), with_distance_);
  EXPECT_EQ(store_->NumEntries(), num_entries_);
  EXPECT_EQ(store_->StorageIntegers(), storage_integers_);
  EXPECT_TRUE(store_->VerifyBlocks().ok());
}

TEST_P(MappedReaderParityTest, EveryRowMatchesTheCover) {
  for (NodeId u = 0; u < cover_.NumNodes(); ++u) {
    auto lin = store_->DecodeLinRow(u);
    ASSERT_TRUE(lin.ok()) << lin.status();
    EXPECT_EQ(ToEntries(lin->view), ToEntries(cover_.In(u))) << "LIN " << u;
    auto lout = store_->DecodeLoutRow(u);
    ASSERT_TRUE(lout.ok()) << lout.status();
    EXPECT_EQ(ToEntries(lout->view), ToEntries(cover_.Out(u))) << "LOUT " << u;
  }
  // Out-of-range nodes decode to an engaged empty row.
  auto absent = store_->DecodeLinRow(1u << 30);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent->view.n, 0u);
}

TEST_P(MappedReaderParityTest, ConnectionAndDistanceMatchTheCover) {
  for (NodeId u = 0; u < cover_.NumNodes(); ++u) {
    for (NodeId v = 0; v < cover_.NumNodes(); ++v) {
      EXPECT_EQ(store_->TestConnection(u, v), cover_.IsConnected(u, v))
          << u << "->" << v;
      EXPECT_EQ(store_->MinDistance(u, v), cover_.Distance(u, v))
          << u << "->" << v;
    }
  }
}

TEST_P(MappedReaderParityTest, AxesMatchTheIndexedCover) {
  twohop::IndexedCover indexed(cover_);
  for (NodeId u = 0; u < cover_.NumNodes(); ++u) {
    EXPECT_EQ(store_->Descendants(u), indexed.Descendants(u)) << u;
    EXPECT_EQ(store_->Ancestors(u), indexed.Ancestors(u)) << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpenModes, MappedReaderParityTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<ReaderCase>& info) {
      return std::string(std::get<0>(info.param) ? "mmap" : "buffered") +
             (std::get<1>(info.param) ? "_dist" : "_plain");
    });

TEST(LinLoutStoreTest, EndToEndWithBuiltIndex) {
  collection::Collection c = hopi::testing::SmallDblp(30, 21);
  IndexBuildOptions options;
  options.with_distance = true;
  auto index = BuildIndex(&c, options);
  ASSERT_TRUE(index.ok());
  LinLoutStore store = LinLoutStore::FromCover(index->cover(), true);
  const std::string path = ::testing::TempDir() + "hopi_store_e2e.bin";
  WriteSmallBlocks(store, path);
  MappedLinLoutStore mapped = OpenOrDie(path, true);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c.NumElements()));
    EXPECT_EQ(mapped.TestConnection(u, v), index->IsReachable(u, v))
        << u << "->" << v;
    EXPECT_EQ(mapped.MinDistance(u, v), index->Distance(u, v))
        << u << "->" << v;
  }
  for (NodeId u = 0; u < c.NumElements(); u += 7) {
    EXPECT_EQ(mapped.Descendants(u), index->Descendants(u)) << u;
    EXPECT_EQ(mapped.Ancestors(u), index->Ancestors(u)) << u;
  }
  std::remove(path.c_str());
}

// ---- what the reader refuses, in both open modes ----

/// Parameter: MappedOpenOptions::prefer_mmap. The buffered open must
/// reject exactly what the mapped one rejects.
class ReaderRejectionTest : public ::testing::TestWithParam<bool> {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  Status OpenStatus() const {
    return MappedLinLoutStore::Open(path_, {.prefer_mmap = GetParam()})
        .status();
  }

  /// path_ holds a sample cover; returns its bytes.
  std::vector<std::byte> WriteSample(uint64_t seed) {
    twohop::TwoHopCover cover = SampleCover(false, seed);
    WriteSmallBlocks(LinLoutStore::FromCover(cover, false), path_);
    return hopi::testing::ReadFileBytes(path_);
  }

  std::string path_ = ::testing::TempDir() + "hopi_store_test.bin";
};

TEST_P(ReaderRejectionTest, MissingFileIsIOError) {
  auto loaded = MappedLinLoutStore::Open("/nonexistent/dir/f.bin",
                                         {.prefer_mmap = GetParam()});
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
}

TEST_P(ReaderRejectionTest, BadMagicIsCorruption) {
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTHOPI!xxxxxxxxxxxxxxxxxxxxxxxxxxx", f);
  std::fclose(f);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsCorruption()) << s;
}

TEST_P(ReaderRejectionTest, TruncatedHeaderDetected) {
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("HOPI", f);  // magic only, no version/flags/section table
  std::fclose(f);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsCorruption()) << s;
}

TEST_P(ReaderRejectionTest, FutureFormatVersionIsUnsupported) {
  std::vector<std::byte> image = WriteSample(23);
  // Patch the version field (bytes 4..8) to a future version.
  uint32_t future_version = 99;
  std::memcpy(image.data() + 4, &future_version, sizeof(future_version));
  WriteBytes(path_, image);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsUnsupported()) << s;
  EXPECT_NE(s.message().find("99"), std::string::npos) << s;
}

TEST_P(ReaderRejectionTest, OldV1LayoutIsUnsupported) {
  // A v1 file started with the 8-byte magic "HOPILL01": the first four
  // bytes match the current magic and the next four parse as a bogus
  // version, so stale files fail clearly instead of being misread.
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("HOPILL01", f);
  uint64_t v1_header[3] = {0, 0, 0};
  ASSERT_EQ(std::fwrite(v1_header, sizeof(v1_header), 1, f), 1u);
  std::fclose(f);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsUnsupported()) << s;
}

TEST_P(ReaderRejectionTest, V2FileIsUnsupported) {
  // The v2 layout: magic, version 2, flags, two u64 row counts, then
  // bare (id, center, dist) triplets — no section table, no checksum.
  std::vector<std::byte> image(12 + 2 * sizeof(uint64_t) +
                               3 * sizeof(uint32_t));
  std::memcpy(image.data(), kMagic, sizeof(kMagic));
  uint32_t header[2] = {2, kFlagDistance};
  std::memcpy(image.data() + 4, header, sizeof(header));
  uint64_t counts[2] = {1, 0};
  std::memcpy(image.data() + 12, counts, sizeof(counts));
  uint32_t row[3] = {1, 0, 1};
  std::memcpy(image.data() + 28, row, sizeof(row));
  WriteBytes(path_, image);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsUnsupported()) << s;
  EXPECT_NE(s.message().find("format version 2"), std::string::npos) << s;
}

TEST_P(ReaderRejectionTest, V3FileIsUnsupported) {
  // The retired v3 layout: a 16-byte header (magic, version 3, flags,
  // header_bytes 144), eight {offset, length} section entries, raw row
  // sections, and the same checksum trailer. It is refused by version
  // before any of its fields is read.
  std::vector<std::byte> image(144 + kTrailerBytes);
  std::memcpy(image.data(), kMagic, sizeof(kMagic));
  uint32_t header[3] = {3, kFlagDistance, 144};
  std::memcpy(image.data() + 4, header, sizeof(header));
  for (uint64_t s = 0; s < 8; ++s) {
    uint64_t offset = 144;
    std::memcpy(image.data() + 16 + s * 16, &offset, sizeof(offset));
  }
  uint32_t crc = Crc32(image.data(), 144);
  std::memcpy(image.data() + 144, &crc, sizeof(crc));
  std::memcpy(image.data() + 148, kTrailerMagic, sizeof(kTrailerMagic));
  WriteBytes(path_, image);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsUnsupported()) << s;
  EXPECT_NE(s.message().find("format version 3"), std::string::npos) << s;
  EXPECT_NE(s.message().find("rebuild the store from the cover"),
            std::string::npos)
      << s;
}

TEST_P(ReaderRejectionTest, UnknownHeaderFlagsAreCorruption) {
  std::vector<std::byte> image = WriteSample(29);
  // Set a reserved flag bit (bytes 8..12 hold the flags).
  uint32_t bogus_flags = 1u << 7;
  std::memcpy(image.data() + 8, &bogus_flags, sizeof(bogus_flags));
  Reseal(&image);
  WriteBytes(path_, image);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsCorruption()) << s;
  // Caught by the structural check, not by a stale checksum.
  EXPECT_EQ(s.message().find("checksum"), std::string::npos) << s;
  // The same for the reserved header word (bytes 20..24).
  image = WriteSample(29);
  uint32_t bogus_reserved = 1;
  std::memcpy(image.data() + 20, &bogus_reserved, sizeof(bogus_reserved));
  Reseal(&image);
  WriteBytes(path_, image);
  s = OpenStatus();
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_EQ(s.message().find("checksum"), std::string::npos) << s;
}

TEST_P(ReaderRejectionTest, AbsurdCountsAreCorruption) {
  // A section length far beyond the file, behind a valid checksum: the
  // bounds checks must refuse it before anything is dereferenced or
  // allocated.
  {
    std::vector<std::byte> image = WriteSample(37);
    uint64_t bogus_length = UINT64_MAX / 2;
    std::memcpy(image.data() + 24 + kV4LinDir * 16 + 8, &bogus_length,
                sizeof(bogus_length));
    Reseal(&image);
    WriteBytes(path_, image);
    Status s = OpenStatus();
    EXPECT_TRUE(s.IsCorruption()) << s;
    // Caught by the structural check, not by a stale checksum.
    EXPECT_EQ(s.message().find("checksum"), std::string::npos) << s;
  }
  // A block claiming more entries than its section holds, behind a
  // valid metadata CRC.
  std::vector<std::byte> image = WriteSample(37);
  uint64_t blocks_at = 0;
  std::memcpy(&blocks_at, image.data() + 24 + kV4LinBlocks * 16,
              sizeof(blocks_at));
  uint32_t bogus_entries = UINT32_MAX;
  std::memcpy(image.data() + blocks_at + offsetof(V4BlockEntry, num_entries),
              &bogus_entries, sizeof(bogus_entries));
  Reseal(&image);
  WriteBytes(path_, image);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_EQ(s.message().find("checksum"), std::string::npos) << s;
}

TEST_P(ReaderRejectionTest, TruncatedRowsDetected) {
  std::vector<std::byte> image = WriteSample(19);
  image.resize(image.size() - 8);  // chop the trailer
  WriteBytes(path_, image);
  Status s = OpenStatus();
  EXPECT_TRUE(s.IsCorruption()) << s;
}

INSTANTIATE_TEST_SUITE_P(OpenModes, ReaderRejectionTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "mmap" : "buffered";
                         });

// ---- crash safety and the writer ----

class StorageFormatTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// Fresh store written to path_ (default blocks); returns the
  /// in-memory original.
  LinLoutStore WriteSample(bool with_distance, uint64_t seed) {
    twohop::TwoHopCover cover = SampleCover(with_distance, seed);
    LinLoutStore store = LinLoutStore::FromCover(cover, with_distance);
    EXPECT_TRUE(store.WriteToFile(path_).ok());
    return store;
  }

  std::string path_ = ::testing::TempDir() + "hopi_format_test.bin";
};

TEST_F(StorageFormatTest, DefaultWriteIsV4) {
  LinLoutStore store = LinLoutStore::FromCover(SampleCover(false, 43), false);
  ASSERT_TRUE(store.WriteToFile(path_).ok());
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kFormatVersionV4);
  // v4 is the only version the writer produces: the retired v2 and v3
  // layouts, and any future number, are refused before path_ is
  // touched.
  std::vector<std::byte> before = hopi::testing::ReadFileBytes(path_);
  for (uint32_t version : {2u, 3u, 5u}) {
    Status s = store.WriteToFile(path_, Format(version));
    EXPECT_TRUE(s.IsInvalidArgument()) << s;
    EXPECT_NE(s.message().find(std::to_string(version)), std::string::npos)
        << s;
  }
  EXPECT_EQ(hopi::testing::ReadFileBytes(path_), before);
}

TEST_F(StorageFormatTest, AtomicWriterLeavesNoTempFile) {
  WriteSample(true, 43);
  FILE* tmp = std::fopen((path_ + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST_F(StorageFormatTest, RewriteReplacesExistingFileAtomically) {
  WriteSample(false, 43);
  LinLoutStore second = WriteSample(true, 47);  // overwrite in place
  auto loaded = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->with_distance());
  EXPECT_EQ(loaded->NumEntries(), second.NumEntries());
}

TEST_F(StorageFormatTest, FailedWriteReportsIOErrorAndWritesNothing) {
  twohop::TwoHopCover cover = SampleCover(false, 43);
  LinLoutStore store = LinLoutStore::FromCover(cover, false);
  Status s = store.WriteToFile("/nonexistent/dir/f.bin");
  EXPECT_TRUE(s.IsIOError()) << s;
}

TEST_F(StorageFormatTest, EmptyStoreRoundTrips) {
  LinLoutStore store = LinLoutStore::FromCover(twohop::TwoHopCover(5), false);
  ASSERT_TRUE(store.WriteToFile(path_).ok());
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->NumEntries(), 0u);
  EXPECT_TRUE(mapped->VerifyBlocks().ok());
  EXPECT_FALSE(mapped->TestConnection(0, 1));
  EXPECT_TRUE(mapped->TestConnection(2, 2));  // reflexive
  EXPECT_EQ(mapped->MinDistance(4, 4), std::optional<uint32_t>(0));
  EXPECT_TRUE(mapped->Descendants(3).empty());
  EXPECT_TRUE(mapped->Ancestors(3).empty());
  auto row = mapped->DecodeLinRow(0);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->view.n, 0u);
}

TEST_F(StorageFormatTest, PlainStoreDistancesAreZero) {
  // A plain store (no DIST column) still answers MinDistance: connected
  // pairs report 0 — the paper's plain index simply cannot rank.
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  auto cover = twohop::BuildCover(g);
  ASSERT_TRUE(cover.ok());
  LinLoutStore store = LinLoutStore::FromCover(*cover, false);
  ASSERT_TRUE(store.WriteToFile(path_).ok());
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto d = mapped->MinDistance(0, 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 0u);
}

// ---- the v4 block codec ----

TEST(CompressCodecTest, VarintRoundTripsBoundaryValues) {
  const uint32_t values[] = {0,       1,          127,        128,
                             16383,   16384,      2097151,    2097152,
                             1u << 28, (1u << 28) - 1, 0xFFFFFFFE, 0xFFFFFFFF};
  std::vector<std::byte> buf;
  for (uint32_t v : values) PutVarint32(&buf, v);
  const std::byte* p = buf.data();
  const std::byte* end = buf.data() + buf.size();
  for (uint32_t expect : values) {
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&p, end, &got));
    EXPECT_EQ(got, expect);
  }
  EXPECT_EQ(p, end);  // exact consumption
}

TEST(CompressCodecTest, VarintRejectsTruncationAndOverflow) {
  std::vector<std::byte> buf;
  PutVarint32(&buf, 0xFFFFFFFF);
  ASSERT_EQ(buf.size(), 5u);
  const std::byte* p = buf.data();
  uint32_t got = 0;
  EXPECT_FALSE(GetVarint32(&p, buf.data() + 4, &got));  // truncated
  // Six continuation bytes: more than any u32 needs.
  std::vector<std::byte> overlong(6, std::byte{0x80});
  overlong.push_back(std::byte{0x01});
  p = overlong.data();
  EXPECT_FALSE(GetVarint32(&p, overlong.data() + overlong.size(), &got));
  // A 5-byte varint whose high bits overflow 32 bits.
  std::vector<std::byte> wide = {std::byte{0xFF}, std::byte{0xFF},
                                 std::byte{0xFF}, std::byte{0xFF},
                                 std::byte{0x7F}};
  p = wide.data();
  EXPECT_FALSE(GetVarint32(&p, wide.data() + wide.size(), &got));
}

/// Owns row storage and hands out the spans EncodeLabelRows wants.
struct RowSet {
  std::vector<uint32_t> keys;
  std::vector<std::vector<twohop::LabelEntry>> rows;

  std::vector<LabelRowRef> Refs() const {
    std::vector<LabelRowRef> refs;
    for (size_t i = 0; i < keys.size(); ++i) {
      refs.push_back({keys[i], rows[i]});
    }
    return refs;
  }

  /// The rows the decoder must reproduce: every non-empty input row.
  std::map<uint32_t, std::vector<twohop::LabelEntry>> NonEmpty() const {
    std::map<uint32_t, std::vector<twohop::LabelEntry>> out;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!rows[i].empty()) out[keys[i]] = rows[i];
    }
    return out;
  }
};

/// Random sorted rows: keys strictly ascending with gaps, centers
/// strictly ascending with occasional huge gaps (the delta encoder's
/// worst case), a sprinkle of empty and singleton rows.
RowSet RandomRows(uint64_t seed, size_t num_rows, bool with_distance) {
  Rng rng(seed);
  RowSet set;
  uint32_t key = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    key += 1 + static_cast<uint32_t>(rng.NextBounded(9));
    std::vector<twohop::LabelEntry> row;
    uint64_t count = rng.NextBounded(13);  // 0 => empty row
    uint32_t center = static_cast<uint32_t>(rng.NextBounded(50));
    for (uint64_t e = 0; e < count; ++e) {
      uint32_t dist =
          with_distance ? static_cast<uint32_t>(rng.NextBounded(8)) : 0;
      row.push_back({center, dist});
      uint64_t gap = rng.NextBounded(100) == 0
                         ? 1u << 24  // adversarial gap
                         : 1 + rng.NextBounded(20);
      if (center > 0xF0000000) break;  // keep centers in range
      center += static_cast<uint32_t>(gap);
    }
    set.keys.push_back(key);
    set.rows.push_back(std::move(row));
  }
  return set;
}

/// Decodes every block of `section` and splices the rows back together.
std::map<uint32_t, std::vector<twohop::LabelEntry>> DecodeAll(
    const EncodedLabelSection& section, bool with_distance) {
  std::map<uint32_t, std::vector<twohop::LabelEntry>> out;
  for (const V4BlockEntry& block : section.blocks) {
    auto decoded =
        DecodeLabelBlock(section.blob, section.dir, block, with_distance);
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    if (!decoded.ok()) continue;
    for (size_t r = 0; r < decoded->NumRows(); ++r) {
      out[decoded->row_keys[r]] = ToEntries(decoded->JoinRow(r));
    }
  }
  return out;
}

/// The four block shapes the codec tests run.
const CompressOptions kShapes[] = {
    {},                  // defaults
    {256, 64},           // many small blocks
    {1, 1},              // degenerate: one row per block
    {1 << 20, 1 << 20},  // everything in one block
};

/// Decodes every block of `section` and checks each row's summary
/// against LabelSummary::Add folded over that row's centers; returns
/// the number of rows checked.
size_t ExpectSummariesMatchCenters(const EncodedLabelSection& section,
                                   bool with_distance) {
  size_t rows = 0;
  for (const V4BlockEntry& block : section.blocks) {
    auto decoded =
        DecodeLabelBlock(section.blob, section.dir, block, with_distance);
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    if (!decoded.ok()) continue;
    for (size_t r = 0; r < decoded->NumRows(); ++r, ++rows) {
      twohop::LabelSummary expect = twohop::LabelSummary::Empty();
      for (twohop::LabelEntry e : decoded->JoinRow(r)) expect.Add(e.center);
      EXPECT_EQ(decoded->row_summaries[r], expect.word)
          << "row key " << decoded->row_keys[r];
    }
  }
  return rows;
}

TEST(CompressCodecTest, RandomRowsRoundTripAcrossBlockSizes) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (bool with_distance : {false, true}) {
      // Plain, and lifted past 2^24: a per-row lift keeps each row
      // ascending and spreads the rows over twelve top bytes, so the
      // summaries' min/max bytes matter.
      RowSet plain = RandomRows(seed, 60, with_distance);
      RowSet lifted = plain;
      for (size_t i = 0; i < lifted.rows.size(); ++i) {
        for (twohop::LabelEntry& e : lifted.rows[i]) {
          e.center += (lifted.keys[i] % 12) << 24;
        }
      }
      for (const CompressOptions& options : kShapes) {
        for (const RowSet* set : {&plain, &lifted}) {
          EncodedLabelSection section =
              EncodeLabelRows(set->Refs(), with_distance, options);
          auto expect = set->NonEmpty();
          // The dir carries exactly the non-empty rows, in key order.
          ASSERT_EQ(section.dir.size(), expect.size());
          // Blocks tile the dir and the blob exactly.
          uint64_t next_dir = 0, next_byte = 0;
          for (const V4BlockEntry& block : section.blocks) {
            EXPECT_EQ(block.first_dir, next_dir);
            EXPECT_EQ(block.blob_offset, next_byte);
            EXPECT_GE(block.num_rows, 1u);
            next_dir += block.num_rows;
            next_byte += block.blob_bytes;
          }
          EXPECT_EQ(next_dir, section.dir.size());
          EXPECT_EQ(next_byte, section.blob.size());
          EXPECT_EQ(DecodeAll(section, with_distance), expect)
              << "seed " << seed << " dist " << with_distance << " target "
              << options.target_block_bytes;
          EXPECT_EQ(ExpectSummariesMatchCenters(section, with_distance),
                    expect.size());
        }
      }
    }
  }
}

TEST(CompressCodecTest, EmptySingletonAndAdversarialRows) {
  std::vector<twohop::LabelEntry> empty;
  std::vector<twohop::LabelEntry> singleton = {{7, 1}};
  // First center raw at the u32 ceiling, then the adversarial re-seed.
  std::vector<twohop::LabelEntry> extremes = {{0, 0}, {0xFFFFFFFE, 3}};
  std::vector<LabelRowRef> rows = {
      {1, empty}, {2, singleton}, {9, extremes}, {10, singleton}};
  EncodedLabelSection section = EncodeLabelRows(rows, true, {});
  ASSERT_EQ(section.dir.size(), 3u);  // empty row dropped
  auto decoded = DecodeAll(section, true);
  EXPECT_EQ(decoded[2], singleton);
  EXPECT_EQ(decoded[9], extremes);
  EXPECT_EQ(decoded[10], singleton);
  // No rows at all: a legal, completely empty section.
  EncodedLabelSection none = EncodeLabelRows({}, true, {});
  EXPECT_TRUE(none.dir.empty());
  EXPECT_TRUE(none.blocks.empty());
  EXPECT_TRUE(none.blob.empty());
}

TEST(CompressCodecTest, SharedPrefixesCompressSimilarRows) {
  // 32 rows, each sharing a long prefix with the first: the clustering
  // pass must store the prefix once, making v4 beat raw encoding by a
  // wide margin.
  std::vector<std::vector<twohop::LabelEntry>> storage;
  std::vector<LabelRowRef> rows;
  for (uint32_t r = 0; r < 32; ++r) {
    std::vector<twohop::LabelEntry> row;
    for (uint32_t e = 0; e < 64; ++e) row.push_back({e * 3, 1});
    row.push_back({1000 + r, 2});  // one private suffix entry
    storage.push_back(std::move(row));
  }
  for (uint32_t r = 0; r < 32; ++r) rows.push_back({r, storage[r]});
  EncodedLabelSection section = EncodeLabelRows(rows, true, {});
  size_t raw_bytes = (32 * 65) * sizeof(twohop::LabelEntry);
  EXPECT_LT(section.blob.size() * 4, raw_bytes);  // > 4x on this shape
  EXPECT_EQ(DecodeAll(section, true).size(), 32u);
  EXPECT_EQ(ExpectSummariesMatchCenters(section, true), 32u);
}

TEST(CompressCodecTest, PrefixSummariesMatchTheirRows) {
  // Rows sharing every prefix length of one dictionary whose centers
  // climb through 32 top bytes: each row's prefix summary comes from
  // the dictionary's running summary at that length.
  std::vector<twohop::LabelEntry> dict;
  for (uint32_t e = 0; e < 64; ++e) {
    dict.push_back({0xC0000000u + e * 0x00800000u, e % 5});
  }
  std::vector<std::vector<twohop::LabelEntry>> storage = {dict};
  for (uint32_t prefix = 0; prefix <= 64; ++prefix) {
    std::vector<twohop::LabelEntry> row(dict.begin(), dict.begin() + prefix);
    uint32_t next = prefix == 0 ? 5 : dict[prefix - 1].center + 1;
    row.push_back({next + prefix, 1});  // never a dictionary center
    row.push_back({0xF0000000u + prefix, 2});
    storage.push_back(std::move(row));
  }
  std::vector<LabelRowRef> rows;
  for (uint32_t r = 0; r < storage.size(); ++r) rows.push_back({r, storage[r]});
  for (bool with_distance : {false, true}) {
    for (const CompressOptions& options : kShapes) {
      EncodedLabelSection section =
          EncodeLabelRows(rows, with_distance, options);
      EXPECT_EQ(ExpectSummariesMatchCenters(section, with_distance),
                storage.size());
    }
  }
}

TEST(CompressCodecTest, BloomBitsArePinned) {
  // Golden words of the 48-bit Bloom hash: summaries are only ever
  // compared against each other within one process, but these pin the
  // hash so a cheaper formulation must keep every bit.
  using twohop::LabelSummary;
  EXPECT_EQ(LabelSummary::BloomBits(0), uint64_t{0x1});
  EXPECT_EQ(LabelSummary::BloomBits(1), uint64_t{0x800000200});
  EXPECT_EQ(LabelSummary::BloomBits(1u << 24), uint64_t{0x8000001000});
  EXPECT_EQ(LabelSummary::BloomBits(0xFFFFFFFFu), uint64_t{0x80000000002});
}

TEST(CompressCodecTest, CorruptedBlockBytesAreCorruptionNeverACrash) {
  RowSet set = RandomRows(77, 40, true);
  EncodedLabelSection section = EncodeLabelRows(set.Refs(), true, {256, 64});
  ASSERT_FALSE(section.blocks.empty());
  for (size_t b = 0; b < section.blocks.size(); ++b) {
    const V4BlockEntry& block = section.blocks[b];
    for (uint64_t bit : {0u, 7u, 13u}) {
      EncodedLabelSection copy = section;
      uint64_t victim = block.blob_offset + bit % block.blob_bytes;
      copy.blob[victim] ^= std::byte{0x40};
      auto decoded =
          DecodeLabelBlock(copy.blob, copy.dir, block, true);
      EXPECT_TRUE(decoded.status().IsCorruption())
          << "block " << b << " bit " << bit << ": " << decoded.status();
    }
  }
  // A truncated blob span must fail bounds validation, not read past.
  const V4BlockEntry& last = section.blocks.back();
  std::span<const std::byte> short_blob(section.blob.data(),
                                        section.blob.size() - 1);
  auto decoded = DecodeLabelBlock(short_blob, section.dir, last, true);
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
}

TEST(CompressCodecTest, MetadataThatDisagreesWithTheBlobIsCorruption) {
  // The block CRC seals the blob bytes only; the directory and the
  // block table are metadata beside it. With the CRC still valid, the
  // decoder must refuse metadata that disagrees with the blob before it
  // writes past the columns it sized from that metadata.
  RowSet set = RandomRows(91, 40, true);
  const EncodedLabelSection section =
      EncodeLabelRows(set.Refs(), true, {256, 64});
  ASSERT_GT(section.blocks.size(), 1u);
  auto expect_corruption = [](const EncodedLabelSection& copy,
                              const V4BlockEntry& block,
                              const std::string& what) {
    auto decoded = DecodeLabelBlock(copy.blob, copy.dir, block, true);
    EXPECT_TRUE(decoded.status().IsCorruption()) << what << ": "
                                                 << decoded.status();
    EXPECT_EQ(decoded.status().message().find("checksum"), std::string::npos)
        << what << ": " << decoded.status();
  };
  for (size_t b = 0; b < section.blocks.size(); ++b) {
    const V4BlockEntry& block = section.blocks[b];
    const std::string where = std::string("block ").append(std::to_string(b));
    for (uint32_t r = 0; r < block.num_rows; ++r) {
      const std::string row =
          std::string(where).append(" row ").append(std::to_string(r));
      EncodedLabelSection raised = section;
      ++raised.dir[block.first_dir + r].count;
      expect_corruption(raised, block, row + ": count + 1");
      EncodedLabelSection zero = section;
      zero.dir[block.first_dir + r].count = 0;
      expect_corruption(zero, block, row + ": zero count");
    }
    V4BlockEntry lowered = block;
    --lowered.num_entries;
    expect_corruption(section, lowered, where + ": num_entries - 1");
    V4BlockEntry absurd = block;
    absurd.num_entries = UINT32_MAX;  // refused before any allocation
    expect_corruption(section, absurd, where + ": absurd num_entries");
  }
}

// ---- the v4 on-disk format ----

class StorageFormatV4Test : public StorageFormatTest {
 protected:
  /// Fresh v4 store at path_ (tiny blocks so even the test cover spans
  /// several); returns the in-memory original.
  LinLoutStore WriteSampleV4(bool with_distance, uint64_t seed) {
    twohop::TwoHopCover cover = SampleCover(with_distance, seed);
    LinLoutStore store = LinLoutStore::FromCover(cover, with_distance);
    StoreWriteOptions options;
    options.format_version = kFormatVersionV4;
    options.compress.target_block_bytes = 256;
    options.compress.cluster_split_bytes = 64;
    EXPECT_TRUE(store.WriteToFile(path_, options).ok());
    return store;
  }
};

TEST_F(StorageFormatV4Test, InspectReportsV4AndItsTwelveSections) {
  WriteSampleV4(true, 43);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kFormatVersionV4);
  EXPECT_EQ(info->flags, kFlagDistance);
  ASSERT_EQ(info->sections.size(), size_t{kNumSectionsV4});
  uint64_t prev_end = kHeaderBytesV4;
  for (size_t s = 0; s < info->sections.size(); ++s) {
    EXPECT_GE(info->sections[s].offset, prev_end) << "section " << s;
    EXPECT_EQ(info->sections[s].offset % 8, 0u) << "section " << s;
    prev_end = info->sections[s].offset + info->sections[s].length;
  }
  EXPECT_LE(prev_end, info->file_bytes - kTrailerBytes);
}

TEST_F(StorageFormatV4Test, WriterIsDeterministic) {
  LinLoutStore store = WriteSampleV4(true, 47);
  std::vector<std::byte> first = hopi::testing::ReadFileBytes(path_);
  StoreWriteOptions options;
  options.format_version = kFormatVersionV4;
  options.compress.target_block_bytes = 256;
  options.compress.cluster_split_bytes = 64;
  ASSERT_TRUE(store.WriteToFile(path_, options).ok());
  EXPECT_EQ(hopi::testing::ReadFileBytes(path_), first);
}

TEST_F(StorageFormatV4Test, CompressionBeatsRawOnRedundantCovers) {
  // The paper-shaped workload: a sizable DAG whose LIN/LOUT rows share
  // long prefixes. The whole file — forward rows, backward indexes,
  // directories and all — must take at most half the bytes of the raw
  // forward rows alone: (id, center, dist) as three u32s, 12 B per
  // entry.
  Digraph g = hopi::testing::RandomDag(400, 3.0, 97);
  twohop::CoverBuildOptions cover_options;
  cover_options.with_distance = true;
  auto cover = twohop::BuildCover(g, cover_options);
  ASSERT_TRUE(cover.ok());
  LinLoutStore store = LinLoutStore::FromCover(*cover, true);
  ASSERT_TRUE(store.WriteToFile(path_).ok());
  uint64_t v4_bytes = hopi::testing::ReadFileBytes(path_).size();
  uint64_t raw_bytes = store.NumEntries() * 3 * sizeof(uint32_t);
  EXPECT_LE(v4_bytes * 2, raw_bytes)
      << "raw rows " << raw_bytes << "B vs v4 " << v4_bytes << "B for "
      << store.NumEntries() << " entries";
  auto mapped = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->NumEntries(), store.NumEntries());
}

TEST_F(StorageFormatV4Test, TruncationAtEveryV4BoundaryIsCorruption) {
  WriteSampleV4(true, 43);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  std::vector<uint64_t> boundaries = {0, 4, kHeaderBytesV4,
                                      info->file_bytes - 4};
  for (const SectionRange& s : info->sections) {
    boundaries.push_back(s.offset);
    boundaries.push_back(s.offset + s.length);
  }
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(path_);
  for (uint64_t cut : boundaries) {
    ASSERT_LT(cut, info->file_bytes);
    FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (cut > 0) {
      ASSERT_EQ(std::fwrite(image.data(), 1, cut, f), cut);
    }
    std::fclose(f);
    auto buffered = MappedLinLoutStore::Open(path_, {.prefer_mmap = false});
    EXPECT_TRUE(buffered.status().IsCorruption())
        << "buffered, cut at " << cut << ": " << buffered.status();
    auto mapped = MappedLinLoutStore::Open(path_);
    EXPECT_TRUE(mapped.status().IsCorruption())
        << "mapped, cut at " << cut << ": " << mapped.status();
    // Even the lazy open must catch a torn file, in both modes:
    // everything before the blobs is covered by the metadata checksum,
    // the rest by sizes.
    for (bool prefer_mmap : {true, false}) {
      auto lazy = MappedLinLoutStore::Open(
          path_, {.prefer_mmap = prefer_mmap, .verify_file_checksum = false});
      EXPECT_TRUE(lazy.status().IsCorruption())
          << (prefer_mmap ? "mapped" : "buffered") << " lazy, cut at " << cut
          << ": " << lazy.status();
    }
  }
}

TEST_F(StorageFormatV4Test, BitFlipAnywhereIsCorruption) {
  WriteSampleV4(false, 53);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok());
  // Flip one bit in the middle of a blob: only the trailing checksum
  // can catch this at open (the sections still parse, and the metadata
  // CRC does not cover blob bytes).
  const SectionRange& blob = info->sections[kV4LoutBlob];
  ASSERT_GT(blob.length, 0u);
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(path_);
  image[blob.offset + blob.length / 2] ^= std::byte{0x10};
  WriteBytes(path_, image);
  for (bool prefer_mmap : {true, false}) {
    auto loaded = MappedLinLoutStore::Open(path_, {.prefer_mmap = prefer_mmap});
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
    EXPECT_NE(loaded.status().message().find("checksum mismatch"),
              std::string::npos)
        << loaded.status();
  }
}

TEST_F(StorageFormatV4Test, LazyOpenDefersBlobChecksToDecodeTime) {
  WriteSampleV4(true, 53);
  auto pristine = MappedLinLoutStore::Open(path_);
  ASSERT_TRUE(pristine.ok());
  // Flip one bit inside the LIN blob (the payload only the per-block
  // CRCs cover).
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok());
  const SectionRange& blob = info->sections[kV4LinBlob];
  ASSERT_GT(blob.length, 0u);
  FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(blob.offset + blob.length / 2), SEEK_SET);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  std::fseek(f, static_cast<long>(blob.offset + blob.length / 2), SEEK_SET);
  std::fputc(c ^ 0x08, f);
  std::fclose(f);
  // Verified open refuses outright (whole-file checksum)...
  auto verified = MappedLinLoutStore::Open(path_);
  EXPECT_TRUE(verified.status().IsCorruption()) << verified.status();
  // ...the lazy open succeeds (metadata is intact) and the damage
  // surfaces as Corruption at decode time — never a crash, and probes
  // that touch the bad block degrade to "unreachable".
  auto lazy = MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  EXPECT_TRUE(lazy->VerifyBlocks().IsCorruption());
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = 0; v < 40; v += 3) {
      lazy->TestConnection(u, v);  // must not crash
    }
  }
  // Metadata damage, by contrast, fails even the lazy open.
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(path_);
  const SectionRange& dir = info->sections[kV4LinDir];
  image[dir.offset] ^= std::byte{0x01};
  FILE* w = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), w), image.size());
  std::fclose(w);
  auto lazy2 = MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
  EXPECT_TRUE(lazy2.status().IsCorruption()) << lazy2.status();
}

}  // namespace
}  // namespace hopi::storage
