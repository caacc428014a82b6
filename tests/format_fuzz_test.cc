// Randomized corruption harness for the LIN/LOUT on-disk format.
//
// Writes a pristine file, then attacks it with seeded bit-flips and
// truncations: at every section boundary, at every block boundary, and
// at hundreds of random offsets. The contract under test is two-sided:
//
//   * The verified open (MappedLinLoutStore::Open's default, in both
//     the mmap and the buffered mode) must REJECT every damaged file
//     with Corruption or Unsupported — never crash, never serve
//     garbage.
//   * The lazy open (verify_file_checksum = false) may accept a
//     file whose blobs are damaged; it must then stay memory-safe
//     under arbitrary probing, and the damage must surface as
//     Status::Corruption from VerifyBlocks()/decode — never a crash.
//
// CI runs this under ASan/UBSan (the `storage` ctest label): together
// with the sanitizers it is the proof behind the format layer's
// "validate before dereference" rule.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/format.h"
#include "storage/linlout.h"
#include "storage/mapped_linlout.h"
#include "test_util.h"
#include "twohop/builder.h"

namespace hopi::storage {
namespace {

constexpr uint64_t kSeed = 20260808;

/// A pristine store + its serialized image.
struct Victim {
  LinLoutStore store = LinLoutStore::FromCover(twohop::TwoHopCover(0), false);
  std::vector<std::byte> image;
  size_t num_nodes = 0;
};

Victim MakeVictim(const std::string& path) {
  Digraph g = hopi::testing::RandomDag(60, 2.5, kSeed);
  twohop::CoverBuildOptions cover_options;
  cover_options.with_distance = true;
  auto cover = twohop::BuildCover(g, cover_options);
  EXPECT_TRUE(cover.ok());
  Victim victim;
  victim.store = LinLoutStore::FromCover(*cover, true);
  victim.num_nodes = cover->NumNodes();
  StoreWriteOptions options;
  // Small blocks: many per-block CRC domains and block boundaries.
  options.compress.target_block_bytes = 128;
  options.compress.cluster_split_bytes = 32;
  EXPECT_TRUE(victim.store.WriteToFile(path, options).ok());
  victim.image = hopi::testing::ReadFileBytes(path);
  return victim;
}

void WriteBytes(const std::string& path, std::span<const std::byte> bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// The verified open, mapped and buffered, must refuse the file at
/// `path` with a structured error (Corruption, or Unsupported when the
/// damage lands in the version field) — the one thing it may not do is
/// succeed.
void ExpectVerifiedReadersReject(const std::string& path,
                                 const std::string& what) {
  for (bool prefer_mmap : {true, false}) {
    const char* mode = prefer_mmap ? "mapped" : "buffered";
    auto store = MappedLinLoutStore::Open(path, {.prefer_mmap = prefer_mmap});
    EXPECT_FALSE(store.ok()) << what << ": " << mode << " open accepted";
    if (!store.ok()) {
      EXPECT_TRUE(store.status().IsCorruption() ||
                  store.status().IsUnsupported() ||
                  store.status().IsIOError())
          << what << " (" << mode << "): " << store.status();
    }
  }
}

/// Drives every read surface of an (possibly damaged but accepted)
/// store. Answers are allowed to degrade; crashing or tripping a
/// sanitizer is the failure mode under test.
void ProbeEverySurface(const MappedLinLoutStore& store, size_t num_nodes) {
  for (NodeId u = 0; u < num_nodes; u += 3) {
    for (NodeId v = 0; v < num_nodes; v += 5) {
      store.TestConnection(u, v);
      store.MinDistance(u, v);
    }
    store.Descendants(u);
    store.Ancestors(u);
    auto lin = store.DecodeLinRow(u);
    auto lout = store.DecodeLoutRow(u);
    (void)lin;
    (void)lout;
  }
}

class FormatFuzzTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "hopi_format_fuzz.bin";
};

TEST_F(FormatFuzzTest, RandomBitFlipsAreRejectedByVerifiedReaders) {
  Victim victim = MakeVictim(path_);
  Rng rng(kSeed ^ kFormatVersionV4);
  for (int round = 0; round < 300; ++round) {
    uint64_t offset = rng.NextBounded(victim.image.size());
    std::byte mask{static_cast<unsigned char>(1u << rng.NextBounded(8))};
    std::vector<std::byte> mutant = victim.image;
    mutant[offset] ^= mask;
    WriteBytes(path_, mutant);
    ExpectVerifiedReadersReject(path_,
                                "flip at offset " + std::to_string(offset));
  }
}

TEST_F(FormatFuzzTest, RandomTruncationsAreRejectedEverywhere) {
  Victim victim = MakeVictim(path_);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  // Every section boundary, plus random interior cuts.
  std::vector<uint64_t> cuts = {0, 1, 4, victim.image.size() - 1};
  for (const SectionRange& s : info->sections) {
    cuts.push_back(s.offset);
    cuts.push_back(s.offset + s.length);
  }
  Rng rng(kSeed * 31 + kFormatVersionV4);
  for (int round = 0; round < 100; ++round) {
    cuts.push_back(rng.NextBounded(victim.image.size()));
  }
  for (uint64_t cut : cuts) {
    ASSERT_LT(cut, victim.image.size());
    WriteBytes(path_, std::span(victim.image).first(cut));
    std::string what = "cut at " + std::to_string(cut);
    ExpectVerifiedReadersReject(path_, what);
    // Truncation always removes trailer or metadata bytes — even the
    // lazy open must catch it.
    auto lazy =
        MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
    EXPECT_FALSE(lazy.ok()) << what << ": lazy open accepted";
  }
}

TEST_F(FormatFuzzTest, EveryV4BlockBoundaryFlipIsCaughtAtDecode) {
  Victim victim = MakeVictim(path_);
  auto info = InspectFile(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  auto view = ParseV4(victim.image, path_);
  ASSERT_TRUE(view.ok()) << view.status();
  struct SectionOfInterest {
    SectionV4 blob;
    const LabelSectionView* section;
  };
  const SectionOfInterest sections[] = {
      {kV4LinBlob, &view->lin},
      {kV4LoutBlob, &view->lout},
      {kV4LinBwdBlob, &view->lin_bwd},
      {kV4LoutBwdBlob, &view->lout_bwd},
  };
  for (const SectionOfInterest& s : sections) {
    uint64_t section_offset = info->sections[s.blob].offset;
    for (const V4BlockEntry& block : s.section->blocks) {
      // Flip the first byte of the block in the file image.
      std::vector<std::byte> mutant = victim.image;
      mutant[section_offset + block.blob_offset] ^= std::byte{0x01};
      WriteBytes(path_, mutant);
      // Verified open: refused outright (whole-file checksum).
      auto verified = MappedLinLoutStore::Open(path_);
      EXPECT_TRUE(verified.status().IsCorruption()) << verified.status();
      // Lazy open: accepted (metadata intact), damage surfaces as
      // Corruption from the per-block CRC — and only probing, never
      // crashing, in between.
      auto lazy =
          MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
      ASSERT_TRUE(lazy.ok()) << lazy.status();
      EXPECT_TRUE(lazy->VerifyBlocks().IsCorruption());
      ProbeEverySurface(*lazy, victim.num_nodes);
    }
  }
}

TEST_F(FormatFuzzTest, LazyV4OpenNeverCrashesOnArbitraryDamage) {
  Victim victim = MakeVictim(path_);
  Rng rng(kSeed * 77);
  size_t accepted = 0;
  for (int round = 0; round < 300; ++round) {
    uint64_t offset = rng.NextBounded(victim.image.size());
    std::byte mask{static_cast<unsigned char>(1u << rng.NextBounded(8))};
    std::vector<std::byte> mutant = victim.image;
    mutant[offset] ^= mask;
    WriteBytes(path_, mutant);
    auto lazy =
        MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
    if (!lazy.ok()) {
      // Metadata damage: rejected at open, with a structured error.
      EXPECT_TRUE(lazy.status().IsCorruption() ||
                  lazy.status().IsUnsupported())
          << "flip at " << offset << ": " << lazy.status();
      continue;
    }
    // Blob (or trailer-checksum) damage: the store serves, blob damage
    // is quarantined per block, and nothing crashes.
    ++accepted;
    Status blocks = lazy->VerifyBlocks();
    EXPECT_TRUE(blocks.ok() || blocks.IsCorruption()) << blocks;
    ProbeEverySurface(*lazy, victim.num_nodes);
  }
  // The attack actually exercised both regimes.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 300u);
}

TEST_F(FormatFuzzTest, GarbageFilesAreRejectedNotCrashed) {
  Rng rng(kSeed * 101);
  for (size_t size : {0u, 1u, 7u, 16u, 143u, 144u, 215u, 216u, 4096u}) {
    std::vector<std::byte> garbage(size);
    for (std::byte& b : garbage) {
      b = std::byte{static_cast<unsigned char>(rng.NextBounded(256))};
    }
    WriteBytes(path_, garbage);
    ExpectVerifiedReadersReject(path_,
                                "garbage of " + std::to_string(size) + "B");
    auto lazy =
        MappedLinLoutStore::Open(path_, {.verify_file_checksum = false});
    EXPECT_FALSE(lazy.ok()) << "garbage of " << size << "B";
  }
}

}  // namespace
}  // namespace hopi::storage
