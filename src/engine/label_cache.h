// Byte-budgeted cache of decoded label blocks, one per served snapshot
// (ROADMAP: "cache hot LIN/LOUT sets behind the storage layer", for
// block-compressed v4 stores). Like the one buffer pool through which
// every session of the paper's database reads the LIN and LOUT tables
// (Sec 5.1), one cache serves every thread that probes one store:
// EnginePool hands the cache of the published snapshot to each of its
// workers.
//
// The cache's unit is a shared_ptr<const DecodedBlock>: a whole decoded
// v4 block (many rows), keyed by the backend's block handle. One cold
// probe pays one block decode; every other row in the block is then a
// hit, for every thread.
//
// Ownership/pinning rule: GetMany/Put hand out shared_ptr pins. Eviction
// removes the CACHE's reference only — any batch still joining rows of
// an evicted block keeps it alive through its pin, so there is no
// "view invalidated by eviction" hazard and no minimum-capacity clamp.
// Callers must hold the pin for as long as they read a view into the
// block; a bare view must never outlive its pin. QueryEngine::Batch
// looks its distinct blocks up in one GetMany and holds their pins
// until it returns, so the blocks it pins past the budget are bounded
// by one batch's.
//
// Budgeting is by DecodedBlock::ApproxBytes(), charged at insert. The
// cache is striped by handle into num_shards() shards, and each shard
// keeps its bytes within an equal slice of the budget, so
// bytes_resident() never exceeds byte_budget(). A zero budget is a
// legal "cache nothing" configuration; correctness never depends on
// residency, only speed does.
//
// Replacement is CLOCK (second chance), per shard: entries sit on a
// ring that a hand sweeps, each with a reference bit. A hit sets the
// bit. A new entry goes just behind the hand, with its bit clear, so the
// sweep reaches it last. While the shard is over its slice, the entry
// at the hand is examined: a set bit is cleared and the hand moves on, a
// clear one's entry is evicted (possibly the entry just inserted, when
// the slice is smaller than one block — the caller's pin keeps it
// alive). O(1) per lookup and insert, amortized O(1) per eviction.
//
// Threading: every operation is safe from any thread. A GetMany takes
// each shard's reader lock once, for all of its handles there, writes
// an entry's reference bit only when it is clear, and counts nothing,
// so hits on one shard proceed side by side. A Put
// takes the shard's writer lock; evicted blocks are freed after it is
// released. The cache never decodes: callers decode a missed block
// outside every lock, so two threads that miss on the same block at
// once both decode it. That duplicate is allowed, not prevented: the
// later Put overwrites the earlier one and counts a duplicate_put.
// Hits, misses and decodes are counted by the callers and recorded
// once per batch (Record), on a line of their own.
// Statistics are relaxed atomics; each counter is monotonic, but a
// multi-field snapshot is not guaranteed to be mutually consistent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>

#include "engine/backend.h"

namespace hopi::engine {

class LabelCache {
 public:
  /// Most shards a cache is striped into.
  static constexpr size_t kMaxShards = 16;
  /// Least budget slice a shard gets: smaller budgets get fewer shards
  /// (a budget under 2 × kMinShardBytes is one shard), so that a budget
  /// of a block or two still holds its blocks.
  static constexpr size_t kMinShardBytes = 64 * 1024;

  /// What a caller did through the cache, recorded in one Record call
  /// (an engine records one per batch).
  struct Tally {
    /// Lookups that found their block resident.
    uint64_t hits = 0;
    /// Lookups that did not.
    uint64_t misses = 0;
    /// Blocks decoded after a miss, and the nanoseconds they took.
    uint64_t blocks_decoded = 0;
    uint64_t decode_nanos = 0;
  };

  /// One relaxed read of every counter (see StatsSnapshot).
  struct Stats {
    /// Lifetime sums of the recorded Tally fields.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    /// Bytes currently held by cached blocks (ApproxBytes sum).
    size_t bytes_resident = 0;
    /// The configured budget bytes_resident is kept under.
    size_t byte_budget = 0;
    uint64_t blocks_decoded = 0;
    uint64_t decode_nanos = 0;
    /// Puts of a handle that was already resident: a block decoded
    /// again by a thread that missed on it while another thread's
    /// decode of it was in flight.
    uint64_t duplicate_puts = 0;
  };

  /// `byte_budget` caps the resident ApproxBytes total. 0 disables
  /// residency entirely (every lookup misses; pins still work).
  explicit LabelCache(size_t byte_budget);

  LabelCache(const LabelCache&) = delete;
  LabelCache& operator=(const LabelCache&) = delete;

  /// Sets each of `blocks` (as many as `handles`) to a pin on the
  /// block cached under the parallel handle, marked referenced, or to
  /// null on a miss. Takes each shard's reader lock once, for all of
  /// its handles. Counts nothing (see Record).
  void GetMany(std::span<const uint64_t> handles,
               std::span<LabelBlock> blocks);

  /// Inserts (or overwrites) the block cached under `handle`, then
  /// evicts in CLOCK order until the shard's slice of the budget holds.
  /// Returns a pin on `block` (valid even if it was immediately
  /// evicted).
  LabelBlock Put(uint64_t handle, LabelBlock block);

  /// Adds a caller's lookups and decodes to the lifetime counters (the
  /// cache itself neither counts lookups nor decodes).
  void Record(const Tally& tally);

  /// Drops every entry; the lifetime counters stay.
  void Clear();

  size_t size() const;
  size_t bytes_resident() const;
  size_t byte_budget() const { return byte_budget_; }
  size_t num_shards() const { return num_shards_; }

  // ---- lifetime counters (across all batches served) ----
  uint64_t hits() const { return Load(recorded_.hits); }
  uint64_t misses() const { return Load(recorded_.misses); }
  uint64_t evictions() const;
  uint64_t duplicate_puts() const;
  uint64_t blocks_decoded() const { return Load(recorded_.blocks_decoded); }
  uint64_t decode_nanos() const { return Load(recorded_.decode_nanos); }

  /// All counters in one struct (each read individually relaxed).
  Stats StatsSnapshot() const;

 private:
  struct Entry {
    Entry(uint64_t h, LabelBlock b, size_t n)
        : handle(h), block(std::move(b)), bytes(n) {}
    uint64_t handle;
    LabelBlock block;
    size_t bytes;  // ApproxBytes at insert, charged until eviction
    std::atomic<bool> referenced{false};
  };
  using Ring = std::list<Entry>;

  /// One stripe: its own lock, CLOCK ring and slice of the budget.
  /// Aligned so that readers of different shards never share a line.
  struct alignas(64) Shard {
    std::shared_mutex mu;
    Ring ring;
    /// The next entry the sweep examines; ring.end() iff the ring is
    /// empty.
    Ring::iterator hand = ring.end();
    std::unordered_map<uint64_t, Ring::iterator> index;
    size_t budget = 0;
    // Written under the writer lock; read relaxed by the stats.
    std::atomic<size_t> bytes{0};
    std::atomic<size_t> entries{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> duplicate_puts{0};
  };

  /// The recorded Tally sums, on a line of their own: every lookup reads
  /// the fields before them.
  struct alignas(64) Recorded {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> blocks_decoded{0};
    std::atomic<uint64_t> decode_nanos{0};
  };

  static uint64_t Load(const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }

  size_t ShardIndex(uint64_t handle) const;
  /// Sums one counter over the shards.
  template <typename T>
  T Sum(std::atomic<T> Shard::*counter) const;

  size_t byte_budget_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  Recorded recorded_;
};

}  // namespace hopi::engine
