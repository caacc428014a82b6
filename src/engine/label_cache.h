// Byte-budgeted LRU cache of decoded label blocks (ROADMAP: "cache hot
// LIN/LOUT sets behind the storage layer", for block-compressed v4
// stores).
//
// The cache's unit is a shared_ptr<const DecodedBlock>: a whole decoded
// v4 block (many rows), keyed by the backend's block handle. One cold
// probe pays one block decode; every other row in the block is then a
// hit.
//
// Ownership/pinning rule: Get/Put hand out shared_ptr pins. Eviction
// removes the CACHE's reference only — any batch still joining rows of
// an evicted block keeps it alive through its pin, so there is no
// "view invalidated by eviction" hazard and no minimum-capacity clamp.
// Callers must hold the pin (engine::PinnedJoin) for as long as they
// read the view; a bare view must never outlive its pin.
//
// Budgeting is by DecodedBlock::ApproxBytes(), charged at insert.
// After an insert pushes bytes_resident over the budget, least-
// recently-used entries are dropped until it fits again (possibly
// including the entry just inserted — a zero budget is a legal
// "cache nothing" configuration; correctness never depends on
// residency, only speed does).
//
// Recency is exact: entries sit in a list ordered most- to least-
// recently used, a Get or Put splices its entry to the front, and
// eviction pops the back — O(1) per lookup, insert and eviction.
//
// Threading (one writer, many stats readers): exactly one thread — the
// engine that owns the cache — may call the structural operations
// Get/Put/Clear/RecordDecode, never concurrently with each other or a
// move. The statistics accessors (and StatsSnapshot) are relaxed
// atomics, safe from any thread at any time; individual counters are
// monotonic but a multi-field snapshot is not guaranteed mutually
// consistent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "engine/backend.h"

namespace hopi::engine {

class LabelCache {
 public:
  /// One relaxed read of every counter (see StatsSnapshot).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    /// Bytes currently held by cached blocks (ApproxBytes sum).
    size_t bytes_resident = 0;
    /// The configured budget bytes_resident is kept under.
    size_t byte_budget = 0;
    /// Lifetime count of block decodes recorded by the owning engine
    /// (block-route cache misses).
    uint64_t blocks_decoded = 0;
    /// Lifetime nanoseconds spent in those decodes.
    uint64_t decode_nanos = 0;
  };

  /// `byte_budget` caps the resident ApproxBytes total. 0 disables
  /// residency entirely (every lookup misses; pins still work).
  explicit LabelCache(size_t byte_budget);

  /// Moving is a structural operation: it must be serialized with every
  /// other access, stats reads included (the counters move too).
  LabelCache(LabelCache&& other) noexcept;
  LabelCache& operator=(LabelCache&&) = delete;
  LabelCache(const LabelCache&) = delete;
  LabelCache& operator=(const LabelCache&) = delete;

  /// Returns a pin on the block cached under `handle` and marks it
  /// most-recently-used; null on a miss. Owner-thread only.
  LabelBlock Get(uint64_t handle);

  /// Inserts (or overwrites) the block cached under `handle`, then
  /// evicts least-recently-used blocks until the byte budget holds.
  /// Returns a pin on `block` (valid even if it was immediately
  /// evicted). Owner-thread only.
  LabelBlock Put(uint64_t handle, LabelBlock block);

  /// Accounts one block decode of `nanos` performed by the owning
  /// engine (the cache itself never decodes). Owner-thread only.
  void RecordDecode(uint64_t nanos);

  /// Owner-thread only.
  void Clear();

  /// Current entry count / resident bytes. Safe from any thread
  /// (atomic mirrors maintained by the structural operations).
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  size_t bytes_resident() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  size_t byte_budget() const { return byte_budget_; }

  // ---- lifetime counters (across all batches served) ----
  //
  // Safe from any thread; see the ownership rule above.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t blocks_decoded() const {
    return blocks_decoded_.load(std::memory_order_relaxed);
  }
  uint64_t decode_nanos() const {
    return decode_nanos_.load(std::memory_order_relaxed);
  }

  /// All counters in one struct (each read individually relaxed).
  Stats StatsSnapshot() const {
    return Stats{hits(),           misses(),       evictions(),
                 size(),           bytes_resident(), byte_budget(),
                 blocks_decoded(), decode_nanos()};
  }

 private:
  struct Entry {
    uint64_t handle;
    LabelBlock block;
    size_t bytes;  // ApproxBytes at insert, charged until eviction
  };
  using Lru = std::list<Entry>;

  /// Drops entries from the back of lru_ until the budget holds.
  void EvictUntilWithinBudget();

  Lru lru_;  // most-recently used first
  std::unordered_map<uint64_t, Lru::iterator> map_;
  size_t byte_budget_;
  size_t resident_ = 0;  // authoritative; bytes_ mirrors it
  std::atomic<size_t> size_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> blocks_decoded_{0};
  std::atomic<uint64_t> decode_nanos_{0};
};

}  // namespace hopi::engine
