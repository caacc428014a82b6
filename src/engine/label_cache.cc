#include "engine/label_cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <mutex>
#include <utility>
#include <vector>

namespace hopi::engine {

namespace {

/// kMaxShards, or the largest power of two that gives every shard at
/// least kMinShardBytes of `byte_budget`; at least 1.
size_t ShardCount(size_t byte_budget) {
  size_t fit = std::clamp<size_t>(byte_budget / LabelCache::kMinShardBytes, 1,
                                  LabelCache::kMaxShards);
  return std::bit_floor(fit);
}

}  // namespace

LabelCache::LabelCache(size_t byte_budget)
    : byte_budget_(byte_budget),
      num_shards_(ShardCount(byte_budget)),
      shards_(new Shard[num_shards_]) {
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].budget = byte_budget / num_shards_;
  }
}

size_t LabelCache::ShardIndex(uint64_t handle) const {
  // Fibonacci hashing: the top bits of handle × 2^64/φ spread the dense
  // handles of a section evenly over the shards.
  const uint64_t mixed = handle * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(mixed >> 60) & (num_shards_ - 1);
}

void LabelCache::GetMany(std::span<const uint64_t> handles,
                         std::span<LabelBlock> blocks) {
  assert(blocks.size() == handles.size());
  // Counting sort of the lookups by shard, then one pass per shard.
  std::array<size_t, kMaxShards + 1> begin{};
  for (uint64_t handle : handles) ++begin[ShardIndex(handle) + 1];
  for (size_t s = 0; s < num_shards_; ++s) begin[s + 1] += begin[s];
  std::vector<size_t> order(handles.size());
  std::array<size_t, kMaxShards> next{};
  std::copy_n(begin.begin(), kMaxShards, next.begin());
  for (size_t i = 0; i < handles.size(); ++i) {
    order[next[ShardIndex(handles[i])]++] = i;
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    if (begin[s] == begin[s + 1]) continue;
    Shard& shard = shards_[s];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (size_t j = begin[s]; j < begin[s + 1]; ++j) {
      auto it = shard.index.find(handles[order[j]]);
      if (it == shard.index.end()) {
        blocks[order[j]] = nullptr;
        continue;
      }
      Entry& entry = *it->second;
      // Written only when clear: a hot entry's line is then read, not
      // bounced, by the threads that hit it.
      if (!entry.referenced.load(std::memory_order_relaxed)) {
        entry.referenced.store(true, std::memory_order_relaxed);
      }
      blocks[order[j]] = entry.block;
    }
  }
}

LabelBlock LabelCache::Put(uint64_t handle, LabelBlock block) {
  const size_t bytes =
      block ? block->ApproxBytes() : sizeof(storage::DecodedBlock);
  Shard& shard = shards_[ShardIndex(handle)];
  Ring evicted;  // declared first: freed after the lock is released
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  size_t resident = shard.bytes.load(std::memory_order_relaxed);
  auto found = shard.index.find(handle);
  if (found == shard.index.end()) {
    // Just behind the hand: the sweep reaches the new entry last. The
    // ring and the index change together or not at all, so a bad_alloc
    // leaves the cache whole for the other threads.
    Ring::iterator at = shard.ring.emplace(shard.hand, handle, block, bytes);
    try {
      shard.index.emplace(handle, at);
    } catch (...) {
      shard.ring.erase(at);
      throw;
    }
    if (shard.hand == shard.ring.end()) shard.hand = at;
  } else {
    Entry& entry = *found->second;
    resident -= entry.bytes;
    entry.block = block;
    entry.bytes = bytes;
    entry.referenced.store(true, std::memory_order_relaxed);
    shard.duplicate_puts.fetch_add(1, std::memory_order_relaxed);
  }
  resident += bytes;
  // The sweep. Each step clears a bit or evicts, and no reader can set
  // a bit meanwhile, so it ends within two turns of the ring.
  while (resident > shard.budget) {
    Entry& entry = *shard.hand;
    Ring::iterator at = shard.hand++;
    if (entry.referenced.load(std::memory_order_relaxed)) {
      entry.referenced.store(false, std::memory_order_relaxed);
    } else {
      resident -= entry.bytes;
      shard.index.erase(entry.handle);
      evicted.splice(evicted.end(), shard.ring, at);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
    if (shard.hand == shard.ring.end()) shard.hand = shard.ring.begin();
  }
  shard.bytes.store(resident, std::memory_order_relaxed);
  shard.entries.store(shard.index.size(), std::memory_order_relaxed);
  return block;
}

void LabelCache::Record(const Tally& tally) {
  recorded_.hits.fetch_add(tally.hits, std::memory_order_relaxed);
  recorded_.misses.fetch_add(tally.misses, std::memory_order_relaxed);
  recorded_.blocks_decoded.fetch_add(tally.blocks_decoded,
                                     std::memory_order_relaxed);
  recorded_.decode_nanos.fetch_add(tally.decode_nanos,
                                   std::memory_order_relaxed);
}

void LabelCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    Ring dropped;  // freed after the lock is released
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    dropped.swap(shard.ring);
    shard.index.clear();
    shard.hand = shard.ring.end();
    shard.bytes.store(0, std::memory_order_relaxed);
    shard.entries.store(0, std::memory_order_relaxed);
  }
}

template <typename T>
T LabelCache::Sum(std::atomic<T> Shard::*counter) const {
  T total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    total += (shards_[i].*counter).load(std::memory_order_relaxed);
  }
  return total;
}

size_t LabelCache::size() const { return Sum(&Shard::entries); }
size_t LabelCache::bytes_resident() const { return Sum(&Shard::bytes); }
uint64_t LabelCache::evictions() const { return Sum(&Shard::evictions); }
uint64_t LabelCache::duplicate_puts() const {
  return Sum(&Shard::duplicate_puts);
}

LabelCache::Stats LabelCache::StatsSnapshot() const {
  Stats stats;
  stats.hits = hits();
  stats.misses = misses();
  stats.evictions = evictions();
  stats.entries = size();
  stats.bytes_resident = bytes_resident();
  stats.byte_budget = byte_budget();
  stats.blocks_decoded = blocks_decoded();
  stats.decode_nanos = decode_nanos();
  stats.duplicate_puts = duplicate_puts();
  return stats;
}

}  // namespace hopi::engine
