#include "engine/label_cache.h"

#include <utility>

namespace hopi::engine {

LabelCache::LabelCache(size_t byte_budget) : byte_budget_(byte_budget) {}

LabelCache::LabelCache(LabelCache&& other) noexcept
    : lru_(std::move(other.lru_)),
      map_(std::move(other.map_)),
      byte_budget_(other.byte_budget_),
      resident_(other.resident_),
      size_(other.size_.load(std::memory_order_relaxed)),
      bytes_(other.bytes_.load(std::memory_order_relaxed)),
      hits_(other.hits_.load(std::memory_order_relaxed)),
      misses_(other.misses_.load(std::memory_order_relaxed)),
      evictions_(other.evictions_.load(std::memory_order_relaxed)),
      blocks_decoded_(other.blocks_decoded_.load(std::memory_order_relaxed)),
      decode_nanos_(other.decode_nanos_.load(std::memory_order_relaxed)) {
  // The counters moved with the entries; a moved-from cache is empty
  // and must report like one (no phantom hits from its past life).
  other.lru_.clear();
  other.map_.clear();
  other.resident_ = 0;
  other.size_.store(0, std::memory_order_relaxed);
  other.bytes_.store(0, std::memory_order_relaxed);
  other.hits_.store(0, std::memory_order_relaxed);
  other.misses_.store(0, std::memory_order_relaxed);
  other.evictions_.store(0, std::memory_order_relaxed);
  other.blocks_decoded_.store(0, std::memory_order_relaxed);
  other.decode_nanos_.store(0, std::memory_order_relaxed);
}

LabelBlock LabelCache::Get(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->block;
}

void LabelCache::EvictUntilWithinBudget() {
  while (resident_ > byte_budget_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    resident_ -= victim.bytes;
    map_.erase(victim.handle);
    lru_.pop_back();  // may free the block, unless a caller pins it
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

LabelBlock LabelCache::Put(uint64_t handle, LabelBlock block) {
  const size_t bytes =
      block ? block->ApproxBytes() : sizeof(storage::DecodedBlock);
  auto [it, inserted] = map_.try_emplace(handle);
  if (inserted) {
    lru_.push_front(Entry{handle, block, bytes});
    it->second = lru_.begin();
  } else {
    resident_ -= it->second->bytes;
    it->second->block = block;
    it->second->bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  resident_ += bytes;
  // Shed least-recently-used entries until the budget holds. The entry
  // just inserted is fair game too (budget smaller than one block):
  // the caller's pin keeps the returned block alive regardless.
  EvictUntilWithinBudget();
  size_.store(map_.size(), std::memory_order_relaxed);
  bytes_.store(resident_, std::memory_order_relaxed);
  return block;
}

void LabelCache::RecordDecode(uint64_t nanos) {
  blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
  decode_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

void LabelCache::Clear() {
  lru_.clear();
  map_.clear();
  resident_ = 0;
  size_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace hopi::engine
