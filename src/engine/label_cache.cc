#include "engine/label_cache.h"

#include <iterator>
#include <utility>

namespace hopi::engine {

LabelCache::LabelCache(size_t byte_budget) : byte_budget_(byte_budget) {}

LabelCache::LabelCache(LabelCache&& other) noexcept
    : map_(std::move(other.map_)),
      rows_(std::move(other.rows_)),
      byte_budget_(other.byte_budget_),
      resident_(other.resident_),
      clock_(other.clock_),
      size_(other.size_.load(std::memory_order_relaxed)),
      bytes_(other.bytes_.load(std::memory_order_relaxed)),
      hits_(other.hits_.load(std::memory_order_relaxed)),
      misses_(other.misses_.load(std::memory_order_relaxed)),
      evictions_(other.evictions_.load(std::memory_order_relaxed)),
      blocks_decoded_(other.blocks_decoded_.load(std::memory_order_relaxed)),
      decode_nanos_(other.decode_nanos_.load(std::memory_order_relaxed)) {
  // The counters moved with the entries; a moved-from cache is empty
  // and must report like one (no phantom hits from its past life).
  other.resident_ = 0;
  other.clock_ = 0;
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
  it->second.used = ++clock_;
  return it->second.block;
}

LabelBlock LabelCache::GetRow(uint64_t row_key, uint32_t* row) {
  auto it = rows_.find(row_key);
  if (it == rows_.end()) return nullptr;
  if (LabelBlock block = it->second.block.lock()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    *row = it->second.row;
    return block;
  }
  rows_.erase(it);  // the block died; let the block route rebuild this
  return nullptr;
}

void LabelCache::MemoRow(uint64_t row_key, const LabelBlock& block,
                         uint32_t row) {
  rows_[row_key] = RowRef{block, row};
}

void LabelCache::EvictUntilWithinBudget() {
  while (resident_ > byte_budget_ && !map_.empty()) {
    auto victim = map_.begin();
    for (auto it = std::next(victim); it != map_.end(); ++it) {
      if (it->second.used < victim->second.used) victim = it;
    }
    resident_ -= victim->second.bytes;
    map_.erase(victim);  // may free the block, unless a caller pins it
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

LabelBlock LabelCache::Put(uint64_t handle, LabelBlock block) {
  const size_t bytes =
      block ? block->ApproxBytes() : sizeof(storage::DecodedBlock);
  auto [it, inserted] = map_.try_emplace(handle);
  if (!inserted) resident_ -= it->second.bytes;
  it->second.block = block;
  it->second.bytes = bytes;
  it->second.used = ++clock_;
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
  map_.clear();
  rows_.clear();
  resident_ = 0;
  size_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace hopi::engine
