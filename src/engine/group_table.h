// GroupTable: the one group-by hash table of the engine, mapping an encoded
// group key (KeyCodec) to its AggregateState. Serving (GroupAccumulator),
// view builds (MaterializedView::Aggregate) and delta refresh all aggregate
// through it.
//
// Layout: groups live in two parallel vectors, `keys_` and `states_`, in
// first-seen order; a power-of-two slot array of uint32_t entry numbers
// (0 = empty, e + 1 = entry e) indexes them by a 64-bit mix of the key,
// with linear probing. The slot array doubles whenever it would pass load
// 1/2, so a probe stays short without any size hint. No per-group node is
// allocated, and growth re-slots entry numbers without moving any state.
//
// Each group merges in the order its rows are added, so a scan in row
// order yields the same float bits as any other accumulator fed the same
// rows; ForEachSorted visits groups in ascending key order.

#ifndef OLAPIDX_ENGINE_GROUP_TABLE_H_
#define OLAPIDX_ENGINE_GROUP_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "engine/aggregate_state.h"

namespace olapidx {

class GroupTable {
 public:
  size_t size() const { return keys_.size(); }

  // Folds `state` into the group of `key`, creating the group on first
  // sight.
  void Merge(uint64_t key, const AggregateState& state) {
    if (2 * (keys_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        keys_.push_back(key);
        states_.push_back(state);
        slots_[i] = static_cast<uint32_t>(keys_.size());
        return;
      }
      if (keys_[slot - 1] == key) {
        states_[slot - 1].Merge(state);
        return;
      }
    }
  }

  // fn(key, state) for every group in ascending key order; sorts the
  // (key, entry) pairs once.
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    std::vector<std::pair<uint64_t, uint32_t>> order(keys_.size());
    for (size_t e = 0; e < keys_.size(); ++e) {
      order[e] = {keys_[e], static_cast<uint32_t>(e)};
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, e] : order) fn(key, states_[e]);
  }

 private:
  static constexpr size_t kMinSlots = 16;

  // Murmur3's 64-bit finalizer: every key bit reaches the low bits the
  // slot mask keeps, so keys differing only in high bits spread out.
  static uint64_t Mix(uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return key;
  }

  void Grow() {
    OLAPIDX_CHECK(keys_.size() < std::numeric_limits<uint32_t>::max());
    slots_.assign(std::max(kMinSlots, 2 * slots_.size()), 0);
    const size_t mask = slots_.size() - 1;
    for (size_t e = 0; e < keys_.size(); ++e) {
      size_t i = Mix(keys_[e]) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(e + 1);
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<AggregateState> states_;
  std::vector<uint32_t> slots_;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_GROUP_TABLE_H_
