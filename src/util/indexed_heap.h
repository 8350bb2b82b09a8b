#ifndef KPJ_UTIL_INDEXED_HEAP_H_
#define KPJ_UTIL_INDEXED_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/zeroed_array.h"

namespace kpj {

/// Indexed d-ary min-heap over item ids `[0, capacity)` with decrease-key.
///
/// This is the priority queue used by all Dijkstra/A* style searches: items
/// are node ids, keys are (estimated) distances. `d = 4` trades a slightly
/// deeper sift-up for much cheaper sift-down, which wins on the
/// relax-dominated workloads of sparse road networks.
///
/// All operations are O(log n); `Contains`/`KeyOf` are O(1).
template <typename Key, int kArity = 4>
class IndexedHeap {
 public:
  /// Creates a heap able to hold ids in `[0, capacity)`.
  explicit IndexedHeap(size_t capacity = 0) { Reset(capacity); }

  /// Resizes and clears. Existing contents are discarded.
  void Reset(size_t capacity) {
    KPJ_CHECK(capacity < UINT32_MAX);
    pos_ = ZeroedArray<uint32_t>(capacity);
    heap_.clear();
  }

  /// Removes all items but keeps capacity. O(size).
  void Clear() {
    for (const Entry& e : heap_) pos_[e.id] = kAbsent;
    heap_.clear();
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  size_t capacity() const { return pos_.size(); }

  bool Contains(uint32_t id) const {
    KPJ_DCHECK(id < pos_.size());
    return pos_[id] != kAbsent;
  }

  /// Current key of a contained item.
  Key KeyOf(uint32_t id) const {
    KPJ_DCHECK(Contains(id));
    return heap_[pos_[id] - 1].key;
  }

  /// Inserts a new item; `id` must not be contained.
  void Push(uint32_t id, Key key) {
    KPJ_DCHECK(id < pos_.size());
    KPJ_DCHECK(!Contains(id));
    heap_.push_back(Entry{key, id});
    SiftUp(heap_.size() - 1);
  }

  /// Lowers the key of a contained item; `key` must be <= current key.
  void DecreaseKey(uint32_t id, Key key) {
    KPJ_DCHECK(Contains(id));
    size_t i = pos_[id] - 1;
    KPJ_DCHECK(!(heap_[i].key < key));
    heap_[i].key = key;
    SiftUp(i);
  }

  /// Inserts or decreases: returns true if the item's key changed.
  bool PushOrDecrease(uint32_t id, Key key) {
    if (!Contains(id)) {
      Push(id, key);
      return true;
    }
    if (key < KeyOf(id)) {
      DecreaseKey(id, key);
      return true;
    }
    return false;
  }

  /// Minimum key; heap must be non-empty.
  Key TopKey() const {
    KPJ_DCHECK(!empty());
    return heap_[0].key;
  }

  /// Id of the minimum item; heap must be non-empty.
  uint32_t TopId() const {
    KPJ_DCHECK(!empty());
    return heap_[0].id;
  }

  /// Removes and returns the id of the minimum item.
  uint32_t Pop() {
    KPJ_DCHECK(!empty());
    uint32_t top = heap_[0].id;
    pos_[top] = kAbsent;
    Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      SiftDown(0);
    }
    return top;
  }

  /// Removes and returns the minimum (id, key) pair.
  std::pair<uint32_t, Key> PopWithKey() {
    Key k = TopKey();
    return {Pop(), k};
  }

  /// Copies the internal entries in slot order into `out` as (id, key)
  /// pairs. RestoreRaw with the same sequence reproduces the identical
  /// array layout — and therefore the identical future pop order, ties
  /// included.
  void ExportRaw(std::vector<std::pair<uint32_t, Key>>* out) const {
    out->clear();
    out->reserve(heap_.size());
    for (const Entry& e : heap_) out->emplace_back(e.id, e.key);
  }

  /// Replaces the contents with entries previously obtained from
  /// ExportRaw, preserving slot order exactly. The sequence must be a
  /// valid heap over distinct ids within capacity.
  void RestoreRaw(std::span<const std::pair<uint32_t, Key>> entries) {
    Clear();
    heap_.reserve(entries.size());
    for (const auto& [id, key] : entries) {
      KPJ_DCHECK(id < pos_.size());
      KPJ_DCHECK(pos_[id] == kAbsent);
      heap_.push_back(Entry{key, id});
      pos_[id] = SlotTag(heap_.size() - 1);
    }
  }

 private:
  struct Entry {
    Key key;
    uint32_t id;
  };

  // pos_ holds slot + 1, so the zero a fresh ZeroedArray starts with
  // means "absent" and sizing the heap touches no page.
  static constexpr uint32_t kAbsent = 0;
  static uint32_t SlotTag(size_t slot) {
    return static_cast<uint32_t>(slot + 1);
  }

  void SiftUp(size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!(e.key < heap_[parent].key)) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id] = SlotTag(i);
      i = parent;
    }
    heap_[i] = e;
    pos_[e.id] = SlotTag(i);
  }

  void SiftDown(size_t i) {
    Entry e = heap_[i];
    const size_t n = heap_.size();
    for (;;) {
      size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      size_t end = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
      if (!(heap_[best].key < e.key)) break;
      heap_[i] = heap_[best];
      pos_[heap_[i].id] = SlotTag(i);
      i = best;
    }
    heap_[i] = e;
    pos_[e.id] = SlotTag(i);
  }

  ZeroedArray<uint32_t> pos_;  // id -> heap slot + 1 (kAbsent if absent)
  std::vector<Entry> heap_;   // slot -> (key, id)
};

}  // namespace kpj

#endif  // KPJ_UTIL_INDEXED_HEAP_H_
