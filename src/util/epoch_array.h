#ifndef KPJ_UTIL_EPOCH_ARRAY_H_
#define KPJ_UTIL_EPOCH_ARRAY_H_

#include <cstdint>

#include "util/logging.h"
#include "util/zeroed_array.h"

namespace kpj {

/// Array of values with O(1) bulk reset via epoch stamping.
///
/// Queries over large graphs touch a tiny fraction of nodes; per-query
/// distance/visited arrays are reset by bumping an epoch counter instead of
/// clearing n entries. Reads of unstamped slots return the default value,
/// so the value array never needs initializing: both arrays are
/// ZeroedArrays, and construction touches no page.
template <typename T>
class EpochArray {
 public:
  EpochArray() : epoch_(1) {}
  EpochArray(size_t size, T default_value)
      : default_(default_value), values_(size), stamps_(size), epoch_(1) {}

  /// Resizes (discarding contents) and sets the default value.
  void Reset(size_t size, T default_value) {
    default_ = default_value;
    values_ = ZeroedArray<T>(size);
    stamps_ = ZeroedArray<uint32_t>(size);
    epoch_ = 1;
  }

  /// Invalidates all stamped values in O(1) (amortized; rolls epochs over
  /// with a full clear every 2^32-1 resets).
  void NewEpoch() {
    if (++epoch_ == 0) {
      stamps_.Clear();
      epoch_ = 1;
    }
  }

  size_t size() const { return values_.size(); }

  /// True if `i` was Set since the last NewEpoch.
  bool Stamped(size_t i) const {
    KPJ_DCHECK(i < stamps_.size());
    return stamps_[i] == epoch_;
  }

  /// Current value at `i`, or the default if unstamped.
  T Get(size_t i) const {
    KPJ_DCHECK(i < values_.size());
    return stamps_[i] == epoch_ ? values_[i] : default_;
  }

  void Set(size_t i, T value) {
    KPJ_DCHECK(i < values_.size());
    values_[i] = value;
    stamps_[i] = epoch_;
  }

 private:
  T default_{};
  ZeroedArray<T> values_;
  ZeroedArray<uint32_t> stamps_;
  uint32_t epoch_;
};

/// Epoch-stamped node set: O(1) insert/test/clear-all.
class EpochSet {
 public:
  EpochSet() = default;
  explicit EpochSet(size_t size) : stamps_(size), epoch_(1) {}

  void Reset(size_t size) {
    stamps_ = ZeroedArray<uint32_t>(size);
    epoch_ = 1;
  }

  /// Empties the set in O(1).
  void ClearAll() {
    if (++epoch_ == 0) {
      stamps_.Clear();
      epoch_ = 1;
    }
  }

  size_t size() const { return stamps_.size(); }

  void Insert(size_t i) {
    KPJ_DCHECK(i < stamps_.size());
    stamps_[i] = epoch_;
  }

  void Erase(size_t i) {
    KPJ_DCHECK(i < stamps_.size());
    stamps_[i] = 0;
  }

  bool Contains(size_t i) const {
    KPJ_DCHECK(i < stamps_.size());
    return stamps_[i] == epoch_;
  }

 private:
  ZeroedArray<uint32_t> stamps_;
  uint32_t epoch_ = 1;
};

}  // namespace kpj

#endif  // KPJ_UTIL_EPOCH_ARRAY_H_
