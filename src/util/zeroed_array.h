#ifndef KPJ_UTIL_ZEROED_ARRAY_H_
#define KPJ_UTIL_ZEROED_ARRAY_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/logging.h"

namespace kpj {

/// Fixed-size, zero-filled array of a trivially copyable T, allocated with
/// calloc. A large block comes straight from fresh anonymous pages that
/// the kernel zero-fills on first touch, so sizing a per-node workspace
/// writes nothing up front: a solver's O(n) search arrays cost page faults
/// only where a query actually reaches. That keeps engine construction —
/// and with it a kpjd hot swap — from paying for memory no query uses.
/// Move-only.
template <typename T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ZeroedArray() = default;
  explicit ZeroedArray(size_t size)
      : data_(static_cast<T*>(std::calloc(size, sizeof(T)))), size_(size) {
    KPJ_CHECK(size == 0 || data_ != nullptr) << "out of memory";
  }
  // A moved-from array is empty, not a dangling size over a null buffer.
  ZeroedArray(ZeroedArray&& other) noexcept
      : data_(std::move(other.data_)), size_(std::exchange(other.size_, 0)) {}
  ZeroedArray& operator=(ZeroedArray&& other) noexcept {
    data_ = std::move(other.data_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }

  T& operator[](size_t i) {
    KPJ_DCHECK(i < size_);
    return data_.get()[i];
  }
  const T& operator[](size_t i) const {
    KPJ_DCHECK(i < size_);
    return data_.get()[i];
  }

  /// Zeroes every element (touches every page).
  void Clear() {
    if (size_ > 0) std::memset(data_.get(), 0, size_ * sizeof(T));
  }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T, Free> data_;
  size_t size_ = 0;
};

}  // namespace kpj

#endif  // KPJ_UTIL_ZEROED_ARRAY_H_
