// Small-size-optimized vector for the checkers' configuration bookkeeping.
//
// A configuration's linearized-op set is bounded by the number of
// concurrently open operations, which wait-free workloads keep tiny (the
// bench histories cap it at 2-4).  Storing those sets inline removes the
// per-clone heap allocation that dominated Config::clone(); the heap spill
// path keeps correctness for adversarial wide-window histories.  The op-set
// users size N to that bound: LinSet's ValueRunSet keeps 4 runs inline,
// enough for one distinct value per process on 4 processes.
//
// Restricted to trivially copyable, trivially destructible T: elements are
// moved with memcpy and never individually destroyed.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace selin {

template <typename T, size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(N > 0 && N < UINT32_MAX);

 public:
  SmallVec() = default;
  SmallVec(const SmallVec& o) { assign(o); }
  SmallVec(SmallVec&& o) noexcept { steal(o); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      size_ = 0;  // keep current capacity, just overwrite
      assign(o);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~SmallVec() { release(); }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }

  /// Insert before index `at` (shifts the tail right).
  void insert_at(size_t at, const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    std::memmove(data_ + at + 1, data_ + at, (size_ - at) * sizeof(T));
    data_[at] = v;
    ++size_;
  }

  /// Remove index `at`, preserving order.
  void erase_at(size_t at) {
    std::memmove(data_ + at, data_ + at + 1, (size_ - at - 1) * sizeof(T));
    --size_;
  }

  /// Bytes held on the heap (0 while inline) — memory-footprint accounting.
  size_t heap_bytes() const {
    return data_ == inline_buf() ? 0 : cap_ * sizeof(T);
  }

 private:
  void assign(const SmallVec& o) {
    if (o.size_ > cap_) grow(o.size_);
    std::memcpy(data_, o.data_, o.size_ * sizeof(T));
    size_ = o.size_;
  }

  void steal(SmallVec& o) {
    if (o.data_ != o.inline_buf()) {  // steal the heap block
      data_ = o.data_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.data_ = o.inline_buf();
      o.cap_ = N;
      o.size_ = 0;
    } else {
      std::memcpy(inline_buf(), o.data_, o.size_ * sizeof(T));
      data_ = inline_buf();
      cap_ = N;
      size_ = o.size_;
      o.size_ = 0;
    }
  }

  void grow(size_t need) {
    size_t cap = cap_ * 2;
    while (cap < need) cap *= 2;
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(fresh, data_, size_ * sizeof(T));
    release();
    data_ = fresh;
    cap_ = static_cast<uint32_t>(cap);
  }

  void release() {
    if (data_ != inline_buf()) ::operator delete(data_);
  }

  T* inline_buf() { return reinterpret_cast<T*>(storage_); }
  const T* inline_buf() const { return reinterpret_cast<const T*>(storage_); }

  alignas(T) unsigned char storage_[N * sizeof(T)];
  T* data_ = inline_buf();
  uint32_t size_ = 0;
  uint32_t cap_ = N;
};

}  // namespace selin
