// Ring-buffer FIFO for per-packet and per-flow queues.
//
// Why not std::deque: libstdc++'s mallocs a 64-byte map and a 512-byte block
// when built and another block per 512 bytes pushed, and frees blocks as
// pops pass them, so each of a run's thousands of mostly idle queues would
// hold ~576 heap bytes and steady churn would keep allocating. Fifo is one
// power-of-two array used as a ring: it allocates nothing until the first
// push, doubles when full and never shrinks, so like the slot, node and
// packet pools it levels off at its peak depth and then stops allocating.
//
// Unlike std::deque, a push that grows the ring moves every element, so a
// reference or pointer into the ring is invalidated by push_back. Callers
// copy what they read (an index, a tag) or move the element out before
// pushing.
//
// Preconditions (front and pop_front on a non-empty ring, operator[] below
// size()) are checked in debug builds and under -D_GLIBCXX_ASSERTIONS, the
// same builds in which libstdc++ checks them for its own containers; a
// failed check prints the violated rule and aborts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace tcn::sim {

#if !defined(NDEBUG) || defined(_GLIBCXX_ASSERTIONS)
inline constexpr bool kFifoChecks = true;
#else
inline constexpr bool kFifoChecks = false;
#endif

[[noreturn]] inline void fifo_check_failed(const char* what) noexcept {
  std::fprintf(stderr, "sim::Fifo: %s\n", what);
  std::abort();
}

template <typename T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "Fifo elements must be nothrow-movable (growth relocates "
                "them)");

 public:
  /// Most elements a ring holds; a push past it throws std::length_error.
  static constexpr std::size_t kMaxSize = UINT32_MAX;
  /// Capacity of the first allocation: one 64-byte line's worth of
  /// elements, or one element if T is larger.
  static constexpr std::size_t kFirstCapacity =
      std::bit_floor(std::max<std::size_t>(1, 64 / sizeof(T)));

  Fifo() noexcept = default;
  Fifo(Fifo&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)),
        mask_(std::exchange(o.mask_, 0)) {}
  Fifo& operator=(Fifo&&) = delete;
  ~Fifo() { release(); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Elements the ring holds before its next growth (0 until the first
  /// push).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return buf_ == nullptr ? 0 : std::size_t{mask_} + 1;
  }

  [[nodiscard]] T& front() noexcept {
    check(size_ != 0, "front() on an empty ring");
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    check(size_ != 0, "front() on an empty ring");
    return buf_[head_];
  }

  /// Element `i` counted from the front.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    check(i < size_, "operator[] past size()");
    return buf_[slot(i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    check(i < size_, "operator[] past size()");
    return buf_[slot(i)];
  }

  void push_back(const T& v) { push(v); }
  void push_back(T&& v) { push(std::move(v)); }

  void pop_front() noexcept {
    check(size_ != 0, "pop_front() on an empty ring");
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  friend struct FifoTestPeer;

  static void check([[maybe_unused]] bool ok,
                    [[maybe_unused]] const char* what) noexcept {
    if constexpr (kFifoChecks) {
      if (!ok) fifo_check_failed(what);
    }
  }

  // 32-bit arithmetic: when the capacity is 2^32 the sum wraps exactly as
  // the mask would.
  [[nodiscard]] std::uint32_t slot(std::size_t i) const noexcept {
    return (head_ + static_cast<std::uint32_t>(i)) & mask_;
  }

  template <typename U>
  void push(U&& v) {
    if (size_ == kMaxSize) {
      throw std::length_error("sim::Fifo: more than 2^32 - 1 elements");
    }
    if (size_ == capacity()) {
      grow(std::forward<U>(v));
    } else {
      ::new (static_cast<void*>(buf_ + slot(size_))) T(std::forward<U>(v));
    }
    ++size_;
  }

  // Builds the new element in the new array first, so `v` may refer into
  // the ring, and a throwing copy leaves the ring as it was.
  template <typename U>
  void grow(U&& v) {
    const std::size_t old_cap = capacity();
    const std::size_t cap = old_cap == 0 ? kFirstCapacity : 2 * old_cap;
    std::allocator<T> alloc;
    T* fresh = alloc.allocate(cap);
    try {
      ::new (static_cast<void*>(fresh + size_)) T(std::forward<U>(v));
    } catch (...) {
      alloc.deallocate(fresh, cap);
      throw;
    }
    for (std::uint32_t i = 0; i < size_; ++i) {
      T* from = buf_ + slot(i);
      ::new (static_cast<void*>(fresh + i)) T(std::move(*from));
      std::destroy_at(from);
    }
    if (buf_ != nullptr) alloc.deallocate(buf_, old_cap);
    buf_ = fresh;
    head_ = 0;
    mask_ = static_cast<std::uint32_t>(cap - 1);
  }

  // Destroys front to back, the order std::deque uses, then frees the array.
  void release() noexcept {
    if (buf_ == nullptr) return;
    while (size_ != 0) pop_front();
    std::allocator<T>().deallocate(buf_, capacity());
    buf_ = nullptr;
    head_ = 0;
    mask_ = 0;
  }

  T* buf_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t mask_ = 0;  ///< capacity - 1 while buf_ is set
};

}  // namespace tcn::sim
