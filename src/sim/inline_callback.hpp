// Move-only, small-buffer-optimized event callback.
//
// The simulator fires tens of millions of events per simulated second; a
// std::function<void()> per event costs a heap allocation whenever the
// capture exceeds the library's tiny SBO (16B on libstdc++) and forces every
// capture to be copyable -- which is why packets used to be smuggled through
// events inside a shared_ptr<PacketPtr> wrapper. InlineCallback removes both
// costs: callables are stored in 64 bytes of inline storage, period. A
// callable that does not fit is a compile error (the static_assert below),
// not a silent heap fallback, so the hot path provably never allocates.
//
// Moving an InlineCallback move-constructs the stored callable into the new
// slot via a per-type vtable (memcpy for trivially copyable captures), so
// heap sifts in the simulator stay cheap and exception-free: storable
// callables must be nothrow-move-constructible.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tcn::sim {

class InlineCallback {
 public:
  /// Inline storage budget. Sized for the fattest hot-path capture: a port
  /// forwarding event carries {this, queue index, pooled PacketPtr} -- 32
  /// bytes -- leaving headroom for a second pointer-rich capture without
  /// ever spilling.
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wrap any void() callable. Implicit so existing schedule_in(d, [..]{})
  /// call sites compile unchanged.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::remove_cvref_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fd = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fd&>,
                  "InlineCallback requires a void() callable");
    static_assert(sizeof(Fd) <= kInlineBytes,
                  "capture exceeds the 64B inline-callback budget -- shrink "
                  "the capture");
    static_assert(alignof(Fd) <= kInlineAlign,
                  "capture is over-aligned for inline-callback storage");
    static_assert(std::is_nothrow_move_constructible_v<Fd>,
                  "inline-callback captures must be nothrow-movable (heap "
                  "sifts move them)");
    ::new (static_cast<void*>(storage_)) Fd(std::forward<F>(f));
    vt_ = vtable_for<Fd>();
  }

  InlineCallback(InlineCallback&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(storage_, other.storage_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  /// Assign a callable directly into the inline storage -- the zero-copy
  /// path the simulator's slot pool uses: the caller's lambda is
  /// constructed straight into its slot with no intermediate
  /// InlineCallback temporary (and thus no extra relocation).
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::remove_cvref_t<F>, InlineCallback>>>
  InlineCallback& operator=(F&& f) {
    reset();
    using Fd = std::decay_t<F>;
    static_assert(sizeof(Fd) <= kInlineBytes,
                  "capture exceeds the 64B inline-callback budget -- shrink "
                  "the capture");
    static_assert(alignof(Fd) <= kInlineAlign,
                  "capture is over-aligned for inline-callback storage");
    static_assert(std::is_nothrow_move_constructible_v<Fd>,
                  "inline-callback captures must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) Fd(std::forward<F>(f));
    vt_ = vtable_for<Fd>();
    return *this;
  }

  ~InlineCallback() { reset(); }

  /// Destroy the stored callable (empty afterwards).
  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  /// Invoke. Undefined on an empty callback (matches the simulator's
  /// contract: an Entry always holds a live callable).
  void operator()() { vt_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct src's callable into dst, then destroy src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fd>
  static const VTable* vtable_for() noexcept {
    static constexpr VTable vt{
        [](void* p) { (*static_cast<Fd*>(p))(); },
        [](void* dst, void* src) noexcept {
          Fd* s = static_cast<Fd*>(src);
          ::new (dst) Fd(std::move(*s));
          s->~Fd();
        },
        [](void* p) noexcept { static_cast<Fd*>(p)->~Fd(); },
    };
    return &vt;
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace tcn::sim
