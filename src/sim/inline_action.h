#pragma once

/// \file inline_action.h
/// A move-only `void()` callable stored inline — the action type of the
/// simulator's event queue.
///
/// Closures live in a fixed in-object buffer, so constructing, moving
/// and destroying an action never touches the heap. A closure that does
/// not fit is a compile error, not a silent heap fallback: the capacity
/// is sized for the largest closure the simulator schedules (the 32-byte
/// TTL expiry `[this, slot, incarnation, handle]`, or a copied
/// std::function<void()>). Trivially copyable closures — every capture
/// list of pointers and integers — relocate with a plain memcpy.

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.h"

namespace icollect::sim {

namespace detail {
template <typename T>
inline constexpr bool kIsStdFunction = false;
template <typename R, typename... Args>
inline constexpr bool kIsStdFunction<std::function<R(Args...)>> = true;
}  // namespace detail

class InlineAction {
 public:
  static constexpr std::size_t kCapacity = 32;
  static constexpr std::size_t kAlign = alignof(void*);

  InlineAction() noexcept = default;
  InlineAction(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  /// Store `f` in place. A null function pointer or an empty
  /// std::function yields an empty action, as std::function would.
  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, InlineAction> && std::is_invocable_v<D&>)
  InlineAction(F&& f) {  // NOLINT: implicit, like std::function
    static_assert(sizeof(D) <= kCapacity,
                  "closure too large for InlineAction: shrink its captures");
    static_assert(alignof(D) <= kAlign,
                  "closure over-aligned for InlineAction");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "InlineAction relocates closures with a noexcept move");
    if constexpr (std::is_pointer_v<D> || detail::kIsStdFunction<D>) {
      if (f == nullptr) return;
    }
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  InlineAction(InlineAction&& other) noexcept { take(other); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  /// Invoke the stored closure. Precondition: non-empty.
  void operator()() {
    ICOLLECT_EXPECTS(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  friend bool operator==(const InlineAction& a, std::nullptr_t) noexcept {
    return a.ops_ == nullptr;
  }

  /// Destroy the stored closure, leaving the action empty.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  /// Per-closure-type operations. `relocate` and `destroy` are null for
  /// trivially copyable closures, which move by memcpy.
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static void invoke_as(void* p) {
    (*static_cast<D*>(p))();
  }
  template <typename D>
  static void relocate_as(void* dst, void* src) noexcept {
    D* from = static_cast<D*>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void destroy_as(void* p) noexcept {
    static_cast<D*>(p)->~D();
  }

  template <typename D>
  static constexpr Ops kOps{
      &invoke_as<D>,
      std::is_trivially_copyable_v<D> ? nullptr : &relocate_as<D>,
      std::is_trivially_copyable_v<D> ? nullptr : &destroy_as<D>};

  void take(InlineAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kCapacity);
    }
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(kAlign) unsigned char buf_[kCapacity]{};
};

}  // namespace icollect::sim
