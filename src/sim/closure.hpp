// Allocation-free callable storage for the discrete-event core.
//
// EventClosure replaces std::function<void()> on the scheduling hot path.
// It is a move-only type-erased callable that lives entirely in an inline
// buffer. Fitting that buffer is part of the type: a callable that is
// oversized, over-aligned or has a throwing move does not satisfy
// InlineCallable, so it fails to compile at the scheduling call
// (EventQueue::push, Simulator::schedule_at/schedule_in) instead of
// silently reintroducing per-event heap traffic. Every closure the stack
// layers schedule — including ones that capture a whole net::Packet or
// wifi::Frame by value — fits, so steady-state scheduling never touches the
// heap.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace acute::sim {

/// Move-only type-erased `void()` callable stored in a large inline buffer.
///
/// The buffer is sized so that the fattest closure any stack layer schedules
/// — a lambda capturing `this` plus a full wifi::Frame (which embeds a
/// net::Packet) — is stored inline. Invoking is non-destructive, so timers
/// can re-fire a stored closure. An empty closure must not be invoked
/// (EventQueue::push rejects empty callables up front).
class EventClosure {
 public:
  /// Inline capacity. Must cover sizeof(wifi::Frame) + two pointers; the
  /// event-core tests and the constraint on every scheduling call keep this
  /// honest as the capture lists evolve.
  static constexpr std::size_t kInlineBytes = 352;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when callables of type F fit the inline buffer. Only those can be
  /// stored at all, so construction and destruction never allocate.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  EventClosure() noexcept {}

  /// Wraps `fn`, built directly in the inline buffer.
  template <typename F, typename Fn = std::remove_cvref_t<F>>
    requires(!std::is_same_v<Fn, EventClosure> && std::is_invocable_v<Fn&> &&
             fits_inline<Fn>)
  EventClosure(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  /// Replaces the wrapped callable, constructing the new one directly into
  /// this closure's storage — the single move the scheduling hot path pays
  /// per event (EventQueue emplaces straight into the slot pool).
  template <typename F, typename Fn = std::remove_cvref_t<F>>
    requires(!std::is_same_v<Fn, EventClosure> && std::is_invocable_v<Fn&> &&
             fits_inline<Fn>)
  void emplace(F&& fn) {
    reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
    ops_ = &OpsFor<Fn>::table;
  }

  EventClosure(EventClosure&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;

  ~EventClosure() { reset(); }

  /// Invokes the wrapped callable. Precondition: !empty().
  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the wrapped callable and leaves the closure empty. Idempotent.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    void (*relocate)(unsigned char* dst, unsigned char* src) noexcept;
    void (*destroy)(unsigned char*) noexcept;
  };

  template <typename Fn>
  struct OpsFor {
    static Fn* object(unsigned char* buf) {
      return std::launder(reinterpret_cast<Fn*>(buf));
    }
    static void invoke(unsigned char* buf) { (*object(buf))(); }
    static void relocate(unsigned char* dst, unsigned char* src) noexcept {
      ::new (static_cast<void*>(dst)) Fn(std::move(*object(src)));
      object(src)->~Fn();
    }
    static void destroy(unsigned char* buf) noexcept { object(buf)->~Fn(); }
    static constexpr Ops table{&invoke, &relocate, &destroy};
  };

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// A callable the event core can schedule: exactly what EventClosure
/// stores. EventQueue::push and Simulator::schedule_at/schedule_in take only
/// these, so a capture-list change that outgrows the inline buffer fails to
/// build at the call that schedules it.
template <typename F>
concept InlineCallable =
    !std::is_same_v<std::remove_cvref_t<F>, EventClosure> &&
    std::is_invocable_v<std::remove_cvref_t<F>&> &&
    EventClosure::fits_inline<std::remove_cvref_t<F>>;

}  // namespace acute::sim
