// Atomic shim: the single indirection point between the data plane's
// synchronization primitives and the memory model they execute under.
//
// Normal builds (ASTERIX_MODEL_CHECK undefined): `common::Atomic<T>` IS
// `std::atomic<T>` (a type alias — not a wrapper, so there is nothing to
// inline away), `AtomicFence` is `std::atomic_thread_fence`, `DataCell`
// is a bare value, and `SteadyNow` is `steady_clock::now`. The
// static_asserts below prove the pass-through at compile time; the
// bench_queue CI gate proves it at run time.
//
// Model builds (ASTERIX_MODEL_CHECK defined — only ever by
// tests/model/): every load/store/RMW/fence routes through the
// cooperative scheduler in common/model_check.h, which explores thread
// interleavings exhaustively and simulates weak memory for the declared
// orderings (a relaxed load can observe coherent stale values; a missing
// fence is an explorable state). `DataCell` reports its reads/writes to
// the checker's vector-clock race detector, so plain data "protected" by
// an atomic protocol is verified to actually be protected.
//
// The SPIN-PARK lint allowlists this header: SpinWaitWhile is the one
// place outside mpmc_queue.h allowed to spin, and only as the normal
// build's bounded TTAS inner loop (the model build parks the thread in
// the scheduler instead, so a genuine stuck spin is reported as a
// deadlock with a trace rather than burning the exploration budget).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>

#ifdef ASTERIX_MODEL_CHECK
#include "common/model_check.h"
#endif

namespace asterix {
namespace common {

#ifndef ASTERIX_MODEL_CHECK

// ---------------------------------------------------------------------
// Pass-through build: zero-cost aliases over the std primitives.
// ---------------------------------------------------------------------

template <typename T>
using Atomic = std::atomic<T>;

inline void AtomicFence(std::memory_order order) {
  std::atomic_thread_fence(order);
}

/// Non-atomic payload slot whose accesses are ordered by an external
/// protocol (a slot sequence number, a lock bit). In normal builds it is
/// the bare value; in model builds every access feeds the race detector,
/// so the protocol itself is what is being checked.
template <typename T>
class DataCell {
 public:
  DataCell() = default;
  explicit DataCell(T initial) : value_(std::move(initial)) {}
  DataCell(const DataCell&) = delete;
  DataCell& operator=(const DataCell&) = delete;

  template <typename U>
  void Set(U&& next) {
    value_ = std::forward<U>(next);
  }
  /// Moves the value out and resets the cell to T{} (a write).
  T Take() {
    T taken = std::move(value_);
    value_ = T{};
    return taken;
  }
  T Copy() const { return value_; }
  void SwapWith(T& other) {
    using std::swap;
    swap(value_, other);
  }

 private:
  T value_{};
};

inline std::chrono::steady_clock::time_point SteadyNow() {
  return std::chrono::steady_clock::now();
}

/// Bounded TTAS inner wait: spins (yielding every kSpinRounds laps)
/// while `a` reads `v` with relaxed ordering. The caller owns the
/// acquire-side re-check — this is only the polite busy-wait between
/// attempts. The model build suspends the thread until another thread
/// writes the location, so an unreachable store is a reported deadlock
/// instead of a hang.
template <typename T>
inline void SpinWaitWhile(const Atomic<T>& a, T v) {
  constexpr int kSpinRounds = 64;
  int spins = 0;
  while (a.load(std::memory_order_relaxed) == v) {
    if (++spins >= kSpinRounds) {
      spins = 0;
      std::this_thread::yield();  // holder was descheduled (SPIN-PARK)
    }
  }
}

// The pass-through proof: Atomic must be layout- and type-identical to
// std::atomic (an alias, not a wrapper), and DataCell must add nothing
// to the payload. bench_queue's perf gate rests on these being true.
static_assert(std::is_same_v<Atomic<uint64_t>, std::atomic<uint64_t>>,
              "Atomic<T> must alias std::atomic<T> in normal builds");
static_assert(std::is_same_v<Atomic<bool>, std::atomic<bool>>,
              "Atomic<bool> must alias std::atomic<bool> in normal builds");
static_assert(sizeof(Atomic<uint64_t>) == sizeof(std::atomic<uint64_t>),
              "Atomic<T> must be layout-identical to std::atomic<T>");
static_assert(sizeof(DataCell<char>) == sizeof(char),
              "DataCell<T> must add no storage to T in normal builds");
static_assert(sizeof(DataCell<void*>) == sizeof(void*),
              "DataCell<T> must add no storage to T in normal builds");

#else  // ASTERIX_MODEL_CHECK

// ---------------------------------------------------------------------
// Model build: every operation routes through the checker. Values are
// encoded into uint64_t (integral/bool payloads only — exactly what the
// data plane uses) so the engine can track modification-order histories
// without knowing T.
// ---------------------------------------------------------------------

template <typename T>
class Atomic {
  static_assert(std::is_integral_v<T> && sizeof(T) <= 8,
                "model-checked Atomic supports integral payloads <= 8B");

 public:
  constexpr Atomic() noexcept : bits_(0) {}
  constexpr Atomic(T v) noexcept  // NOLINT(google-explicit-constructor)
      : bits_(Encode(v)) {}
  ~Atomic() { mc::HookForget(this); }
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    return Decode(mc::HookLoad(this, mo, bits_));
  }
  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    mc::HookStore(this, Encode(v), mo, &bits_);
  }
  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return Decode(
        mc::HookRmw(this, mc::Rmw::kExchange, Encode(v), mo, &bits_));
  }
  T fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return Decode(mc::HookRmw(this, mc::Rmw::kAdd, Encode(v), mo, &bits_));
  }
  T fetch_sub(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return Decode(mc::HookRmw(this, mc::Rmw::kSub, Encode(v), mo, &bits_));
  }
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    return CasImpl(expected, desired, /*weak=*/true, mo, FailOrder(mo));
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order mo,
                             std::memory_order fail_mo) {
    return CasImpl(expected, desired, /*weak=*/true, mo, fail_mo);
  }
  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    return CasImpl(expected, desired, /*weak=*/false, mo, FailOrder(mo));
  }
  bool compare_exchange_strong(T& expected, T desired, std::memory_order mo,
                               std::memory_order fail_mo) {
    return CasImpl(expected, desired, /*weak=*/false, mo, fail_mo);
  }

 private:
  static constexpr uint64_t Encode(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      return v ? 1 : 0;
    } else {
      using U = std::make_unsigned_t<T>;
      return static_cast<uint64_t>(static_cast<U>(v));
    }
  }
  static constexpr T Decode(uint64_t bits) {
    if constexpr (std::is_same_v<T, bool>) {
      return bits != 0;
    } else {
      using U = std::make_unsigned_t<T>;
      return static_cast<T>(static_cast<U>(bits));
    }
  }
  static constexpr std::memory_order FailOrder(std::memory_order mo) {
    // The single-order compare_exchange derives the failure (load-only)
    // order per [atomics.types.operations]: drop any release component.
    switch (mo) {
      case std::memory_order_acq_rel:
        return std::memory_order_acquire;
      case std::memory_order_release:
        return std::memory_order_relaxed;
      default:
        return mo;
    }
  }
  bool CasImpl(T& expected, T desired, bool weak, std::memory_order mo,
               std::memory_order fail_mo) {
    uint64_t exp = Encode(expected);
    bool ok =
        mc::HookCas(this, &exp, Encode(desired), weak, mo, fail_mo, &bits_);
    if (!ok) expected = Decode(exp);
    return ok;
  }

  // Mirrors the latest value in modification order so pass-through
  // contexts (static init, post-abort unwinding) read coherent state.
  uint64_t bits_;
};

inline void AtomicFence(std::memory_order order) { mc::HookFence(order); }

template <typename T>
class DataCell {
 public:
  DataCell() = default;
  explicit DataCell(T initial) : value_(std::move(initial)) {}
  ~DataCell() { mc::HookDataForget(this); }
  DataCell(const DataCell&) = delete;
  DataCell& operator=(const DataCell&) = delete;

  template <typename U>
  void Set(U&& next) {
    mc::HookDataWrite(this);
    value_ = std::forward<U>(next);
  }
  T Take() {
    mc::HookDataWrite(this);
    T taken = std::move(value_);
    value_ = T{};
    return taken;
  }
  T Copy() const {
    mc::HookDataRead(this);
    return value_;
  }
  void SwapWith(T& other) {
    mc::HookDataWrite(this);
    using std::swap;
    swap(value_, other);
  }

 private:
  T value_{};
};

inline std::chrono::steady_clock::time_point SteadyNow() {
  return mc::HookSteadyNow();
}

template <typename T>
inline void SpinWaitWhile(const Atomic<T>& a, T v) {
  // Park in the scheduler until some thread stores a different value to
  // `a`; the caller's retry loop re-checks with its own ordering. (The
  // encoding mirrors Atomic<T>::Encode for integral payloads.)
  uint64_t observed;
  if constexpr (std::is_same_v<T, bool>) {
    observed = v ? 1 : 0;
  } else {
    observed = static_cast<uint64_t>(static_cast<std::make_unsigned_t<T>>(v));
  }
  mc::HookBlockWhileValue(&a, observed);
}

#endif  // ASTERIX_MODEL_CHECK

}  // namespace common
}  // namespace asterix
