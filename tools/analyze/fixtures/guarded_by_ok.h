// Negative fixture for the GUARDED-BY check: every opt-out for a field
// declared after a mutex member. The analyzer must report nothing here.
#pragma once

#include <atomic>
#include <cstdint>

enum class LockRank : uint16_t {
  kLow = 10,
  kHigh = 20,
};

class Covered {
 private:
  Mutex high_mutex_{LockRank::kHigh};
  Mutex low_mutex_{LockRank::kLow};
  int staged_ GUARDED_BY(low_mutex_) = 0;
  int published_ GUARDED_BY(high_mutex_) = 0;
  std::atomic<int> peeks_{0};
  const int limit_ = 8;
  // Single-writer: mutated only on the owner thread before publication.
  int owner_tally_ = 0;
};
