// Seeded-violation fixture for the blocking-under-lock check: a direct
// blocking op under a mutex, one reached through a callee, and one
// reached through a field whose type names its namespace.
#pragma once

#include <cstdint>

enum class LockRank : uint16_t {
  kQueue = 10,
};

class Blocky {
 public:
  void SleepUnderLock() {
    MutexLock lock(mutex_);
    SleepMillis(50);  // EXPECT[BLOCK-LOCK] direct blocking op under lock
  }

  void HelperThatBlocks() {
    SleepMillis(5);  // no lock held here: clean on its own
  }

  void TransitiveBlock() {
    MutexLock lock(mutex_);
    HelperThatBlocks();  // EXPECT[BLOCK-LOCK] blocks through the callee
  }

 private:
  Mutex mutex_{LockRank::kQueue};
};

namespace disk {

class Journal {
 public:
  void Append(int64_t v) { SleepMillis(v); }  // blocks (stands in for I/O)
};

class Buffer {
 public:
  void Append(int64_t v) { last_ = v; }  // same name, never blocks
  int64_t last_ = 0;
};

}  // namespace disk

class Store {
 public:
  void Insert(int64_t v) {
    MutexLock lock(mutex_);
    // `Append` has two definitions, so only the field's type can pick one.
    journal_.Append(v);  // EXPECT[BLOCK-LOCK] blocks through a disk:: field
  }

 private:
  disk::Journal journal_;
  Mutex mutex_{LockRank::kQueue};
};
