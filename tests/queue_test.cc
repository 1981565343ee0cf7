// Property and stress tests for the lock-free data-plane queues
// (common/mpmc_queue.h): conservation under multi-writer/multi-reader
// load, capacity backpressure, batch-API semantics, and parking
// behaviour.
// The whole file runs under the tsan-chaos preset (see CMakePresets.json)
// so every interleaving claim here is also a ThreadSanitizer claim.
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "testing_util.h"

namespace asterix {
namespace {

using common::EventCount;
using common::MpmcQueue;

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  MpmcQueue<int> q3(3);
  EXPECT_EQ(q3.capacity(), 4u);
  MpmcQueue<int> q4(4);
  EXPECT_EQ(q4.capacity(), 4u);
  MpmcQueue<int> q0(0);
  EXPECT_GE(q0.capacity(), 2u);
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  for (int i = 0; i < 8; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueue, TryPushFailsWhenFullAndLeavesItemIntact) {
  MpmcQueue<std::string> q(2);
  EXPECT_TRUE(q.TryPush("a"));
  EXPECT_TRUE(q.TryPush("b"));
  std::string c = "c";
  EXPECT_FALSE(q.TryPushFrom(c));
  EXPECT_EQ(c, "c");  // not consumed on failure
  EXPECT_EQ(q.size(), 2u);
}

TEST(MpmcQueue, TryPushNPushesLongestPrefix) {
  MpmcQueue<int> q(4);
  std::vector<int> items = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(q.TryPushN(items.data(), items.size()), 4u);
  std::vector<int> drained = q.TryPopAll();
  EXPECT_EQ(drained, (std::vector<int>{1, 2, 3, 4}));
}

TEST(MpmcQueue, PopAllBoundedHonoursMax) {
  MpmcQueue<int> q(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.TryPush(i));
  std::vector<int> first = q.PopAllBounded(3);
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.size(), 7u);
  std::vector<int> rest = q.PopAllBounded(SIZE_MAX);
  EXPECT_EQ(rest.size(), 7u);
  EXPECT_EQ(rest.front(), 3);
}

TEST(MpmcQueue, CloseUnblocksAndDrains) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_FALSE(q.TryPush(8));  // push refused after close
  auto v = q.Pop();            // drain still works
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.Pop().has_value());  // closed + drained -> nullopt
  EXPECT_TRUE(q.PopAll().empty());    // and PopAll agrees
}

TEST(MpmcQueue, PopBlocksUntilPush) {
  MpmcQueue<int> q(4);
  std::thread later = testing::After(50, [&] { ASSERT_TRUE(q.Push(42)); });
  auto v = q.Pop();  // must park, then wake on the push
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  later.join();
}

TEST(MpmcQueue, PushBlocksUntilPopMakesRoom) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(3));  // full: must park
    pushed.store(true);
  });
  EXPECT_TRUE(testing::StaysFalseFor([&] { return pushed.load(); }, 100));
  EXPECT_EQ(q.Pop().value_or(-1), 1);  // frees a slot
  EXPECT_TRUE(testing::WaitFor([&] { return pushed.load(); }, 2000));
  producer.join();
  std::vector<int> rest = q.TryPopAll();
  EXPECT_EQ(rest, (std::vector<int>{2, 3}));
}

TEST(MpmcQueue, PopForTimesOutEmpty) {
  MpmcQueue<int> q(4);
  EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(30)).has_value());
  EXPECT_TRUE(q.PopAllFor(std::chrono::milliseconds(30)).empty());
}

// A timed pop whose deadline has already passed takes the short-circuit
// branch where WaitFor never runs; the PrepareWait registration must
// still be released, or waiters_ creeps up forever and every later
// NotifyAll needlessly takes the parking mutex.
TEST(MpmcQueue, ExpiredDeadlineTimedPopsLeaveNoWaiterRegistration) {
  MpmcQueue<int> q(4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(0)).has_value());
    EXPECT_TRUE(q.PopAllFor(std::chrono::milliseconds(0)).empty());
  }
  EXPECT_EQ(q.consumer_waiters(), 0u);
  EXPECT_TRUE(q.TryPush(1));  // queue still fully functional
  EXPECT_EQ(q.TryPop().value_or(-1), 1);
}

// Close() publishes closed_ with a release store and must never lose the
// wakeup race against consumers that are concurrently parking: the fence
// in NotifyAll guarantees the notifier either sees the registered waiter
// or the waiter's recheck sees closed_. A lost wakeup hangs the joins
// (under TSan the spin budget is zero, so consumers park immediately and
// the window is widest there).
TEST(MpmcQueue, CloseRacesParkingConsumersWithoutLostWakeup) {
  for (int i = 0; i < 200; ++i) {
    MpmcQueue<int> q(4);
    std::thread popper([&] { EXPECT_FALSE(q.Pop().has_value()); });
    std::thread drainer([&] { EXPECT_TRUE(q.PopAll().empty()); });
    q.Close();
    popper.join();
    drainer.join();
  }
}

// The core property: with P producers each pushing K distinct values and
// C consumers draining, every value is seen exactly once — no loss, no
// duplication, no invention. Seeded and repeated so slot reuse (the ABA
// seam the per-slot sequence counters exist for) gets exercised: K is a
// large multiple of the tiny capacity.
TEST(MpmcQueue, MultiWriterMultiReaderConservation) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;
  MpmcQueue<int> q(16);  // tiny on purpose: maximal wrap-around pressure
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::vector<int>> seen(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &seen, c] {
      for (;;) {
        std::vector<int> batch = q.PopAll();
        if (batch.empty()) return;  // closed and drained
        seen[c].insert(seen[c].end(), batch.begin(), batch.end());
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  std::set<int> all;
  size_t total = 0;
  for (const auto& v : seen) {
    total += v.size();
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(all.size(), total);  // no duplicates
  EXPECT_EQ(*all.begin(), 0);
  EXPECT_EQ(*all.rbegin(), kProducers * kPerProducer - 1);
}

// Per-consumer pop order must preserve each producer's push order
// (linearizable FIFO per ticket): with a single consumer, the subsequence
// of any one producer's values is strictly increasing.
TEST(MpmcQueue, PerProducerOrderPreserved) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 1500;
  MpmcQueue<int> q(8);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> order;
  std::thread consumer([&] {
    for (;;) {
      std::vector<int> batch = q.PopAll();
      if (batch.empty()) return;
      order.insert(order.end(), batch.begin(), batch.end());
    }
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();

  std::vector<int> last(kProducers, -1);
  for (int v : order) {
    int p = v / kPerProducer;
    EXPECT_LT(last[p], v % kPerProducer);
    last[p] = v % kPerProducer;
  }
}

TEST(EventCount, NotifyWakesWaiter) {
  EventCount ec;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    uint64_t epoch = ec.PrepareWait();
    ec.Wait(epoch);
    woke.store(true);
  });
  // NotifyAll may race the PrepareWait; keep signalling until the waiter
  // confirms — the Dekker protocol guarantees no lost-wakeup once
  // PrepareWait published the waiter count.
  EXPECT_TRUE(testing::WaitFor(
      [&] {
        ec.NotifyAll();
        return woke.load();
      },
      2000));
  waiter.join();
}

TEST(EventCount, CancelWaitLeavesNoWaiters) {
  EventCount ec;
  (void)ec.PrepareWait();
  ec.CancelWait();
  ec.NotifyAll();  // must not hang or touch freed state
}

TEST(EventCount, WaitForTimesOut) {
  EventCount ec;
  uint64_t epoch = ec.PrepareWait();
  EXPECT_FALSE(ec.WaitFor(epoch, std::chrono::milliseconds(20)));
}

TEST(SnapshotPtr, LoadReturnsInitialAndStoredValues) {
  common::SnapshotPtr<const int> p(std::make_shared<const int>(1));
  EXPECT_EQ(*p.load(), 1);
  p.store(std::make_shared<const int>(2));
  EXPECT_EQ(*p.load(), 2);
}

// The property std::atomic<std::shared_ptr> could not give us under
// TSan: concurrent loads and stores with internally consistent
// snapshots. Each snapshot is a pair whose halves must agree; a reader
// observing a torn or stale-mixed snapshot means the publication lacks
// the cross-critical-section happens-before edge SnapshotPtr exists to
// provide. Under the tsan-chaos preset this is also a direct race check
// on the lock-bit protocol itself.
TEST(SnapshotPtr, ConcurrentLoadStoreYieldsConsistentSnapshots) {
  struct Pair {
    int64_t a;
    int64_t b;  // always 2 * a
  };
  common::SnapshotPtr<const Pair> p(std::make_shared<const Pair>(Pair{0, 0}));
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      int64_t last_seen = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const Pair> snap = p.load();
        ASSERT_EQ(snap->b, 2 * snap->a);      // never torn
        ASSERT_GE(snap->a, last_seen);        // never moves backwards
        last_seen = snap->a;
      }
    });
  }
  for (int64_t i = 1; i <= 2000; ++i) {
    p.store(std::make_shared<const Pair>(Pair{i, 2 * i}));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(p.load()->a, 2000);
}

// Batched pop: PopAll blocks while empty, drains everything queued once
// data arrives, and returns empty only when closed and drained.
TEST(MpmcQueue, PopAllBlocksThenDrainsUntilClosed) {
  MpmcQueue<int> q(64);
  std::thread later = testing::After(30, [&] {
    ASSERT_TRUE(q.Push(1));
    ASSERT_TRUE(q.Push(2));
  });
  std::vector<int> batch = q.PopAll();
  later.join();
  // One or both, depending on when the consumer wakes — but never empty.
  ASSERT_FALSE(batch.empty());
  std::vector<int> rest = q.TryPopAll();
  batch.insert(batch.end(), rest.begin(), rest.end());
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  q.Close();
  EXPECT_TRUE(q.PopAll().empty());
}

// tsan soak: sustained mixed traffic (bounded pushes, batched timed
// pops) from several producers and consumers at once. The assertions are
// weak on purpose — the point is the interleavings ThreadSanitizer gets
// to observe when the tsan-chaos preset runs this suite.
TEST(QueueSoak, MixedTrafficUnderContention) {
  constexpr int kSeconds = 2;
  MpmcQueue<int> mpmc(32);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> pushed{0}, popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&, p] {
      common::Rng rng(100 + p);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (mpmc.TryPush(i)) pushed.fetch_add(1, std::memory_order_relaxed);
        if (rng.Chance(0.1)) common::SleepMicros(50);
        ++i;
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        popped.fetch_add(
            static_cast<int64_t>(
                mpmc.PopAllFor(std::chrono::milliseconds(5)).size()),
            std::memory_order_relaxed);
      }
    });
  }
  common::SleepMillis(kSeconds * 1000);
  stop.store(true);
  for (auto& t : threads) t.join();
  popped.fetch_add(static_cast<int64_t>(mpmc.TryPopAll().size()),
                   std::memory_order_relaxed);
  EXPECT_EQ(pushed.load(), popped.load());  // conservation after drain
  EXPECT_GT(pushed.load(), 0);
}

}  // namespace
}  // namespace asterix
