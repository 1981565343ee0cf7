// Microbenchmark for the data-plane queue: a mutex+condvar baseline
// (MutexQueue, below) vs MpmcQueue (lock-free ring), across 1/2/4/8
// producers and push batch sizes 1/16/64, one consumer draining with the
// batched pop API. Throughput is items transferred per second of wall
// time. Results go to BENCH_queue.json.
//
// Protocol notes:
//  - Producers TryPush in a loop and, on a full queue, fall back to the
//    blocking Push — the same shape as the task pump's writers.
//  - Single-core hosts: this measures hand-off efficiency (fewer
//    syscalls/parks per item), not parallel scaling; the relative
//    ordering is what the acceptance gate checks.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace bench {
namespace {

constexpr size_t kCapacity = 1024;
constexpr int64_t kItemsPerProducer = 200000;

struct RunResult {
  std::string queue;
  int producers = 0;
  int batch = 0;
  int64_t delivered = 0;
  double seconds = 0;
  double items_per_sec() const {
    return seconds > 0 ? static_cast<double>(delivered) / seconds : 0;
  }
};

// ---- the mutexed baseline ----------------------------------------------

/// Bounded mutex+condvar queue with only what the bench calls: a Push
/// that blocks while full, and a PopAll that waits for data and then
/// drains everything queued under one lock acquisition.
class MutexQueue {
 public:
  explicit MutexQueue(size_t capacity) : capacity_(capacity) {}

  void Push(int64_t item) EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    not_full_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return;
    items_.push_back(item);
    not_empty_.NotifyOne();
  }

  /// Empty only when closed and drained.
  std::vector<int64_t> PopAll() EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    not_empty_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return closed_ || !items_.empty();
    });
    std::vector<int64_t> drained(items_.begin(), items_.end());
    items_.clear();
    if (!drained.empty()) not_full_.NotifyAll();
    return drained;
  }

  void Close() EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

 private:
  const size_t capacity_;
  common::Mutex mutex_;
  common::CondVar not_empty_;
  common::CondVar not_full_;
  std::deque<int64_t> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

// ---- per-queue producer/consumer adapters ------------------------------

struct MutexAdapter {
  static constexpr const char* kName = "MutexQueue";
  MutexQueue q{kCapacity};
  void ProducerPush(int64_t* items, int n) {
    for (int i = 0; i < n; ++i) q.Push(items[i]);
  }
  int64_t ConsumerDrainAll() {
    int64_t n = 0;
    for (;;) {
      std::vector<int64_t> batch = q.PopAll();
      if (batch.empty()) return n;  // closed and drained
      n += static_cast<int64_t>(batch.size());
    }
  }
  void Close() { q.Close(); }
};

struct MpmcAdapter {
  static constexpr const char* kName = "MpmcQueue";
  common::MpmcQueue<int64_t> q{kCapacity};
  void ProducerPush(int64_t* items, int n) {
    // Batched fast path, blocking fallback for the unpushed suffix.
    size_t pushed = q.TryPushN(items, static_cast<size_t>(n));
    for (size_t i = pushed; i < static_cast<size_t>(n); ++i) {
      (void)q.Push(items[i]);
    }
  }
  int64_t ConsumerDrainAll() {
    int64_t n = 0;
    for (;;) {
      std::vector<int64_t> batch = q.PopAll();
      if (batch.empty()) return n;
      n += static_cast<int64_t>(batch.size());
    }
  }
  void Close() { q.Close(); }
};

template <typename Adapter>
RunResult RunOne(int producers, int batch) {
  Adapter adapter;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers) + 1);
  common::Stopwatch watch;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&adapter, batch, p] {
      std::vector<int64_t> buf(static_cast<size_t>(batch));
      int64_t next = p * kItemsPerProducer;
      int64_t remaining = kItemsPerProducer;
      while (remaining > 0) {
        int n = static_cast<int>(
            std::min<int64_t>(batch, remaining));
        for (int i = 0; i < n; ++i) buf[static_cast<size_t>(i)] = next++;
        adapter.ProducerPush(buf.data(), n);
        remaining -= n;
      }
    });
  }
  int64_t consumed = 0;
  std::thread consumer(
      [&adapter, &consumed] { consumed = adapter.ConsumerDrainAll(); });
  for (auto& t : threads) t.join();
  adapter.Close();
  consumer.join();

  RunResult r;
  r.queue = Adapter::kName;
  r.producers = producers;
  r.batch = batch;
  r.delivered = consumed;
  r.seconds = static_cast<double>(watch.ElapsedMicros()) / 1e6;
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace asterix

int main() {
  using asterix::bench::RunOne;
  using asterix::bench::RunResult;

  asterix::bench::Banner("BENCH queue",
                         "lock-free data plane vs mutexed baseline");
  std::vector<RunResult> results;
  const int kProducerCounts[] = {1, 2, 4, 8};
  const int kBatches[] = {1, 16, 64};
  for (int producers : kProducerCounts) {
    for (int batch : kBatches) {
      results.push_back(
          RunOne<asterix::bench::MutexAdapter>(producers, batch));
      results.push_back(
          RunOne<asterix::bench::MpmcAdapter>(producers, batch));
    }
  }

  std::printf("\n%-16s %9s %6s %12s %12s\n", "queue", "producers",
              "batch", "delivered", "items/s");
  for (const RunResult& r : results) {
    std::printf("%-16s %9d %6d %12lld %12.0f\n", r.queue.c_str(),
                r.producers, r.batch, static_cast<long long>(r.delivered),
                r.items_per_sec());
  }

  // The acceptance gate this bench exists for: at 4 producers the
  // lock-free ring must beat the mutexed queue by >= 2x (best batch).
  double best_mutex = 0, best_mpmc = 0;
  for (const RunResult& r : results) {
    if (r.producers != 4) continue;
    if (r.queue == "MutexQueue") {
      best_mutex = std::max(best_mutex, r.items_per_sec());
    } else if (r.queue == "MpmcQueue") {
      best_mpmc = std::max(best_mpmc, r.items_per_sec());
    }
  }
  double speedup = best_mutex > 0 ? best_mpmc / best_mutex : 0;
  std::printf("\n4-producer best-batch speedup (MpmcQueue/MutexQueue): "
              "%.2fx\n", speedup);

  std::FILE* out = std::fopen("BENCH_queue.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_queue.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"queue\",\n  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(out,
                 "    {\"queue\": \"%s\", \"producers\": %d, \"batch\": %d,"
                 " \"delivered\": %lld,"
                 " \"seconds\": %.6f, \"items_per_sec\": %.0f}%s\n",
                 r.queue.c_str(), r.producers, r.batch,
                 static_cast<long long>(r.delivered), r.seconds,
                 r.items_per_sec(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"speedup_4p_mpmc_over_blocking\": %.2f\n}\n",
               speedup);
  std::fclose(out);
  std::printf("wrote BENCH_queue.json\n");
  return 0;
}
