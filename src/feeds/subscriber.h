// Subscriber queues: the per-subscriber input queues hanging off a feed
// joint. This is where "excess records" accumulate when a pipeline cannot
// keep pace, and therefore where the ingestion policy's excess-record
// handling (Table 4.2) is enforced: block/buffer (Basic), spill to disk
// (Spill), drop (Discard), or sample (Throttle/Elastic-interim).
//
// Data-plane layout (lock-free rewire): the frame hand-off itself rides a
// bounded lock-free ring (common::OverwriteQueue over the Vyukov
// MpmcQueue), so the producer (joint routing thread) and the consumer
// (intake pump) never contend on a mutex for the hot path. The policy
// machinery — byte budget, spill/restore, sampling, discard hysteresis,
// stats — is a thin producer-side state layer under mutex_; that mutex is
// only ever taken by the single producer and by consumers on the *rare*
// paths (overflow migration, spill restore, terminal states), so the
// per-frame cost is one ring push + one ring pop.
#pragma once

#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mem_governor.h"
#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "feeds/policy.h"
#include "hyracks/frame.h"

namespace asterix {
namespace feeds {

class DataBucketPool;
struct TraceSpan;

/// The paper's Data Bucket: a frame holder carrying a consumer counter.
/// Shared by all subscribers of a joint in shared mode; returned to the
/// pool when the last subscriber is done.
class DataBucket {
 public:
  const hyracks::FramePtr& frame() const { return frame_; }

  /// Marks this subscriber's consumption; recycles on the last one.
  void Consume();

 private:
  friend class DataBucketPool;
  hyracks::FramePtr frame_;
  std::atomic<int> pending_{0};
  DataBucketPool* pool_ = nullptr;
};

/// Free-list pool of Data Buckets (§5.4.1: buckets are "reclaimed and
/// returned to a pool only to be retrieved later").
class DataBucketPool {
 public:
  ~DataBucketPool();

  DataBucket* Get(hyracks::FramePtr frame, int consumers);
  void Return(DataBucket* bucket);

  int64_t allocations() const { return allocations_.load(); }
  int64_t reuses() const { return reuses_.load(); }

 private:
  common::Mutex mutex_{common::LockRank::kBucketPool};
  std::deque<DataBucket*> free_ GUARDED_BY(mutex_);
  std::atomic<int64_t> allocations_{0};
  std::atomic<int64_t> reuses_{0};
};

struct SubscriberOptions {
  ExcessMode mode = ExcessMode::kBlock;
  /// In-memory excess budget before the mode's action kicks in.
  int64_t memory_budget_bytes = 32 << 20;
  /// Spill mode: bytes of disk spillage allowed before fallback.
  int64_t max_spill_bytes = 512LL << 20;
  /// Spill mode: fall back to throttling (instead of failing) when the
  /// spill budget is exhausted — the Spill_then_Throttle custom policy.
  bool throttle_after_spill = false;
  /// Directory for spill files.
  std::string spill_dir = "/tmp";
  /// Queue identity for spill file naming / logs.
  std::string name = "subscriber";
  /// Governor pool charged for buffered frame bytes (the global bound
  /// over all subscribers, alongside the per-subscriber budget above).
  /// Null resolves to MemGovernor::Default()'s "frame_path" pool; a
  /// refused reservation is folded into the mode's over-budget action.
  common::MemPool* memory_pool = nullptr;
  /// Governor pool charged for spill-file bytes. Null resolves to the
  /// default "spill" pool; refusal acts like spill-budget exhaustion.
  common::MemPool* spill_pool = nullptr;
};

struct SubscriberStats {
  int64_t frames_delivered = 0;
  int64_t records_delivered = 0;
  int64_t records_discarded = 0;
  int64_t records_throttled_away = 0;
  int64_t frames_spilled = 0;
  int64_t bytes_spilled = 0;
  int64_t frames_restored = 0;
  int64_t peak_pending_bytes = 0;
  /// Frames that missed the lock-free ring and took the mutexed
  /// overflow path (non-Discard modes; ring sizing diagnostic).
  int64_t frames_overflowed = 0;
};

/// One subscriber's queue. Producer side: the feed joint Delivers frames
/// (possibly wrapped in shared Data Buckets). Consumer side: the intake
/// operator of the subscribing pipeline Next()s frames at its own pace —
/// the asynchrony that gives the paper's Congestion Isolation.
class SubscriberQueue {
 public:
  SubscriberQueue(SubscriberOptions options, uint64_t seed = 17);
  ~SubscriberQueue();

  /// Keepalive for the bucket pool the queued DataBucket* point into.
  /// Set once by FeedJoint::Subscribe before any delivery; guarantees
  /// the pool outlives this queue even if the joint dies first (the
  /// destructor returns leftover buckets to the pool).
  void AttachPool(std::shared_ptr<DataBucketPool> pool) {
    pool_keepalive_ = std::move(pool);
  }

  /// Producer side. `bucket` is null in short-circuit mode. Never blocks
  /// the producer (congestion isolation): excess handling follows the
  /// policy mode instead.
  void Deliver(hyracks::FramePtr frame, DataBucket* bucket);

  /// Marks clean end-of-feed; consumers drain then see nullopt + ended().
  void DeliverEnd();

  /// Consumer side: next frame, waiting up to `timeout_ms`.
  std::optional<hyracks::FramePtr> Next(int64_t timeout_ms);

  /// Consumer side, batched: waits up to `timeout_ms` for data, then
  /// drains up to `max_frames` queued frames (lock-free off the ring).
  /// Empty result on timeout or when the queue ended/failed with nothing
  /// buffered.
  std::vector<hyracks::FramePtr> NextBatch(int64_t timeout_ms,
                                           size_t max_frames = SIZE_MAX);

  /// NextBatch appending into the caller's vector — with a reused
  /// capacity this drain allocates nothing per frame in steady state
  /// (the pooled-frame zero-alloc path; see hyracks/frame_pool.h).
  /// Returns the number of frames appended.
  size_t NextBatchInto(std::vector<hyracks::FramePtr>* out,
                       int64_t timeout_ms, size_t max_frames = SIZE_MAX);

  bool ended() const;
  /// Set when the Basic policy exhausted its memory budget (feed must
  /// terminate) or spillage overflowed without a throttle fallback.
  bool failed() const { return failed_.load(); }
  [[nodiscard]] common::Status failure() const;

  SubscriberStats stats() const;
  int64_t pending_bytes() const {
    // relaxed: monitoring read of the budget gauge.
    return pending_bytes_.load(std::memory_order_relaxed);
  }
  size_t pending_frames() const;
  const std::string& name() const { return options_.name; }

 private:
  struct Entry {
    hyracks::FramePtr frame;
    DataBucket* bucket = nullptr;  // consumed on pop
    int64_t deliver_us = 0;        // enqueue instant, traced frames only
  };

  // Excess handling under mutex_; fills `span` (non-null iff the frame is
  // traced) with the delivery outcome. The caller records it after
  // unlocking — RecordSpan must not run under a queue mutex.
  void DeliverLocked(hyracks::FramePtr frame, DataBucket* bucket,
                     TraceSpan* span) REQUIRES(mutex_);
  /// Hands an entry to the consumer side: lock-free ring push first;
  /// Discard mode displaces the oldest entry when the ring is full,
  /// other modes fall back to the mutexed overflow deque.
  void EnqueueEntryLocked(Entry entry) REQUIRES(mutex_);
  /// Retires a popped/displaced/abandoned entry's bucket reference and
  /// byte accounting.
  void RetireEntry(const Entry& entry);
  void RecordQueueSpan(const Entry& entry, int64_t pop_us) const;
  void SpillLocked(const hyracks::FramePtr& frame) REQUIRES(mutex_);
  bool RestoreFromSpillLocked() REQUIRES(mutex_);
  /// Consumer-side slow path: migrates overflowed entries into the ring
  /// and restores spilled frames once the ring has drained. Returns true
  /// if it moved anything (the caller re-polls the ring).
  bool ReplenishRingLocked() REQUIRES(mutex_);
  hyracks::FramePtr SampleFrame(const hyracks::FramePtr& frame,
                                double keep_probability) REQUIRES(mutex_);

  const SubscriberOptions options_;
  // Resolved governor pools (options_ pools or the Default() governor's
  // standard pools). Charged lock-free; never null after construction.
  common::MemPool* const mem_pool_;
  common::MemPool* const spill_pool_;
  // Destroyed after the destructor body runs, so leftover buckets can
  // always be returned safely.
  std::shared_ptr<DataBucketPool> pool_keepalive_;
  // The hot hand-off path: rank-exempt lock-free ring (see
  // common/mpmc_queue.h). Push/displace under mutex_ (producer side),
  // pop without any lock (consumer side).
  common::OverwriteQueue<Entry> ring_;
  // Parking for idle consumers; producers notify after every delivery,
  // end, or failure.
  common::EventCount ready_;
  mutable common::Mutex mutex_{common::LockRank::kSubscriberQueue};
  // Counter/flag ordering protocol (model-checked invariants in
  // tests/model/): every WRITE to the atomics below happens under
  // mutex_ with release strength; readers holding mutex_ load relaxed
  // (mutual exclusion already orders them), while NextBatch's lock-free
  // probes load acquire to pair with the writers' releases.
  // pending_bytes_ is the exception — a pure budget gauge whose RMWs
  // conserve the sum; all its accesses are relaxed.
  std::atomic<int64_t> pending_bytes_{0};
  std::atomic<bool> ended_{false};
  std::atomic<bool> failed_{false};
  common::Status failure_ GUARDED_BY(mutex_);
  SubscriberStats stats_ GUARDED_BY(mutex_);
  common::Rng rng_ GUARDED_BY(mutex_);

  // Overflow: entries that missed a full ring in non-Discard modes.
  // FIFO is preserved by construction: while overflow_count_ > 0 the
  // producer appends here (never to the ring), and consumers migrate
  // overflow into the ring only after the ring drained.
  std::deque<Entry> overflow_ GUARDED_BY(mutex_);
  std::atomic<int64_t> overflow_count_{0};

  // Spill state: once active, all arrivals spill until fully drained
  // (preserves record order).
  std::FILE* spill_file_ GUARDED_BY(mutex_) = nullptr;
  std::string spill_path_;  // written once in the constructor
  /// Bytes this queue's spill file currently charges against spill_pool_
  /// (released when the drained file is reclaimed, and at destruction).
  int64_t spill_charged_ GUARDED_BY(mutex_) = 0;
  std::atomic<int64_t> spill_pending_frames_{0};  // written under mutex_
  int64_t spill_read_offset_ GUARDED_BY(mutex_) = 0;
  bool throttling_ GUARDED_BY(mutex_) = false;   // spill overflow fallback
  bool discarding_ GUARDED_BY(mutex_) = false;   // Discard hysteresis:
                             // dropping until the backlog clears (§4.5)
};

}  // namespace feeds
}  // namespace asterix
