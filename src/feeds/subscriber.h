// Subscriber queues: the per-subscriber input queues hanging off a feed
// joint. This is where "excess records" accumulate when a pipeline cannot
// keep pace, and therefore where the ingestion policy's excess-record
// handling (Table 4.2) is enforced: block/buffer (Basic), spill to disk
// (Spill), drop (Discard), or sample (Throttle/Elastic-interim).
//
// Data-plane layout: one FIFO of queued frames under one mutex. The
// producer (joint routing thread) appends under the lock it already needs
// for the policy state — byte budget, spill/restore, sampling, discard
// hysteresis, stats — and the consumer (intake pump) moves a whole batch
// out under one acquisition, waiting on a condition variable on the same
// mutex when idle. Bucket releases, governor releases and trace spans run
// after the consumer unlocks. The only policy bound is the byte budget in
// SubscriberOptions; the FIFO itself has no frame cap.
#pragma once

#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mem_governor.h"
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
  /// drains up to `max_frames` queued frames under one lock acquisition.
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
  bool failed() const;
  [[nodiscard]] common::Status failure() const;

  SubscriberStats stats() const;
  int64_t pending_bytes() const;
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
  /// Appends to the FIFO, charging the entry's bytes to pending_bytes_.
  void EnqueueLocked(Entry entry) REQUIRES(mutex_);
  /// Moves up to `max_frames` entries off the FIFO front into `out`,
  /// taking their bytes off pending_bytes_.
  void DequeueLocked(std::vector<Entry>* out, size_t max_frames)
      REQUIRES(mutex_);
  /// Returns a dequeued or abandoned entry's governor charge and bucket
  /// reference. Runs without mutex_ on the consumer path.
  void RetireEntry(const Entry& entry);
  void RecordQueueSpan(const Entry& entry, int64_t pop_us) const;
  void SpillLocked(const hyracks::FramePtr& frame) REQUIRES(mutex_);
  bool RestoreFromSpillLocked() REQUIRES(mutex_);
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
  mutable common::Mutex mutex_{common::LockRank::kSubscriberQueue};
  // Signalled after every delivery, end, or failure.
  common::CondVar ready_;
  // The FIFO: entries [head_, queued_.size()) are queued, oldest first;
  // the slots before head_ were moved out. DequeueLocked clears the
  // vector once drained and compacts it once half of it is dead, so its
  // capacity is reused and a steady state allocates nothing.
  std::vector<Entry> queued_ GUARDED_BY(mutex_);
  size_t head_ GUARDED_BY(mutex_) = 0;
  // Bytes of the queued entries: the per-subscriber budget gauge.
  int64_t pending_bytes_ GUARDED_BY(mutex_) = 0;
  bool ended_ GUARDED_BY(mutex_) = false;
  bool failed_ GUARDED_BY(mutex_) = false;
  common::Status failure_ GUARDED_BY(mutex_);
  SubscriberStats stats_ GUARDED_BY(mutex_);
  common::Rng rng_ GUARDED_BY(mutex_);

  // Spill state: once active, all arrivals spill until fully drained
  // (preserves record order).
  std::FILE* spill_file_ GUARDED_BY(mutex_) = nullptr;
  std::string spill_path_;  // written once in the constructor
  /// Bytes this queue's spill file currently charges against spill_pool_
  /// (released when the drained file is reclaimed, and at destruction).
  int64_t spill_charged_ GUARDED_BY(mutex_) = 0;
  int64_t spill_pending_frames_ GUARDED_BY(mutex_) = 0;
  int64_t spill_read_offset_ GUARDED_BY(mutex_) = 0;
  bool throttling_ GUARDED_BY(mutex_) = false;   // spill overflow fallback
  bool discarding_ GUARDED_BY(mutex_) = false;   // Discard hysteresis:
                             // dropping until the backlog clears (§4.5)
};

}  // namespace feeds
}  // namespace asterix
