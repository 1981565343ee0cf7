#include "feeds/subscriber.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "adm/parser.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "feeds/trace.h"

namespace asterix {
namespace feeds {

using common::Status;
using hyracks::FramePtr;

void DataBucket::Consume() {
  if (pending_.fetch_sub(1) == 1) {
    pool_->Return(this);
  }
}

DataBucketPool::~DataBucketPool() {
  common::MutexLock lock(mutex_);
  for (DataBucket* bucket : free_) delete bucket;
}

DataBucket* DataBucketPool::Get(FramePtr frame, int consumers) {
  DataBucket* bucket = nullptr;
  {
    common::MutexLock lock(mutex_);
    if (!free_.empty()) {
      bucket = free_.front();
      free_.pop_front();
      // relaxed: stats counter; the pool list itself is under mutex_.
      reuses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (bucket == nullptr) {
    bucket = new DataBucket();
    // relaxed: stats counter; orders nothing.
    allocations_.fetch_add(1, std::memory_order_relaxed);
  }
  bucket->frame_ = std::move(frame);
  bucket->pending_.store(consumers);
  bucket->pool_ = this;
  return bucket;
}

void DataBucketPool::Return(DataBucket* bucket) {
  bucket->frame_.reset();
  common::MutexLock lock(mutex_);
  free_.push_back(bucket);
}

SubscriberQueue::SubscriberQueue(SubscriberOptions options, uint64_t seed)
    : options_(std::move(options)),
      mem_pool_(options_.memory_pool != nullptr
                    ? options_.memory_pool
                    : common::MemGovernor::Default().GetPool(
                          common::MemGovernor::kFramePathPool)),
      spill_pool_(options_.spill_pool != nullptr
                      ? options_.spill_pool
                      : common::MemGovernor::Default().GetPool(
                            common::MemGovernor::kSpillPool)),
      rng_(seed) {
  spill_path_ = options_.spill_dir + "/" + options_.name + "." +
                std::to_string(common::NowMicros()) + ".spill";
}

SubscriberQueue::~SubscriberQueue() {
  // No concurrent producers/consumers by now (shared_ptr ownership).
  // RetireEntry (not a bare bucket Consume) so the governor charge for
  // every still-buffered frame is returned.
  common::MutexLock lock(mutex_);
  for (size_t i = head_; i < queued_.size(); ++i) {
    RetireEntry(queued_[i]);
  }
  if (spill_file_ != nullptr) {
    std::fclose(spill_file_);
    std::remove(spill_path_.c_str());
  }
  if (spill_pool_ != nullptr && spill_charged_ > 0) {
    spill_pool_->Release(static_cast<size_t>(spill_charged_));
    spill_charged_ = 0;
  }
}

FramePtr SubscriberQueue::SampleFrame(const FramePtr& frame,
                                      double keep_probability) {
  std::vector<adm::Value> kept;
  for (const adm::Value& record : frame->records()) {
    if (rng_.Chance(keep_probability)) {
      kept.push_back(record);
    } else {
      ++stats_.records_throttled_away;
    }
  }
  if (kept.empty()) return nullptr;
  return hyracks::MakeFrame(std::move(kept), frame->trace());
}

void SubscriberQueue::SpillLocked(const FramePtr& frame) {
  // A prior spill I/O failure is terminal: appending after a torn record
  // would misframe everything behind it.
  if (failed_) return;
  if (spill_file_ == nullptr) {
    spill_file_ = std::fopen(spill_path_.c_str(), "w+b");
    if (spill_file_ == nullptr) {
      failed_ = true;
      failure_ = Status::IOError("cannot open spill file " + spill_path_);
      return;
    }
  }
  std::string payload;
  for (const adm::Value& record : frame->records()) {
    payload += record.ToAdmString();
    payload.push_back('\n');
  }
  std::fseek(spill_file_, 0, SEEK_END);
  uint32_t len = static_cast<uint32_t>(payload.size());
  if (std::fwrite(&len, sizeof(len), 1, spill_file_) != 1 ||
      std::fwrite(payload.data(), 1, payload.size(), spill_file_) !=
          payload.size()) {
    // Short write (disk full, I/O error): the record is unrecoverable
    // and must NOT be counted — spill_pending_frames_ only tracks
    // frames the restore path can actually read back; a ghost count
    // would make the consumer retry the restore forever.
    failed_ = true;
    if (failure_.ok()) {
      failure_ =
          Status::IOError("short write to spill file " + spill_path_);
    }
    return;
  }
  ++spill_pending_frames_;
  ++stats_.frames_spilled;
  stats_.bytes_spilled += static_cast<int64_t>(payload.size());
  if (spill_pool_ != nullptr) {
    // Charge the actual on-disk bytes. Forced: admission control already
    // ran on the caller's frame-byte estimate (DeliverLocked's spill
    // lease); the serialized payload may differ slightly, and a written
    // record must be accounted either way.
    const size_t on_disk = sizeof(len) + payload.size();
    spill_pool_->ForceReserve(on_disk);
    spill_charged_ += static_cast<int64_t>(on_disk);
  }
}

bool SubscriberQueue::RestoreFromSpillLocked() {
  if (spill_pending_frames_ == 0 || spill_file_ == nullptr) {
    return false;
  }
  std::fflush(spill_file_);
  std::fseek(spill_file_, spill_read_offset_, SEEK_SET);
  // Restore a small batch per call so memory stays bounded.
  int restored = 0;
  bool torn = false;
  while (spill_pending_frames_ > 0 && restored < 8) {
    uint32_t len = 0;
    if (std::fread(&len, sizeof(len), 1, spill_file_) != 1) {
      torn = true;
      break;
    }
    std::string payload(len, '\0');
    if (len > 0 && std::fread(payload.data(), 1, len, spill_file_) != len) {
      torn = true;
      break;
    }
    spill_read_offset_ += static_cast<int64_t>(sizeof(len)) + len;
    std::vector<adm::Value> records;
    for (const std::string& line : common::SplitAndTrim(payload, '\n')) {
      if (line.empty()) continue;
      auto parsed = adm::ParseAdm(line);
      if (parsed.ok()) records.push_back(std::move(*parsed));
    }
    --spill_pending_frames_;
    ++stats_.frames_restored;
    ++restored;
    if (!records.empty()) {
      Entry entry;
      entry.frame = hyracks::MakeFrame(std::move(records));
      if (mem_pool_ != nullptr) {
        // Forced: the restore path must drain the spill file even under
        // a starved governor (a refusal here would livelock the
        // consumer); the overdraft is counted and visible.
        mem_pool_->ForceReserve(entry.frame->ApproxBytes());
      }
      EnqueueLocked(std::move(entry));
    }
  }
  if (torn && restored == 0 && spill_pending_frames_ > 0) {
    // The counter claims frames the file cannot yield (truncated or
    // torn by a failed write). Every write the counter accounts for
    // completed under this mutex before the increment, so no more bytes
    // can ever appear: a zero-progress pass is permanent, and leaving
    // the count nonzero would make NextBatch retry this restore forever.
    // Reconcile the count and surface the I/O error as the queue's
    // terminal state.
    LOG_MSG(kWarn) << options_.name << ": spill file " << spill_path_
                   << " unreadable; " << spill_pending_frames_
                   << " frame(s) lost";
    failed_ = true;
    if (failure_.ok()) {
      failure_ = Status::IOError("spill file truncated or unreadable: " +
                                 spill_path_);
    }
    spill_pending_frames_ = 0;
  }
  if (spill_pending_frames_ == 0) {
    // Fully drained (or reconciled): reclaim the file so a later burst
    // starts fresh, and return its governor charge.
    std::fclose(spill_file_);
    std::remove(spill_path_.c_str());
    spill_file_ = nullptr;
    spill_read_offset_ = 0;
    if (spill_pool_ != nullptr && spill_charged_ > 0) {
      spill_pool_->Release(static_cast<size_t>(spill_charged_));
      spill_charged_ = 0;
    }
  }
  return restored > 0;
}

void SubscriberQueue::RetireEntry(const Entry& entry) {
  // Mirror of the charge taken when the entry was enqueued (DeliverLocked's
  // append / the spill-restore path): the governor's view of this queue
  // is exactly its pending bytes.
  if (mem_pool_ != nullptr) mem_pool_->Release(entry.frame->ApproxBytes());
  if (entry.bucket != nullptr) entry.bucket->Consume();
}

void SubscriberQueue::EnqueueLocked(Entry entry) {
  pending_bytes_ += static_cast<int64_t>(entry.frame->ApproxBytes());
  stats_.peak_pending_bytes =
      std::max(stats_.peak_pending_bytes, pending_bytes_);
  // hot-ok: growth only while the backlog exceeds every earlier peak;
  // DequeueLocked keeps the capacity, and the frame bytes are already
  // governor-charged.
  queued_.push_back(std::move(entry));
}

void SubscriberQueue::DequeueLocked(std::vector<Entry>* out,
                                    size_t max_frames) {
  const size_t n = std::min(queued_.size() - head_, max_frames);
  for (size_t i = head_; i < head_ + n; ++i) {
    pending_bytes_ -= static_cast<int64_t>(queued_[i].frame->ApproxBytes());
    // hot-ok: consumer-owned thread_local scratch whose capacity is
    // reused across calls.
    out->push_back(std::move(queued_[i]));
  }
  head_ += n;
  if (head_ == queued_.size()) {
    queued_.clear();
    head_ = 0;
  } else if (head_ >= queued_.size() / 2) {
    // Compact: each moved entry stands for at least one dequeued since
    // the last compaction, so the cost amortizes to O(1) per frame.
    queued_.erase(queued_.begin(),
                  queued_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void SubscriberQueue::Deliver(FramePtr frame, DataBucket* bucket) {
  // Delay action = a stalled subscriber back-pressuring the joint.
  // Deliberately before the lock so a stall never blocks Next() readers.
  ASTERIX_FAILPOINT_HIT("feeds.subscriber.deliver");
  const hyracks::TraceContext tc = frame->trace();
  TraceSpan span;
  const bool traced = tc.sampled();
  if (traced) {
    // The "source" primary span covers everything from trace birth at the
    // adaptor to arrival in this queue (fetch, batching, joint routing).
    span.trace_id = tc.id;
    span.where = options_.name;
    span.start_us = tc.start_us;
    span.duration_us = common::NowMicros() - tc.start_us;
    span.records = static_cast<int64_t>(frame->record_count());
  }
  {
    common::MutexLock lock(mutex_);
    DeliverLocked(std::move(frame), bucket, traced ? &span : nullptr);
  }
  // Wake waiting consumers after unlocking. Covers data arrival AND the
  // failure transitions below.
  ready_.NotifyAll();
  // Recorded after unlocking: RecordSpan takes the tracer (and possibly
  // registry) mutex, which a Snapshot() provider holds around this
  // queue's mutex.
  if (traced && !span.stage.empty()) {
    Tracer::Instance().RecordSpan(std::move(span));
  }
}

void SubscriberQueue::DeliverLocked(FramePtr frame, DataBucket* bucket,
                                    TraceSpan* span) {
  auto consume = [&] {
    if (bucket != nullptr) bucket->Consume();
  };
  auto outcome = [&](const char* stage, const char* status) {
    if (span != nullptr) {
      span->stage = stage;
      span->status = status;
      span->detail = true;  // terminal drop spans don't tile the path
    }
  };
  if (ended_) {
    consume();
    outcome("discarded", "ended");
    return;
  }
  int64_t frame_bytes = static_cast<int64_t>(frame->ApproxBytes());
  // Admission: the global governor pool AND the per-subscriber budget
  // must both admit the frame. A governor refusal (pool exhausted — or
  // chaos-starved via the common.memgov.reserve failpoint) folds into
  // the mode's over-budget action: kBlock fails the feed, kSpill spills,
  // kDiscard trips the drop hysteresis, kThrottle sheds harder.
  common::MemLease admission;
  bool governor_refused =
      mem_pool_ != nullptr &&
      !mem_pool_->TryLease(static_cast<size_t>(frame_bytes), &admission)
           .ok();
  bool over_budget =
      governor_refused ||
      pending_bytes_ + frame_bytes > options_.memory_budget_bytes;

  auto append = [&](FramePtr f, DataBucket* b) {
    if (mem_pool_ != nullptr) {
      // Keep the admission lease's charge (Disown) and true it up to the
      // exact appended bytes: a sampled frame is smaller than the leased
      // estimate, and Elastic appends even when the lease was refused
      // (the forced top-up shows as a counted overdraft).
      const size_t appended = f->ApproxBytes();
      const size_t leased = admission.Disown();
      if (appended > leased) {
        mem_pool_->ForceReserve(appended - leased);
      } else if (leased > appended) {
        mem_pool_->Release(leased - appended);
      }
    }
    ++stats_.frames_delivered;
    stats_.records_delivered += static_cast<int64_t>(f->record_count());
    if (span != nullptr) {
      span->stage = "source";
      span->status = "ok";
      span->detail = false;
      span->records = static_cast<int64_t>(f->record_count());
    }
    Entry entry;
    entry.frame = std::move(f);
    entry.bucket = b;
    if (span != nullptr) entry.deliver_us = common::NowMicros();
    EnqueueLocked(std::move(entry));
  };

  if (throttling_) {
    // Spill-overflow fallback: regulate the inflow by sampling.
    FramePtr sampled = SampleFrame(frame, 0.5);
    consume();
    if (sampled != nullptr) {
      append(std::move(sampled), nullptr);
    } else {
      outcome("throttled", "throttled");
    }
    return;
  }

  switch (options_.mode) {
    case ExcessMode::kBlock:
    case ExcessMode::kElastic: {
      // Basic: buffer in memory. Exhausting the budget terminates the
      // feed (§4.5). Elastic buffers the same way while the system
      // re-structures the pipeline; the budget is its headroom.
      if (over_budget && options_.mode == ExcessMode::kBlock) {
        failed_ = true;
        // hot-ok: terminal failure branch — the feed is ending; the
        // status string is built once per subscriber lifetime.
        failure_ = Status::ResourceExhausted(
            "feed '" + options_.name + "' exhausted its memory budget (" +
            std::to_string(options_.memory_budget_bytes) + " bytes)");
        consume();
        outcome("discarded", "error");
        return;
      }
      append(std::move(frame), bucket);
      return;
    }
    case ExcessMode::kSpill: {
      if (over_budget || spill_pending_frames_ > 0) {
        // The spill governor pool must also admit the frame (lease on
        // the in-memory estimate; SpillLocked charges the exact on-disk
        // bytes and this lease releases at scope exit). A refusal is
        // the same condition as an exhausted per-feed spill budget.
        common::MemLease spill_admission;
        const bool spill_refused =
            spill_pool_ != nullptr &&
            !spill_pool_
                 ->TryLease(static_cast<size_t>(frame_bytes),
                            &spill_admission)
                 .ok();
        if (spill_refused ||
            stats_.bytes_spilled >= options_.max_spill_bytes) {
          if (options_.throttle_after_spill) {
            throttling_ = true;
            LOG_MSG(kWarn) << options_.name
                           << ": spill budget exhausted; throttling";
            FramePtr sampled = SampleFrame(frame, 0.5);
            consume();
            if (sampled != nullptr) {
              append(std::move(sampled), nullptr);
            } else {
              outcome("throttled", "throttled");
            }
          } else {
            failed_ = true;
            failure_ = Status::ResourceExhausted(
                "feed '" + options_.name + "' exhausted its spill budget");
            consume();
            outcome("discarded", "error");
          }
          return;
        }
        SpillLocked(frame);
        consume();
        // The spill file stores raw records; the trace does not survive
        // the round-trip, so this span is the trace's terminal.
        outcome("spilled", "spilled");
        return;
      }
      append(std::move(frame), bucket);
      return;
    }
    case ExcessMode::kDiscard: {
      // Hysteresis per §4.5: once the budget is hit, excess records are
      // discarded ALTOGETHER until the existing backlog clears — the
      // "periods of discontinuity" of Figure 7.9.
      if (discarding_ &&
          pending_bytes_ <= options_.memory_budget_bytes / 4) {
        discarding_ = false;
      }
      if (over_budget) discarding_ = true;
      if (discarding_) {
        stats_.records_discarded +=
            static_cast<int64_t>(frame->record_count());
        consume();
        outcome("discarded", "discarded");
        return;
      }
      append(std::move(frame), bucket);
      return;
    }
    case ExcessMode::kThrottle: {
      // Adaptive sampling: the fuller the queue, the lower the keep
      // probability, regulating the effective arrival rate.
      double keep = ThrottleKeepProbability(
          pending_bytes_, frame_bytes, options_.memory_budget_bytes);
      // Global pressure sheds too: a governor refusal halves the keep
      // rate even when this subscriber's own queue looks healthy.
      if (governor_refused) keep = std::min(keep, 0.5);
      if (keep < 1.0) {
        FramePtr sampled = SampleFrame(frame, keep);
        consume();
        if (sampled != nullptr) {
          append(std::move(sampled), nullptr);
        } else {
          outcome("throttled", "throttled");
        }
        return;
      }
      append(std::move(frame), bucket);
      return;
    }
  }
}

void SubscriberQueue::DeliverEnd() {
  {
    // Serialized with in-flight Delivers so "ended" cleanly partitions
    // the delivery order (frames after the end marker are dropped).
    common::MutexLock lock(mutex_);
    ended_ = true;
  }
  ready_.NotifyAll();
}

void SubscriberQueue::RecordQueueSpan(const Entry& entry,
                                      int64_t pop_us) const {
  // Called with no lock held. The "queue" primary span covers the
  // frame's residency in this subscriber queue.
  TraceSpan span;
  span.trace_id = entry.frame->trace().id;
  span.stage = "queue";
  span.where = options_.name;
  span.start_us = entry.deliver_us;
  span.duration_us = pop_us - entry.deliver_us;
  span.records = static_cast<int64_t>(entry.frame->record_count());
  Tracer::Instance().RecordSpan(std::move(span));
}

std::optional<FramePtr> SubscriberQueue::Next(int64_t timeout_ms) {
  std::vector<FramePtr> batch = NextBatch(timeout_ms, 1);
  if (batch.empty()) return std::nullopt;
  return std::move(batch.front());
}

std::vector<FramePtr> SubscriberQueue::NextBatch(int64_t timeout_ms,
                                                 size_t max_frames) {
  std::vector<FramePtr> batch;
  (void)NextBatchInto(&batch, timeout_ms, max_frames);
  return batch;
}

size_t SubscriberQueue::NextBatchInto(std::vector<FramePtr>* out,
                                      int64_t timeout_ms,
                                      size_t max_frames) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Per-thread drain scratch: its capacity (and the caller's `out`
  // capacity) is what makes the steady-state consumer drain allocation-
  // free. Cleared before AND after use so no frame reference lingers in
  // an idle thread between calls.
  thread_local std::vector<Entry> popped;
  popped.clear();
  {
    common::MutexLock lock(mutex_);
    for (;;) {
      // Spilled frames are younger than every queued one, so they are
      // restored only into an empty FIFO. A pass whose frames were all
      // empty queues nothing: keep restoring until something is queued
      // or the file is drained.
      while (head_ == queued_.size() && spill_pending_frames_ > 0 &&
             RestoreFromSpillLocked()) {
      }
      // Terminal states still hand out what is buffered: the contract is
      // empty only when ended/failed with NOTHING left.
      if (head_ < queued_.size() || ended_ || failed_) break;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      (void)ready_.WaitFor(mutex_, deadline - now);
    }
    DequeueLocked(&popped, max_frames);
  }
  // Bucket and governor releases and span recording run after unlocking:
  // RecordSpan must not run under a queue mutex (see Deliver()).
  // hot-ok: consumer-owned output vector — callers reuse a thread_local
  // scratch buffer, so the reserve/push_back growth amortizes to zero.
  out->reserve(out->size() + popped.size());
  bool any_traced = false;
  for (Entry& entry : popped) {
    RetireEntry(entry);
    if (entry.deliver_us != 0 && entry.frame->trace().sampled()) {
      any_traced = true;
    }
    // hot-ok: copy is a refcount bump, no allocation — the entry keeps
    // its reference for the span pass below; capacity was reserved above.
    out->push_back(entry.frame);
  }
  const size_t appended = popped.size();
  if (any_traced) {
    // Untraced drains (the common case) never reach this branch, so the
    // hot path stays allocation-free.
    int64_t pop_us = common::NowMicros();
    for (const Entry& entry : popped) {
      if (entry.deliver_us != 0 && entry.frame->trace().sampled()) {
        RecordQueueSpan(entry, pop_us);
      }
    }
  }
  popped.clear();
  return appended;
}

bool SubscriberQueue::ended() const {
  common::MutexLock lock(mutex_);
  return ended_ && head_ == queued_.size() && spill_pending_frames_ == 0;
}

bool SubscriberQueue::failed() const {
  common::MutexLock lock(mutex_);
  return failed_;
}

common::Status SubscriberQueue::failure() const {
  common::MutexLock lock(mutex_);
  return failure_;
}

SubscriberStats SubscriberQueue::stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

int64_t SubscriberQueue::pending_bytes() const {
  common::MutexLock lock(mutex_);
  return pending_bytes_;
}

size_t SubscriberQueue::pending_frames() const {
  common::MutexLock lock(mutex_);
  return queued_.size() - head_ +
         static_cast<size_t>(spill_pending_frames_);
}

}  // namespace feeds
}  // namespace asterix
