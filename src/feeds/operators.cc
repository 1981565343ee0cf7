#include "feeds/operators.h"

#include <stdexcept>

#include "adm/parser.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "feeds/trace.h"

namespace asterix {
namespace feeds {

using adm::Value;
using common::Status;
using hyracks::FramePtr;
using hyracks::TaskContext;

// --- FeedCollectOperator ------------------------------------------------

FeedCollectOperator::FeedCollectOperator(
    std::shared_ptr<AdaptorFactory> factory, AdaptorConfig config,
    std::string joint_id, PipelineConfig pipeline)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      joint_id_(std::move(joint_id)),
      pipeline_(std::move(pipeline)) {}

Status FeedCollectOperator::Open(TaskContext* ctx) {
  // The joint at this operator's output is installed by the scheduler's
  // output interceptor and registered with the local Feed Manager before
  // tasks start; grab it to observe the subscriber count.
  own_joint_ = FeedManager::Of(ctx->node())->LookupJoint(joint_id_);
  return Status::OK();
}

Status FeedCollectOperator::Run(TaskContext* ctx) {
  hyracks::FrameAppender appender(ctx->writer(),
                                  pipeline_.frame_records);
  // Traces are born here, at the source: each emitted frame draws a fresh
  // sampling decision when its first record arrives.
  appender.SetTraceSource([] { return Tracer::Instance().StartTrace(); });
  const int64_t max_soft =
      pipeline_.policy.max_consecutive_soft_failures();
  const bool recover_soft = pipeline_.policy.recover_soft_failure();

  while (!ctx->ShouldStop()) {
    // Deferred adaptor creation (§5.3.1): no data is fetched from the
    // external source until someone asks for this feed's output.
    if (adaptor_ == nullptr) {
      if (own_joint_ != nullptr && own_joint_->subscriber_count() == 0) {
        common::SleepMillis(2);
        continue;
      }
      auto adaptor = factory_->Create(config_, ctx->partition());
      if (!adaptor.ok()) return adaptor.status();
      adaptor_ = std::move(adaptor).value();
    }

    auto batch = adaptor_->Fetch(/*max=*/256, /*timeout_ms=*/20);
    if (!batch.ok()) {
      // External source failure: recovery is the adaptor's job (§6.2.3).
      Status reconnect = adaptor_->Reconnect();
      if (!reconnect.ok()) {
        LOG_MSG(kWarn) << "feed " << pipeline_.connection_id
                       << ": source lost and reconnect failed: "
                       << reconnect.ToString();
        return reconnect;  // the feed terminates
      }
      continue;
    }
    for (const std::string& payload : batch->payloads) {
      auto record = adm::ParseAdm(payload);
      if (!record.ok()) {
        // Formatting error in the content: a soft failure (§6.1).
        pipeline_.metrics->soft_failures.fetch_add(1);
        LOG_MSG(kWarn) << "feed " << pipeline_.connection_id
                       << ": dropped malformed record: "
                       << record.status().message();
        if (!recover_soft) return record.status();
        if (++consecutive_soft_failures_ > max_soft) {
          return Status::Aborted(
              "feed exceeded " + std::to_string(max_soft) +
              " consecutive soft failures at intake; likely a bad "
              "source or invalid assumption about its format");
        }
        continue;
      }
      consecutive_soft_failures_ = 0;
      pipeline_.metrics->records_collected.fetch_add(1);
      RETURN_IF_ERROR(appender.Append(std::move(*record)));
    }
    RETURN_IF_ERROR(appender.FlushFrame());
    if (batch->end_of_source) return Status::OK();
  }
  return appender.FlushFrame();
}

// --- FeedIntakeOperator ---------------------------------------------------

FeedIntakeOperator::FeedIntakeOperator(std::string source_joint_id,
                                       PipelineConfig pipeline)
    : source_joint_id_(std::move(source_joint_id)),
      pipeline_(std::move(pipeline)) {}

std::string FeedIntakeOperator::StateKey(const std::string& connection_id,
                                         int partition) {
  return connection_id + ":intake:" + std::to_string(partition);
}

SubscriberOptions FeedIntakeOperator::InputOptions(
    const PipelineConfig& pipeline, int partition) {
  SubscriberOptions options;
  options.mode = pipeline.policy.excess_mode();
  options.memory_budget_bytes = pipeline.policy.memory_budget_bytes();
  options.max_spill_bytes = pipeline.policy.max_spill_bytes();
  options.throttle_after_spill = pipeline.policy.GetBool(
      IngestionPolicy::kExcessRecordsThrottle, false) &&
      options.mode == ExcessMode::kSpill;
  options.spill_dir = pipeline.spill_dir;
  options.name = pipeline.connection_id + ".p" + std::to_string(partition);
  return options;
}

bool FeedIntakeOperator::Presubscribe(FeedManager* feed_manager,
                                      const std::shared_ptr<FeedJoint>& joint,
                                      const PipelineConfig& pipeline,
                                      int partition) {
  const std::string key = StateKey(pipeline.connection_id, partition);
  if (feed_manager->HasIntakeHandoff(key)) return false;
  feed_manager->SaveIntakeHandoff(
      key, {joint, joint->Subscribe(InputOptions(pipeline, partition))});
  return true;
}

Status FeedIntakeOperator::Open(TaskContext* ctx) {
  // Delay seam (instance = connection id): a slow task start widens the
  // window between ConnectFeed returning and this intake adopting its
  // input queue. Error actions are ignored.
  (void)ASTERIX_FAILPOINT_TRIGGERED("feeds.intake.open",
                                    pipeline_.connection_id);
  feed_manager_ = FeedManager::Of(ctx->node());
  // The search API (§5.2): discover the co-located subscribable instance.
  source_joint_ = feed_manager_->LookupJoint(source_joint_id_);
  if (source_joint_ == nullptr) {
    return Status::NotFound("node " + ctx->node_id() +
                            " has no feed joint '" + source_joint_id_ +
                            "' (intake must be co-located)");
  }

  const SubscriberOptions options =
      InputOptions(pipeline_, ctx->partition());

  // Resume any state handed off by a predecessor instance (recovery):
  // oldest first — the predecessor's unforwarded frames...
  const std::string state_key =
      StateKey(pipeline_.connection_id, ctx->partition());
  for (FramePtr& frame : feed_manager_->TakeZombieState(state_key)) {
    held_.push_back(std::move(frame));
  }
  // ...then the still-subscribed input buffer — the predecessor's, or the
  // one Presubscribe attached at connect time — adopted outright when the
  // producing joint is unchanged (no delivery gap), or drained into the
  // held buffer when the head was itself rebuilt.
  auto handoff = feed_manager_->TakeIntakeHandoff(state_key);
  if (handoff.has_value()) {
    if (handoff->joint == source_joint_) {
      queue_ = handoff->queue;
    } else {
      handoff->joint->Unsubscribe(handoff->queue);
      for (;;) {
        std::vector<FramePtr> batch = handoff->queue->NextBatch(0);
        if (batch.empty()) break;
        for (FramePtr& frame : batch) held_.push_back(std::move(frame));
      }
    }
  }
  if (queue_ == nullptr) queue_ = source_joint_->Subscribe(options);
  pipeline_.metrics->RegisterIntakeQueue(queue_);

  at_least_once_ = pipeline_.policy.at_least_once() &&
                   options.mode != ExcessMode::kDiscard &&
                   options.mode != ExcessMode::kThrottle;
  if (at_least_once_) {
    pending_ = std::make_unique<PendingTracker>(
        pipeline_.policy.ack_timeout_ms());
    PendingTracker* tracker = pending_.get();
    pipeline_.ack_bus->Register(
        pipeline_.connection_id, ctx->partition(),
        [tracker](const std::vector<int64_t>& tids) {
          tracker->Ack(tids);
        });
  }

  return Status::OK();
}

Status FeedIntakeOperator::ForwardFrame(const FramePtr& frame,
                                        TaskContext* ctx) {
  hyracks::TraceContext tc = frame->trace();
  if (!tc.sampled()) {
    // Frames arriving untraced (zombie restores, spill round-trips, heads
    // built before sampling was enabled) get stamped at intake — one
    // relaxed load when sampling is off.
    tc = Tracer::Instance().StartTrace();
  }
  const int64_t start_us = tc.sampled() ? common::NowMicros() : 0;
  Status result = ForwardTagged(frame, tc, ctx);
  if (tc.sampled()) {
    // Primary span: augmentation + downstream router hand-off.
    TraceSpan span;
    span.trace_id = tc.id;
    span.stage = "intake";
    span.where = ctx->node_id();
    span.partition = ctx->partition();
    span.start_us = start_us;
    span.duration_us = common::NowMicros() - start_us;
    span.records = static_cast<int64_t>(frame->record_count());
    span.status = result.ok() ? "ok" : "error";
    Tracer::Instance().RecordSpan(std::move(span));
  }
  return result;
}

Status FeedIntakeOperator::ForwardTagged(const FramePtr& frame,
                                         const hyracks::TraceContext& tc,
                                         TaskContext* ctx) {
  if (!at_least_once_) {
    if (tc.sampled() && !frame->trace().sampled()) {
      // Re-wrap to carry the trace minted above (records are shared
      // values; only the frame shell is rebuilt).
      std::vector<Value> records = frame->records();
      return ctx->writer()->NextFrame(hyracks::MakeFrame(
          std::move(records), frame->ApproxBytes(), tc));
    }
    return ctx->writer()->NextFrame(frame);
  }
  // Augment records with tracking ids at forward time and remember them
  // until the store stage acks (§5.6). Records restored from a zombie
  // handoff already carry a tracking id; they keep it and are re-tracked
  // so a second failure still replays them.
  std::vector<Value> augmented;
  augmented.reserve(frame->record_count());
  for (const Value& record : frame->records()) {
    Value copy = record;
    if (copy.is_record()) {
      int64_t tid;
      const Value* existing = copy.GetField(kTrackingIdField);
      if (existing != nullptr &&
          existing->tag() == adm::TypeTag::kInt64) {
        tid = existing->AsInt64();
      } else {
        tid = MakeTrackingId(ctx->partition(), next_seq_++);
        copy.SetField(kTrackingIdField, Value::Int64(tid));
      }
      pending_->Track(tid, copy);
    }
    augmented.push_back(std::move(copy));
  }
  return ctx->writer()->NextFrame(
      hyracks::MakeFrame(std::move(augmented), tc));
}

Status FeedIntakeOperator::Run(TaskContext* ctx) {
  // Tracking ids embed the partition for ack routing.
  next_seq_ = 0;
  const int partition = ctx->partition();
  (void)partition;

  while (true) {
    if (ctx->ShouldStop()) {
      if (!ctx->GracefulStopRequested()) return Status::OK();  // killed
      // Graceful disconnect: stop receiving new data, but let already
      // received records traverse the pipeline (§5.5).
      source_joint_->Unsubscribe(queue_);
      for (FramePtr& frame : held_) RETURN_IF_ERROR(ForwardFrame(frame, ctx));
      held_.clear();
      for (;;) {
        std::vector<FramePtr> batch = queue_->NextBatch(0);
        if (batch.empty()) break;
        for (FramePtr& frame : batch) {
          RETURN_IF_ERROR(ForwardFrame(frame, ctx));
        }
      }
      return Status::OK();
    }

    Mode mode = mode_.load();
    if (mode == Mode::kHandoff) {
      // Hand everything to the successor instance (§6.2.3): the held
      // frames and the unacked at-least-once ledger go to the local Feed
      // Manager as zombie state, and the input queue is left SUBSCRIBED
      // and saved as an intake handoff — the successor takes ownership
      // of the input buffer, so no frame routed during the swap is lost.
      std::vector<FramePtr> state = std::move(held_);
      held_.clear();
      if (at_least_once_) {
        std::vector<Value> unacked = pending_->TakeAll();
        if (!unacked.empty()) {
          state.push_back(hyracks::MakeFrame(std::move(unacked)));
        }
      }
      const std::string state_key =
          StateKey(pipeline_.connection_id, partition);
      feed_manager_->SaveZombieState(state_key, std::move(state));
      feed_manager_->SaveIntakeHandoff(state_key,
                                       {source_joint_, queue_});
      return Status::OK();
    }

    if (mode == Mode::kForward && !held_.empty()) {
      for (FramePtr& frame : held_) {
        RETURN_IF_ERROR(ForwardFrame(frame, ctx));
      }
      held_.clear();
    }

    if (queue_->failed()) return queue_->failure();

    // Batched hand-off: one acquisition of the subscriber queue's mutex
    // moves everything queued (SubscriberQueue::NextBatchInto).
    std::vector<FramePtr> batch = queue_->NextBatch(/*timeout_ms=*/20);
    if (!batch.empty()) {
      for (FramePtr& frame : batch) {
        if (mode_.load() == Mode::kBuffer) {
          held_.push_back(std::move(frame));
        } else {
          RETURN_IF_ERROR(ForwardFrame(frame, ctx));
        }
      }
    } else if (queue_->ended()) {
      // Under at-least-once the pending ledger may still hold records whose
      // acks never arrived (e.g. the store stage soft-failed them). Closing
      // now would orphan them, so keep pumping the replay loop below until
      // the ledger drains.
      if (!at_least_once_ || pending_->pending_count() == 0) {
        return Status::OK();
      }
    }

    // Replay of unacked records on timeout (§5.6).
    if (at_least_once_) {
      int64_t now = common::NowMillis();
      if (now - last_replay_check_ms_ >
          pipeline_.policy.ack_timeout_ms() / 2) {
        last_replay_check_ms_ = now;
        std::vector<Value> expired = pending_->TakeExpired();
        if (!expired.empty()) {
          pipeline_.metrics->records_replayed.fetch_add(
              static_cast<int64_t>(expired.size()));
          const int64_t replayed = static_cast<int64_t>(expired.size());
          // A replay frame starts a fresh trace (the original frame's
          // trace already terminated, at the store or in a failure); the
          // "replay" span links the restart for trace-conservation
          // accounting.
          hyracks::TraceContext replay_tc = Tracer::Instance().StartTrace();
          FramePtr replay =
              hyracks::MakeFrame(std::move(expired), replay_tc);
          if (replay_tc.sampled()) {
            TraceSpan span;
            span.trace_id = replay_tc.id;
            span.stage = "replay";
            span.where = pipeline_.connection_id;
            span.partition = ctx->partition();
            span.start_us = replay_tc.start_us;
            span.records = replayed;
            span.detail = true;
            span.status = "replay";
            Tracer::Instance().RecordSpan(std::move(span));
          }
          if (mode_.load() == Mode::kBuffer) {
            held_.push_back(std::move(replay));
          } else {
            RETURN_IF_ERROR(ForwardFrame(replay, ctx));
          }
        }
      }
    }
  }
}

Status FeedIntakeOperator::Close(TaskContext* ctx) {
  if (at_least_once_) {
    pipeline_.ack_bus->Unregister(pipeline_.connection_id,
                                  ctx->partition());
  }
  return Status::OK();
}

void FeedIntakeOperator::OnSignal(const std::string& signal) {
  if (signal == kSignalBuffer) {
    mode_.store(Mode::kBuffer);
  } else if (signal == kSignalForward) {
    mode_.store(Mode::kForward);
  } else if (signal == kSignalHandoff) {
    mode_.store(Mode::kHandoff);
  }
}

// --- AssignOperator ---------------------------------------------------------

AssignOperator::AssignOperator(std::vector<std::shared_ptr<Udf>> udfs,
                               PipelineConfig pipeline)
    : udfs_(std::move(udfs)), pipeline_(std::move(pipeline)) {}

Status AssignOperator::Open(TaskContext* ctx) {
  (void)ctx;
  for (auto& udf : udfs_) udf->Initialize();
  return Status::OK();
}

Status AssignOperator::ProcessFrame(const FramePtr& frame,
                                    TaskContext* ctx) {
  hyracks::FrameAppender appender(ctx->writer(), pipeline_.frame_records);
  // Output frames inherit the input frame's trace (re-batching preserves
  // identity through the compute stage).
  const hyracks::TraceContext tc = frame->trace();
  appender.SetTrace(tc);
  int64_t udf_us = 0;
  const int64_t udf_start_us = tc.sampled() ? common::NowMicros() : 0;
  for (const Value& record : frame->records()) {
    Value current = record;
    bool filtered = false;
    const int64_t apply_start_us = tc.sampled() ? common::NowMicros() : 0;
    for (auto& udf : udfs_) {
      auto result = udf->Apply(current);  // may throw (soft failure)
      if (!result.has_value()) {
        filtered = true;
        break;
      }
      current = std::move(*result);
    }
    if (tc.sampled()) udf_us += common::NowMicros() - apply_start_us;
    if (filtered) continue;
    pipeline_.metrics->records_computed.fetch_add(1);
    RETURN_IF_ERROR(appender.Append(std::move(current)));
  }
  if (tc.sampled() && !frame->empty()) {
    // Detail span: pure UDF time, excluding downstream forwarding done
    // inside Append/FlushFrame.
    TraceSpan span;
    span.trace_id = tc.id;
    span.stage = "udf";
    span.where = ctx->operator_name();
    span.partition = ctx->partition();
    span.start_us = udf_start_us;
    span.duration_us = udf_us;
    span.records = static_cast<int64_t>(frame->record_count());
    span.detail = true;
    Tracer::Instance().RecordSpan(std::move(span));
  }
  return appender.FlushFrame();
}

// --- FeedStoreOperator ------------------------------------------------------

FeedStoreOperator::FeedStoreOperator(std::string dataset,
                                     PipelineConfig pipeline)
    : dataset_(std::move(dataset)), pipeline_(std::move(pipeline)) {}

Status FeedStoreOperator::Open(TaskContext* ctx) {
  partition_ = ctx->node()->storage().GetPartition(dataset_);
  if (partition_ == nullptr) {
    return Status::NotFound("node " + ctx->node_id() +
                            " hosts no partition of dataset '" + dataset_ +
                            "'");
  }
  if (pipeline_.policy.at_least_once()) {
    acks_ = std::make_unique<AckCollector>(
        pipeline_.ack_bus, pipeline_.connection_id,
        pipeline_.policy.ack_window_ms());
  }
  e2e_latency_ = common::MetricsRegistry::Default().GetHistogram(
      "feed_intake_to_store_latency_us",
      {{"connection", pipeline_.connection_id}});
  return Status::OK();
}

Status FeedStoreOperator::ProcessFrame(const FramePtr& frame,
                                       TaskContext* ctx) {
  (void)ctx;
  for (const Value& record : frame->records()) {
    Value to_store = record;
    int64_t tid = -1;
    const Value* tid_field = to_store.GetField(kTrackingIdField);
    if (tid_field != nullptr &&
        tid_field->tag() == adm::TypeTag::kInt64) {
      tid = tid_field->AsInt64();
      to_store.RemoveField(kTrackingIdField);
    }
    Status status = partition_->Insert(to_store);
    if (!status.ok()) {
      // Per-record insert problems (missing key, type violation) are
      // soft failures: surface as an exception for the MetaFeed sandbox.
      throw std::runtime_error(status.ToString());
    }
    pipeline_.metrics->records_stored.fetch_add(1);
    pipeline_.metrics->store_timeline.Add(1);
    if (acks_ != nullptr && tid >= 0) acks_->OnPersisted(tid);
  }
  // relaxed: export-only backlog gauges; the scraper tolerates a stale
  // point-in-time value and no control flow reads them back.
  pipeline_.metrics->store_flush_backlog.store(
      static_cast<int64_t>(partition_->primary().flush_backlog()),
      std::memory_order_relaxed);
  pipeline_.metrics->store_merge_backlog.store(
      static_cast<int64_t>(partition_->primary().merge_backlog()),
      std::memory_order_relaxed);
  if (frame->trace().sampled()) {
    // End of the line for this trace: trace birth -> durably inserted.
    e2e_latency_->Record(common::NowMicros() - frame->trace().start_us);
  }
  return Status::OK();
}

Status FeedStoreOperator::Close(TaskContext* ctx) {
  (void)ctx;
  if (acks_ != nullptr) acks_->Flush();
  return Status::OK();
}

}  // namespace feeds
}  // namespace asterix
