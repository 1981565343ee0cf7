// The operators of a data ingestion pipeline (§5.3):
//  - FeedCollectOperator   head section: drives the adaptor, parses raw
//                          payloads to ADM, emits into the feed joint;
//  - FeedIntakeOperator    tail section head: subscribes to a co-located
//                          joint, forwards frames downstream, and owns the
//                          at-least-once tracking (§5.6);
//  - AssignOperator        compute stage: applies the (inlined) UDF chain;
//  - FeedStoreOperator     store stage: inserts into the local dataset
//                          partition, updates secondary indexes, acks.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "feeds/ack.h"
#include "feeds/adaptor.h"
#include "feeds/feed_manager.h"
#include "feeds/metrics.h"
#include "feeds/policy.h"
#include "feeds/subscriber.h"
#include "feeds/udf.h"
#include "hyracks/operator.h"

namespace asterix {
namespace feeds {

/// Shared knobs for the pipeline's operators, derived from the feed's
/// ingestion policy at connect time.
struct PipelineConfig {
  std::string connection_id;  // "<feed>-><dataset>"
  IngestionPolicy policy;
  std::shared_ptr<ConnectionMetrics> metrics;
  std::shared_ptr<AckBus> ack_bus;
  std::string spill_dir = "/tmp";
  size_t frame_records = 64;
};

/// --- head section -----------------------------------------------------
class FeedCollectOperator : public hyracks::Operator {
 public:
  FeedCollectOperator(std::shared_ptr<AdaptorFactory> factory,
                      AdaptorConfig config, std::string joint_id,
                      PipelineConfig pipeline);

  bool is_source() const override { return true; }
  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Run(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr&,
                              hyracks::TaskContext*) override {
    return common::Status::NotSupported("source operator");
  }

 private:
  std::shared_ptr<AdaptorFactory> factory_;
  const AdaptorConfig config_;
  const std::string joint_id_;
  PipelineConfig pipeline_;
  std::unique_ptr<FeedAdaptor> adaptor_;
  std::shared_ptr<FeedJoint> own_joint_;
  int64_t consecutive_soft_failures_ = 0;
};

/// --- tail section: intake ----------------------------------------------
class FeedIntakeOperator : public hyracks::Operator {
 public:
  /// `source_joint_id`: the co-located joint to subscribe to.
  FeedIntakeOperator(std::string source_joint_id, PipelineConfig pipeline);

  bool is_source() const override { return true; }
  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Run(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Close(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr&,
                              hyracks::TaskContext*) override {
    return common::Status::NotSupported("source operator");
  }

  /// Fault-tolerance protocol signals:
  ///  "buffer"  — hold output in memory instead of forwarding;
  ///  "forward" — resume forwarding (flushing the held buffer);
  ///  "handoff" — save held + queued frames as zombie state and exit.
  void OnSignal(const std::string& signal) override;

  static constexpr const char* kSignalBuffer = "buffer";
  static constexpr const char* kSignalForward = "forward";
  static constexpr const char* kSignalHandoff = "handoff";

  /// Subscribes intake `partition`'s input queue to `joint` now, on the
  /// caller's (control) thread, and parks it with `feed_manager` as the
  /// intake handoff that Open adopts. Frames the joint routes before the
  /// intake task opens are thereby buffered instead of missed. A handoff
  /// a predecessor instance left under the same key wins; returns false
  /// then (nothing subscribed).
  static bool Presubscribe(FeedManager* feed_manager,
                           const std::shared_ptr<FeedJoint>& joint,
                           const PipelineConfig& pipeline, int partition);

  /// Feed Manager key of an intake partition's handoff and zombie state.
  static std::string StateKey(const std::string& connection_id,
                              int partition);

 private:
  enum class Mode { kForward, kBuffer, kHandoff };

  static SubscriberOptions InputOptions(const PipelineConfig& pipeline,
                                        int partition);

  [[nodiscard]] common::Status ForwardFrame(const hyracks::FramePtr& frame,
                              hyracks::TaskContext* ctx);
  [[nodiscard]] common::Status ForwardTagged(const hyracks::FramePtr& frame,
                               const hyracks::TraceContext& tc,
                               hyracks::TaskContext* ctx);

  const std::string source_joint_id_;
  PipelineConfig pipeline_;
  std::shared_ptr<FeedManager> feed_manager_;
  std::shared_ptr<FeedJoint> source_joint_;
  std::shared_ptr<SubscriberQueue> queue_;
  std::atomic<Mode> mode_{Mode::kForward};
  std::vector<hyracks::FramePtr> held_;  // buffer-mode frames

  // At-least-once state.
  bool at_least_once_ = false;
  std::unique_ptr<PendingTracker> pending_;
  int64_t next_seq_ = 0;
  int64_t last_replay_check_ms_ = 0;
};

/// --- tail section: compute ----------------------------------------------
class AssignOperator : public hyracks::Operator {
 public:
  /// Applies `udfs` in order to every record (the inlined chain of
  /// Listing 5.6). Throws from UDFs escape to the MetaFeed sandbox.
  AssignOperator(std::vector<std::shared_ptr<Udf>> udfs,
                 PipelineConfig pipeline);

  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr& frame,
                              hyracks::TaskContext* ctx) override;

 private:
  std::vector<std::shared_ptr<Udf>> udfs_;
  PipelineConfig pipeline_;
};

/// --- tail section: store -------------------------------------------------
class FeedStoreOperator : public hyracks::Operator {
 public:
  FeedStoreOperator(std::string dataset, PipelineConfig pipeline);

  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr& frame,
                              hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Close(hyracks::TaskContext* ctx) override;

 private:
  const std::string dataset_;
  PipelineConfig pipeline_;
  storage::DatasetPartition* partition_ = nullptr;
  std::unique_ptr<AckCollector> acks_;
  // Cached registry histogram: end-to-end intake->store latency for
  // traced frames. Record() is lock-free.
  common::Histogram* e2e_latency_ = nullptr;
};

}  // namespace feeds
}  // namespace asterix

