// Central Feed Manager (§5.2, §6.2): co-located with the Cluster
// Controller, it oversees every active data ingestion pipeline. It
// compiles connect/disconnect statements into Hyracks jobs (head and tail
// sections), tracks feed joints and operator locations, subscribes to
// cluster events to run the hard-failure protocol of Chapter 6, and hosts
// the congestion monitor that drives the Elastic policy of Chapter 7.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "feeds/ack.h"
#include "feeds/catalog.h"
#include "feeds/metrics.h"
#include "feeds/operators.h"
#include "feeds/policy.h"
#include "feeds/udf.h"
#include "hyracks/cluster.h"
#include "storage/dataset.h"

namespace asterix {
namespace feeds {

/// Options for a connect statement beyond the policy.
struct ConnectOptions {
  /// Instances per compute (assign) stage; <=0 = one per alive node (the
  /// paper's default degree of parallelism).
  int compute_count = -1;
  /// Explicit compute placement (applies to every assign stage);
  /// overrides compute_count when non-empty.
  std::vector<std::string> compute_locations{};
};

/// Runtime record of one `connect feed ... to dataset ...`.
struct ConnectionInfo {
  std::string id;  // "<feed>-><dataset>"
  std::string feed;
  std::string dataset;
  IngestionPolicy policy;
  ConnectOptions options;

  /// Joint the tail's intake subscribes to, and the joints this
  /// connection's compute stages expose (innermost last).
  std::string source_joint;
  std::vector<std::string> exposed_joints;
  /// Names of the UDFs applied in this tail (one assign stage each).
  std::vector<std::string> udf_chain;
  /// Root feed (head section) this connection transitively draws from.
  std::string head_root;

  std::shared_ptr<hyracks::JobHandle> tail_job;
  std::shared_ptr<ConnectionMetrics> metrics;

  std::vector<std::string> intake_locations;
  std::vector<std::vector<std::string>> assign_locations;
  std::vector<std::string> store_locations;
  int compute_width = 0;

  bool store_detached = false;  // partial dismantle (§5.5)
  bool terminated = false;

  // Elastic monitor state (streaks persisted across monitor ticks).
  CongestionState congestion;
  int initial_compute_width = 0;
};

/// A head section (Feed Collect job) shared by the connections of a feed
/// hierarchy (Figure 5.2).
struct HeadSection {
  std::string root_feed;  // doubles as the root joint id
  std::shared_ptr<hyracks::JobHandle> job;
  std::vector<std::string> collect_locations;
  std::shared_ptr<ConnectionMetrics> metrics;
};

class CentralFeedManager : public hyracks::ClusterListener {
 public:
  CentralFeedManager(hyracks::ClusterController* cluster,
                     FeedCatalog* feeds, AdaptorRegistry* adaptors,
                     UdfRegistry* udfs, PolicyRegistry* policies,
                     storage::DatasetCatalog* datasets);
  ~CentralFeedManager() override;

  /// `connect feed <feed> to dataset <dataset> using policy <policy>`.
  [[nodiscard]] common::Status ConnectFeed(const std::string& feed,
                             const std::string& dataset,
                             const std::string& policy_name = "Basic",
                             ConnectOptions options = {});

  /// `disconnect feed <feed> from dataset <dataset>`. Graceful: already
  /// received records drain into the target dataset; dependent feeds keep
  /// flowing (partial dismantling when they exist).
  [[nodiscard]] common::Status DisconnectFeed(const std::string& feed,
                                const std::string& dataset);

  /// Metrics of the shared head section of a feed hierarchy (records
  /// collected from the external source, intake-side soft failures).
  std::shared_ptr<ConnectionMetrics> GetHeadMetrics(
      const std::string& root_feed) const;

  /// Metrics of an active (or terminated) connection.
  std::shared_ptr<ConnectionMetrics> GetMetrics(
      const std::string& feed, const std::string& dataset) const;

  /// Snapshot of a connection's runtime record.
  [[nodiscard]] common::Result<ConnectionInfo> GetConnection(
      const std::string& feed, const std::string& dataset) const;

  std::vector<std::string> ActiveConnectionIds() const;

  /// Lifecycle state of a connection's tail pipeline.
  enum class ConnectionHealth {
    kActive,     // tasks running
    kCompleted,  // finished cleanly (source exhausted / disconnected)
    kFailed,     // a task failed (e.g. Basic policy budget exhausted)
    kUnknown,    // no such connection
  };
  ConnectionHealth Health(const std::string& feed,
                          const std::string& dataset) const;

  /// True while the connection's tail has live tasks.
  bool IsConnected(const std::string& feed,
                   const std::string& dataset) const;

  // --- ClusterListener (the Chapter 6 protocol entry point) ---
  void OnClusterEvent(const hyracks::ClusterEvent& event) override;

  /// Appendix A's Feed Management Console, textual form: one block per
  /// connection listing the nodes at the intake/compute/store stages and
  /// the cumulative record counts.
  std::string DescribeFeeds() const;

  /// Starts/stops the congestion monitor (Elastic policy, Chapter 7).
  void StartMonitor(int64_t period_ms = 250);
  void StopMonitor();

  /// Exposed for tests/benches: force a rebuild of a connection with a
  /// new compute width (the elastic scale-out/in step).
  [[nodiscard]] common::Status Rescale(const std::string& feed,
                         const std::string& dataset, int new_width);

  std::shared_ptr<AckBus> ack_bus() const { return ack_bus_; }

 private:
  struct JointInfo {
    std::string id;
    std::string owning_connection;  // "" for head joints
    std::string op_name;            // producer operator in its job
    std::vector<std::string> locations;  // node of instance p
  };

  static std::string ConnId(const std::string& feed,
                            const std::string& dataset) {
    return feed + "->" + dataset;
  }

  // All Locked methods require mutex_ held.
  [[nodiscard]] common::Status BuildHeadLocked(const FeedDef& root,
                                 const std::vector<std::string>& locations)
      REQUIRES(mutex_);
  [[nodiscard]] common::Status BuildTailLocked(ConnectionInfo* conn) REQUIRES(mutex_);
  [[nodiscard]] common::Status ConnectFeedLocked(const std::string& feed,
                                   const std::string& dataset,
                                   const std::string& policy_name,
                                   ConnectOptions options) REQUIRES(mutex_);
  /// Dismantles a tail gracefully and releases its joints/head refs.
  [[nodiscard]] common::Status FullDisconnectLocked(ConnectionInfo* conn) REQUIRES(mutex_);
  void ReleaseHeadIfIdleLocked(const std::string& root_feed)
      REQUIRES(mutex_);
  /// Connections transitively sourcing from `conn` (rebuild closure).
  std::vector<ConnectionInfo*> DependentsLocked(const ConnectionInfo& conn)
      REQUIRES(mutex_);
  int CountActiveSubscribersLocked(const std::string& joint_id)
      REQUIRES(mutex_);

  /// Chapter 6: substitute `failed_node` and resurrect affected
  /// pipelines; terminates connections that lost a store partition.
  void HandleNodeFailureLocked(const std::string& failed_node)
      REQUIRES(mutex_);

  /// §6.2.3: when a failed store node rejoins (after log-based recovery
  /// of its partitions), feeds that terminated for lack of that
  /// partition are rescheduled.
  void HandleNodeRejoinLocked(const std::string& node_id)
      REQUIRES(mutex_);

  /// Stops a connection's tail (handoff/zombie state capture) and starts
  /// a revised tail. `substitute(node)` maps old locations to new.
  [[nodiscard]] common::Status RebuildTailLocked(
      ConnectionInfo* conn,
      const std::map<std::string, std::string>& substitutions,
      int new_compute_width) REQUIRES(mutex_);

  void TerminateConnectionLocked(ConnectionInfo* conn,
                                 const std::string& why) REQUIRES(mutex_);

  std::string PickSubstituteLocked(
      const std::set<std::string>& avoid) const REQUIRES(mutex_);

  void MonitorLoop(int64_t period_ms);

  hyracks::ClusterController* cluster_;
  FeedCatalog* feeds_;
  AdaptorRegistry* adaptors_;
  UdfRegistry* udfs_;
  PolicyRegistry* policies_;
  storage::DatasetCatalog* datasets_;
  std::shared_ptr<AckBus> ack_bus_ = std::make_shared<AckBus>();

  mutable common::Mutex mutex_{common::LockRank::kCentralFeedManager};
  std::map<std::string, ConnectionInfo> connections_ GUARDED_BY(mutex_);
  std::map<std::string, HeadSection> heads_ GUARDED_BY(mutex_);
  std::map<std::string, JointInfo> joints_ GUARDED_BY(mutex_);

  std::atomic<bool> monitoring_{false};
  std::thread monitor_thread_;
};

}  // namespace feeds
}  // namespace asterix

