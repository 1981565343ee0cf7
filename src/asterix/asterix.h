// AsterixInstance: the public facade of the library — a single-process
// AsterixDB-style BDMS with a simulated shared-nothing cluster, LSM
// storage, and native data feeds. Methods mirror the AQL DDL/DML the
// dissertation uses: create type/dataset/feed, connect/disconnect feed,
// insert, and simple queries.
//
// Quickstart:
//   asterix::AsterixInstance db(asterix::InstanceOptions{.num_nodes = 3});
//   db.Start();
//   db.CreateType(adm::TypeBuilder("Tweet").Field("id", kString).Build());
//   db.CreateDataset({.name = "Tweets", .datatype = "Tweet",
//                     .primary_key_field = "id"});
//   db.CreateFeed({.name = "TweetFeed", .is_primary = true,
//                  .adaptor_alias = "synthetic_tweets",
//                  .adaptor_config = {{"rate", "500"}}});
//   db.ConnectFeed("TweetFeed", "Tweets", "Basic");
//   ... db.CountDataset("Tweets") grows ...
//   db.DisconnectFeed("TweetFeed", "Tweets");
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adm/datatype.h"
#include "adm/parser.h"
#include "adm/value.h"
#include "feeds/central.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"

namespace asterix {

struct InstanceOptions {
  int num_nodes = 3;
  /// Node names; defaults to "A", "B", ... when empty.
  std::vector<std::string> node_names{};
  /// Root directory for WALs and spill files (default: unique /tmp dir).
  std::string storage_root{};
  int64_t heartbeat_period_ms = 20;
  int64_t heartbeat_timeout_ms = 200;
  /// Start the congestion monitor (needed by the Elastic policy).
  bool start_feed_monitor = true;
};

class AsterixInstance {
 public:
  explicit AsterixInstance(InstanceOptions options = {});
  ~AsterixInstance();

  AsterixInstance(const AsterixInstance&) = delete;
  AsterixInstance& operator=(const AsterixInstance&) = delete;

  /// Brings the cluster up (node controllers, heartbeats, feed manager).
  [[nodiscard]] common::Status Start();

  // --- DDL ------------------------------------------------------------
  [[nodiscard]] common::Status CreateType(adm::Datatype type);
  /// Creates the dataset and its partitions across the nodegroup
  /// (default nodegroup = all nodes, as in AsterixDB).
  [[nodiscard]] common::Status CreateDataset(storage::DatasetDef def);
  /// `create index <name> on <dataset>(<field>) type <kind>`: adds a
  /// secondary index to every partition, backfilling from existing data.
  [[nodiscard]] common::Status CreateIndex(const std::string& dataset,
                             storage::IndexDef index_def);
  [[nodiscard]] common::Status CreateFeed(feeds::FeedDef def);
  [[nodiscard]] common::Status InstallUdf(std::shared_ptr<feeds::Udf> udf);
  [[nodiscard]] common::Status RegisterAdaptor(
      std::shared_ptr<feeds::AdaptorFactory> factory);
  /// `create ingestion policy <name> from policy <base> (...)`.
  [[nodiscard]] common::Status CreatePolicy(
      const std::string& name, const std::string& base,
      std::map<std::string, std::string> overrides);

  // --- feed lifecycle ---------------------------------------------------
  [[nodiscard]] common::Status ConnectFeed(const std::string& feed,
                             const std::string& dataset,
                             const std::string& policy = "Basic",
                             feeds::ConnectOptions options = {});
  [[nodiscard]] common::Status DisconnectFeed(const std::string& feed,
                                const std::string& dataset);
  std::shared_ptr<feeds::ConnectionMetrics> FeedMetrics(
      const std::string& feed, const std::string& dataset) const;

  // --- observability ----------------------------------------------------
  /// Prometheus-style text exposition of every metric in the process-wide
  /// registry (feed counters, storage backlog gauges, latency histograms).
  static std::string ExportMetrics();
  /// Point-in-time snapshot of the same registry, for programmatic reads.
  static common::MetricsSnapshot SnapshotMetrics();

  // --- DML / queries ----------------------------------------------------
  /// The conventional insert statement: compiles and schedules one
  /// Hyracks job for the given batch — incurring the per-statement
  /// overhead the feed mechanism amortizes away (§5.7.1).
  [[nodiscard]] common::Status InsertBatch(const std::string& dataset,
                             std::vector<adm::Value> records);

  [[nodiscard]] common::Result<int64_t> CountDataset(const std::string& dataset) const;

  /// The spatial aggregation of Listing 3.3 (and the Chapter 8 Twitter
  /// heat-map use case): counts records per grid cell inside `region`,
  /// served from the dataset's spatial secondary index. Cell keys are
  /// (column, row) offsets from the region's bottom-left corner at the
  /// given resolutions. Keys of empty cells are absent.
  common::Result<std::map<std::pair<int64_t, int64_t>, int64_t>>
  SpatialAggregate(const std::string& dataset,
                   const std::string& index_name,
                   const storage::Rect& region, double lat_resolution,
                   double long_resolution) const;
  [[nodiscard]] common::Result<adm::Value> GetRecord(const std::string& dataset,
                                       const adm::Value& key) const;
  /// Visits every record of every partition (no cross-partition order).
  [[nodiscard]] common::Status ScanDataset(
      const std::string& dataset,
      const std::function<void(const adm::Value&)>& visitor) const;

  // --- cluster management (failure injection, elasticity) --------------
  void KillNode(const std::string& node_id);
  void RestartNode(const std::string& node_id);
  hyracks::NodeController* AddNode(const std::string& node_id);

  hyracks::ClusterController& cluster() { return *cluster_; }
  feeds::CentralFeedManager& feed_manager() { return *cfm_; }
  adm::TypeRegistry& types() { return types_; }
  storage::DatasetCatalog& datasets() { return datasets_; }
  const InstanceOptions& options() const { return options_; }
  const std::string& storage_root() const { return storage_root_; }

 private:
  InstanceOptions options_;
  std::string storage_root_;
  std::unique_ptr<hyracks::ClusterController> cluster_;
  adm::TypeRegistry types_;
  storage::DatasetCatalog datasets_;
  feeds::FeedCatalog feeds_;
  feeds::AdaptorRegistry adaptors_;
  feeds::UdfRegistry udfs_;
  feeds::PolicyRegistry policies_;
  std::unique_ptr<feeds::CentralFeedManager> cfm_;
  bool started_ = false;
};

}  // namespace asterix

