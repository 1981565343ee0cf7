#include "common/thread_annotations.h"
#include "feeds/central.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "hyracks/operators.h"
#include "feeds/meta.h"
#include "storage/key.h"

namespace asterix {
namespace feeds {

using common::Result;
using common::Status;
using hyracks::ConnectorDescriptor;
using hyracks::ConnectorKind;
using hyracks::JobSpec;
using hyracks::OperatorDescriptor;

namespace {

/// Feed joints are registered per instance: base id + "#" + partition,
/// so that several instances of one subscribable operator can share a
/// node without clobbering each other's joints.
std::string JointInstanceId(const std::string& base, int partition) {
  return base + "#" + std::to_string(partition);
}

/// Output interceptor installing a feed joint between a subscribable
/// task and its in-job downstream, and registering it with the local
/// Feed Manager (making it discoverable via the search API).
hyracks::OutputInterceptor MakeJointInterceptor() {
  return [](const std::string& base_id,
            std::shared_ptr<hyracks::IFrameWriter> downstream,
            hyracks::TaskContext* ctx)
             -> std::shared_ptr<hyracks::IFrameWriter> {
    auto joint = std::make_shared<FeedJoint>(
        JointInstanceId(base_id, ctx->partition()));
    joint->SetPrimary(std::move(downstream));
    FeedManager::Of(ctx->node())->RegisterJoint(joint);
    return joint;
  };
}

}  // namespace

CentralFeedManager::CentralFeedManager(hyracks::ClusterController* cluster,
                                       FeedCatalog* feeds,
                                       AdaptorRegistry* adaptors,
                                       UdfRegistry* udfs,
                                       PolicyRegistry* policies,
                                       storage::DatasetCatalog* datasets)
    : cluster_(cluster),
      feeds_(feeds),
      adaptors_(adaptors),
      udfs_(udfs),
      policies_(policies),
      datasets_(datasets) {
  cluster_->Subscribe(this);
}

CentralFeedManager::~CentralFeedManager() {
  StopMonitor();
  cluster_->Unsubscribe(this);
}

Status CentralFeedManager::ConnectFeed(const std::string& feed,
                                       const std::string& dataset,
                                       const std::string& policy_name,
                                       ConnectOptions options) {
  common::MutexLock lock(mutex_);
  return ConnectFeedLocked(feed, dataset, policy_name, options);
}

Status CentralFeedManager::ConnectFeedLocked(const std::string& feed,
                                             const std::string& dataset,
                                             const std::string& policy_name,
                                             ConnectOptions options) {
  const std::string id = ConnId(feed, dataset);
  auto existing = connections_.find(id);
  if (existing != connections_.end() && !existing->second.terminated) {
    if (!existing->second.store_detached) {
      return Status::AlreadyExists("feed '" + feed +
                                   "' is already connected to dataset '" +
                                   dataset + "'");
    }
    // Reconnecting a partially dismantled feed (Figure 5.10): the live
    // compute segment is rebuilt with its store stage reattached, and
    // dependent connections follow (their joints are recreated).
    ConnectionInfo* conn = &existing->second;
    ASSIGN_OR_RETURN(conn->policy, policies_->Find(policy_name));
    RETURN_IF_ERROR(RebuildTailLocked(conn, {}, conn->compute_width));
    for (ConnectionInfo* dep : DependentsLocked(*conn)) {
      Status status = RebuildTailLocked(dep, {}, dep->compute_width);
      if (!status.ok()) {
        LOG_MSG(kWarn) << "dependent " << dep->id
                       << " failed to follow reconnect: "
                       << status.ToString();
        TerminateConnectionLocked(dep, status.ToString());
      }
    }
    LOG_MSG(kInfo) << "reconnected " << id << " (store reattached)";
    return Status::OK();
  }
  if (existing != connections_.end()) connections_.erase(existing);

  ASSIGN_OR_RETURN(IngestionPolicy policy, policies_->Find(policy_name));
  ASSIGN_OR_RETURN(storage::DatasetCatalog::Entry ds,
                   datasets_->Find(dataset));
  ASSIGN_OR_RETURN(std::vector<FeedDef> path, feeds_->PathFromRoot(feed));

  // Joint ids along the lineage: the raw collected records are
  // "<root>"; each feed's records are the accumulated function chain
  // "<root>:f1:...:fk" (§5.3.1 naming).
  std::vector<std::string> feed_jids(path.size());
  std::string accumulated = path[0].name;
  for (size_t i = 0; i < path.size(); ++i) {
    if (!path[i].udf.empty()) accumulated += ":" + path[i].udf;
    feed_jids[i] = accumulated;
  }

  // Source selection (§5.3.2): the nearest ancestor feed (or this feed
  // itself) whose records already flow through an available joint wins;
  // the raw head joint is the fallback.
  std::string source_joint;
  std::vector<std::string> udf_chain;
  for (int k = static_cast<int>(path.size()) - 1; k >= 0; --k) {
    if (joints_.count(feed_jids[k]) > 0) {
      source_joint = feed_jids[k];
      for (size_t j = k + 1; j < path.size(); ++j) {
        if (!path[j].udf.empty()) udf_chain.push_back(path[j].udf);
      }
      break;
    }
  }
  if (source_joint.empty()) {
    // Head section needed (possibly already built by a sibling).
    const FeedDef& root = path[0];
    if (heads_.count(root.name) == 0) {
      RETURN_IF_ERROR(BuildHeadLocked(root, {}));
    }
    source_joint = root.name;
    for (const FeedDef& def : path) {
      if (!def.udf.empty()) udf_chain.push_back(def.udf);
    }
  }

  // Validate UDFs up front.
  for (const std::string& name : udf_chain) {
    auto udf = udfs_->Find(name);
    if (!udf.ok()) return udf.status();
  }

  ConnectionInfo conn;
  conn.id = id;
  conn.feed = feed;
  conn.dataset = dataset;
  conn.policy = std::move(policy);
  conn.options = options;
  conn.source_joint = source_joint;
  conn.udf_chain = std::move(udf_chain);
  conn.head_root = path[0].name;
  conn.store_locations = ds.nodegroup;
  // The connection id doubles as the registry label: every counter/gauge
  // of this connection exports as feed_*{connection="<feed>-><dataset>"}.
  conn.metrics = std::make_shared<ConnectionMetrics>(id);
  int width = options.compute_count > 0
                  ? options.compute_count
                  : static_cast<int>(cluster_->AliveNodeIds().size());
  conn.compute_width = std::max(1, width);
  conn.initial_compute_width = conn.compute_width;

  auto [it, inserted] = connections_.emplace(id, std::move(conn));
  Status status = BuildTailLocked(&it->second);
  if (!status.ok()) {
    connections_.erase(it);
    return status;
  }
  LOG_MSG(kInfo) << "connected " << id << " via joint '"
                 << it->second.source_joint << "' applying ["
                 << common::Join(it->second.udf_chain, ",") << "]";
  return Status::OK();
}

Status CentralFeedManager::BuildHeadLocked(
    const FeedDef& root, const std::vector<std::string>& locations) {
  if (!root.is_primary) {
    return Status::Internal("head section requires a primary feed");
  }
  ASSIGN_OR_RETURN(std::shared_ptr<AdaptorFactory> factory,
                   adaptors_->Find(root.adaptor_alias));
  std::vector<std::string> collect_locations = locations;
  for (auto& loc : collect_locations) {
    auto* node = cluster_->GetNode(loc);
    if (node == nullptr || !node->alive()) {
      std::set<std::string> avoid(collect_locations.begin(),
                                  collect_locations.end());
      std::string substitute = PickSubstituteLocked(avoid);
      if (!substitute.empty()) loc = substitute;
    }
  }
  if (collect_locations.empty()) {
    ASSIGN_OR_RETURN(hyracks::PartitionConstraint constraint,
                     factory->GetConstraints(root.adaptor_config));
    if (!constraint.locations.empty()) {
      collect_locations = constraint.locations;
    } else {
      std::vector<std::string> alive = cluster_->AliveNodeIds();
      if (alive.empty()) return Status::Unavailable("no alive nodes");
      for (int i = 0; i < constraint.count; ++i) {
        collect_locations.push_back(alive[i % alive.size()]);
      }
    }
  }

  PipelineConfig pcfg;
  pcfg.connection_id = "head:" + root.name;
  pcfg.policy = IngestionPolicy("Basic", {});
  pcfg.metrics = std::make_shared<ConnectionMetrics>(pcfg.connection_id);
  pcfg.ack_bus = ack_bus_;
  pcfg.spill_dir = cluster_->options().storage_root;

  JobSpec spec;
  spec.name = "head:" + root.name;
  spec.failure_policy = hyracks::NodeFailurePolicy::kNotifyOnly;
  spec.output_interceptor = MakeJointInterceptor();

  const std::string joint_base = root.name;
  const AdaptorConfig config = root.adaptor_config;
  int collect = spec.AddOperator(
      {"collect",
       {collect_locations, 0},
       [factory, config, joint_base, pcfg](int partition) {
         return std::make_unique<FeedCollectOperator>(
             factory, config, JointInstanceId(joint_base, partition),
             pcfg);
       },
       joint_base});
  int nullsink = spec.AddOperator(
      {"nullsink",
       {collect_locations, 0},
       [](int) { return std::make_unique<hyracks::NullSinkOperator>(); },
       ""});
  spec.Connect(collect, nullsink, {ConnectorKind::kOneToOne, nullptr});

  auto job = cluster_->StartJob(std::move(spec));
  if (!job.ok()) return job.status();

  heads_[root.name] =
      HeadSection{root.name, *job, collect_locations, pcfg.metrics};
  joints_[root.name] =
      JointInfo{root.name, "", "collect", collect_locations};
  return Status::OK();
}

Status CentralFeedManager::BuildTailLocked(ConnectionInfo* conn) {
  auto source_it = joints_.find(conn->source_joint);
  if (source_it == joints_.end()) {
    return Status::Internal("source joint '" + conn->source_joint +
                            "' vanished");
  }
  conn->intake_locations = source_it->second.locations;

  ASSIGN_OR_RETURN(storage::DatasetCatalog::Entry ds,
                   datasets_->Find(conn->dataset));

  // Compute-stage placement: keep prior locations (rebuild) or pick
  // round-robin over alive nodes.
  if (conn->assign_locations.size() != conn->udf_chain.size()) {
    conn->assign_locations.clear();
    if (!conn->options.compute_locations.empty()) {
      for (size_t i = 0; i < conn->udf_chain.size(); ++i) {
        conn->assign_locations.push_back(conn->options.compute_locations);
      }
      conn->compute_width =
          static_cast<int>(conn->options.compute_locations.size());
    } else {
      std::vector<std::string> alive = cluster_->AliveNodeIds();
      if (alive.empty()) return Status::Unavailable("no alive nodes");
      size_t rr = 0;
      for (size_t i = 0; i < conn->udf_chain.size(); ++i) {
        std::vector<std::string> stage;
        for (int p = 0; p < conn->compute_width; ++p) {
          stage.push_back(alive[rr++ % alive.size()]);
        }
        conn->assign_locations.push_back(std::move(stage));
      }
    }
  }

  PipelineConfig pcfg;
  pcfg.connection_id = conn->id;
  pcfg.policy = conn->policy;
  pcfg.metrics = conn->metrics;
  pcfg.ack_bus = ack_bus_;
  pcfg.spill_dir = cluster_->options().storage_root;

  JobSpec spec;
  spec.name = "tail:" + conn->id;
  spec.failure_policy = hyracks::NodeFailurePolicy::kNotifyOnly;
  spec.output_interceptor = MakeJointInterceptor();

  const std::string source_base = conn->source_joint;
  int intake = spec.AddOperator(
      {"intake",
       {conn->intake_locations, 0},
       [source_base, pcfg](int partition) {
         return std::make_unique<FeedIntakeOperator>(
             JointInstanceId(source_base, partition), pcfg);
       },
       ""});

  conn->exposed_joints.clear();
  int prev = intake;
  std::string jid = conn->source_joint;
  for (size_t i = 0; i < conn->udf_chain.size(); ++i) {
    jid += ":" + conn->udf_chain[i];
    ASSIGN_OR_RETURN(std::shared_ptr<Udf> udf,
                     udfs_->Find(conn->udf_chain[i]));
    std::string op_name = "assign" + std::to_string(i);
    std::string state_key = conn->id + ":" + op_name;
    IngestionPolicy policy = conn->policy;
    auto metrics = conn->metrics;
    int assign = spec.AddOperator(
        {op_name,
         {conn->assign_locations[i], 0},
         [udf, pcfg, policy, state_key, metrics](int) {
           return WrapWithMetaFeed(
               std::make_unique<AssignOperator>(
                   std::vector<std::shared_ptr<Udf>>{udf}, pcfg),
               policy, state_key, metrics);
         },
         jid});
    spec.Connect(prev, assign, {ConnectorKind::kMToNRandom, nullptr});
    conn->exposed_joints.push_back(jid);
    prev = assign;
  }

  const std::string pk_field = ds.def.primary_key_field;
  const std::string dataset_name = conn->dataset;
  IngestionPolicy policy = conn->policy;
  std::string store_state_key = conn->id + ":store";
  auto metrics = conn->metrics;
  int store = spec.AddOperator(
      {"store",
       {conn->store_locations, 0},
       [dataset_name, pcfg, policy, store_state_key, metrics](int) {
         return WrapWithMetaFeed(
             std::make_unique<FeedStoreOperator>(dataset_name, pcfg),
             policy, store_state_key, metrics);
       },
       ""});
  spec.Connect(prev, store,
               {ConnectorKind::kMToNHash,
                [pk_field](const adm::Value& record) {
                  const adm::Value* key = record.GetField(pk_field);
                  return key != nullptr ? key->ToAdmString()
                                        : std::string();
                }});

  // Subscribe the intakes' input queues before the job starts, so no
  // frame routed through the source joint between ConnectFeed returning
  // and an intake task's Open misses its subscriber (Open adopts the
  // queue through the intake handoff).
  std::vector<std::pair<std::shared_ptr<FeedManager>, std::string>>
      presubscribed;
  for (size_t p = 0; p < conn->intake_locations.size(); ++p) {
    hyracks::NodeController* node =
        cluster_->GetNode(conn->intake_locations[p]);
    if (node == nullptr || !node->alive()) continue;
    std::shared_ptr<FeedManager> feed_manager = FeedManager::Of(node);
    std::shared_ptr<FeedJoint> joint = feed_manager->LookupJoint(
        JointInstanceId(source_base, static_cast<int>(p)));
    if (joint != nullptr &&
        FeedIntakeOperator::Presubscribe(feed_manager.get(), joint, pcfg,
                                         static_cast<int>(p))) {
      presubscribed.emplace_back(
          feed_manager,
          FeedIntakeOperator::StateKey(conn->id, static_cast<int>(p)));
    }
  }

  auto job = cluster_->StartJob(std::move(spec));
  if (!job.ok()) {
    for (const auto& [feed_manager, key] : presubscribed) {
      auto handoff = feed_manager->TakeIntakeHandoff(key);
      if (handoff.has_value()) handoff->joint->Unsubscribe(handoff->queue);
    }
    return job.status();
  }
  conn->tail_job = *job;
  conn->store_detached = false;

  // Publish the new compute-stage joints.
  jid = conn->source_joint;
  for (size_t i = 0; i < conn->udf_chain.size(); ++i) {
    jid += ":" + conn->udf_chain[i];
    joints_[jid] = JointInfo{jid, conn->id,
                             "assign" + std::to_string(i),
                             conn->assign_locations[i]};
  }
  return Status::OK();
}

int CentralFeedManager::CountActiveSubscribersLocked(
    const std::string& joint_id) {
  int count = 0;
  for (const auto& [id, conn] : connections_) {
    if (!conn.terminated && conn.source_joint == joint_id) ++count;
  }
  return count;
}

std::vector<ConnectionInfo*> CentralFeedManager::DependentsLocked(
    const ConnectionInfo& conn) {
  std::vector<ConnectionInfo*> dependents;
  for (auto& [id, other] : connections_) {
    if (other.terminated || other.id == conn.id) continue;
    for (const std::string& joint : conn.exposed_joints) {
      if (other.source_joint == joint) {
        dependents.push_back(&other);
        break;
      }
    }
  }
  return dependents;
}

Status CentralFeedManager::DisconnectFeed(const std::string& feed,
                                          const std::string& dataset) {
  common::MutexLock lock(mutex_);
  auto it = connections_.find(ConnId(feed, dataset));
  if (it == connections_.end() || it->second.terminated) {
    return Status::NotFound("feed '" + feed +
                            "' is not connected to dataset '" + dataset +
                            "'");
  }
  ConnectionInfo* conn = &it->second;

  if (!DependentsLocked(*conn).empty()) {
    // Partial dismantling (Figure 5.10(b)): the store stage terminates
    // but the compute stage lives on, serving the dependent feeds.
    if (conn->store_detached) return Status::OK();
    const std::string& last_joint = conn->exposed_joints.back();
    auto jinfo = joints_.find(last_joint);
    if (jinfo != joints_.end()) {
      for (size_t p = 0; p < jinfo->second.locations.size(); ++p) {
        auto* node = cluster_->GetNode(jinfo->second.locations[p]);
        if (node == nullptr || !node->alive()) continue;
        auto joint = FeedManager::Of(node)->LookupJoint(
            JointInstanceId(last_joint, static_cast<int>(p)));
        if (joint != nullptr) joint->DetachPrimary();
      }
    }
    conn->store_detached = true;
    LOG_MSG(kInfo) << "partially disconnected " << conn->id
                   << " (dependent feeds keep flowing)";
    return Status::OK();
  }
  return FullDisconnectLocked(conn);
}

Status CentralFeedManager::FullDisconnectLocked(ConnectionInfo* conn) {
  if (conn->tail_job != nullptr) {
    conn->tail_job->FinishSources();
    if (!conn->tail_job->Wait(10000)) {
      LOG_MSG(kWarn) << conn->id
                     << ": graceful disconnect timed out; aborting";
      conn->tail_job->Abort();
      conn->tail_job->Wait(2000);
    }
    cluster_->ForgetJob(conn->tail_job->id());
  }
  // Remove this connection's joints from the registry and the nodes.
  for (const std::string& jid : conn->exposed_joints) {
    auto info = joints_.find(jid);
    if (info != joints_.end()) {
      for (size_t p = 0; p < info->second.locations.size(); ++p) {
        auto* node = cluster_->GetNode(info->second.locations[p]);
        if (node != nullptr) {
          FeedManager::Of(node)->UnregisterJoint(
              JointInstanceId(jid, static_cast<int>(p)));
        }
      }
      joints_.erase(info);
    }
  }
  conn->exposed_joints.clear();
  conn->terminated = true;
  LOG_MSG(kInfo) << "disconnected " << conn->id;
  ReleaseHeadIfIdleLocked(conn->head_root);
  return Status::OK();
}

void CentralFeedManager::ReleaseHeadIfIdleLocked(
    const std::string& root_feed) {
  auto head = heads_.find(root_feed);
  if (head == heads_.end()) return;
  for (const auto& [id, conn] : connections_) {
    if (!conn.terminated && conn.head_root == root_feed) return;
  }
  // No active connection draws from this head: stop collecting.
  head->second.job->FinishSources();
  head->second.job->Wait(5000);
  cluster_->ForgetJob(head->second.job->id());
  for (size_t p = 0; p < head->second.collect_locations.size(); ++p) {
    auto* node = cluster_->GetNode(head->second.collect_locations[p]);
    if (node != nullptr) {
      FeedManager::Of(node)->UnregisterJoint(
          JointInstanceId(root_feed, static_cast<int>(p)));
    }
  }
  joints_.erase(root_feed);
  heads_.erase(head);
  LOG_MSG(kInfo) << "released head section of " << root_feed;
}

std::shared_ptr<ConnectionMetrics> CentralFeedManager::GetHeadMetrics(
    const std::string& root_feed) const {
  common::MutexLock lock(mutex_);
  auto it = heads_.find(root_feed);
  return it == heads_.end() ? nullptr : it->second.metrics;
}

std::shared_ptr<ConnectionMetrics> CentralFeedManager::GetMetrics(
    const std::string& feed, const std::string& dataset) const {
  common::MutexLock lock(mutex_);
  auto it = connections_.find(ConnId(feed, dataset));
  return it == connections_.end() ? nullptr : it->second.metrics;
}

Result<ConnectionInfo> CentralFeedManager::GetConnection(
    const std::string& feed, const std::string& dataset) const {
  common::MutexLock lock(mutex_);
  auto it = connections_.find(ConnId(feed, dataset));
  if (it == connections_.end()) {
    return Status::NotFound("no connection " + ConnId(feed, dataset));
  }
  return it->second;
}

std::vector<std::string> CentralFeedManager::ActiveConnectionIds() const {
  common::MutexLock lock(mutex_);
  std::vector<std::string> ids;
  for (const auto& [id, conn] : connections_) {
    if (!conn.terminated) ids.push_back(id);
  }
  return ids;
}

CentralFeedManager::ConnectionHealth CentralFeedManager::Health(
    const std::string& feed, const std::string& dataset) const {
  common::MutexLock lock(mutex_);
  auto it = connections_.find(ConnId(feed, dataset));
  if (it == connections_.end()) return ConnectionHealth::kUnknown;
  if (it->second.terminated) return ConnectionHealth::kFailed;
  const auto& job = it->second.tail_job;
  if (job == nullptr) return ConnectionHealth::kUnknown;
  if (!job->Finished()) return ConnectionHealth::kActive;
  for (const auto& group : job->tasks()) {
    for (const auto& task : group) {
      const common::Status& status = task->final_status();
      if (!status.ok() && !status.IsAborted()) {
        return ConnectionHealth::kFailed;
      }
    }
  }
  return ConnectionHealth::kCompleted;
}

bool CentralFeedManager::IsConnected(const std::string& feed,
                                     const std::string& dataset) const {
  return Health(feed, dataset) == ConnectionHealth::kActive;
}

// --- Chapter 6: hard failures ----------------------------------------------

void CentralFeedManager::OnClusterEvent(
    const hyracks::ClusterEvent& event) {
  common::MutexLock lock(mutex_);
  if (event.kind == hyracks::ClusterEvent::Kind::kNodeFailed) {
    HandleNodeFailureLocked(event.node_id);
  } else if (event.kind == hyracks::ClusterEvent::Kind::kNodeJoined) {
    HandleNodeRejoinLocked(event.node_id);
  }
}

void CentralFeedManager::HandleNodeRejoinLocked(
    const std::string& node_id) {
  // Feeds terminated by the loss of this node's store partition are
  // rescheduled now that the partition is available again (§6.2.3). The
  // rejoined node's WAL-recovered partitions still exist in its storage
  // manager; rebuilding the tail reattaches the store stage.
  for (auto& [id, conn] : connections_) {
    if (!conn.terminated) continue;
    if (std::find(conn.store_locations.begin(),
                  conn.store_locations.end(),
                  node_id) == conn.store_locations.end()) {
      continue;
    }
    // Every store partition must be back before rescheduling.
    bool all_alive = true;
    for (const std::string& store : conn.store_locations) {
      auto* node = cluster_->GetNode(store);
      if (node == nullptr || !node->alive() ||
          node->storage().GetPartition(conn.dataset) == nullptr) {
        all_alive = false;
      }
    }
    if (!all_alive) continue;
    LOG_MSG(kInfo) << "store node " << node_id
                   << " rejoined; rescheduling feed " << id;
    conn.terminated = false;
    conn.tail_job = nullptr;
    conn.assign_locations.clear();
    conn.metrics->ClearIntakeQueues();
    // The head may have been released when this connection terminated.
    Status status = Status::OK();
    if (joints_.count(conn.source_joint) == 0) {
      auto root_def = feeds_->Find(conn.head_root);
      if (root_def.ok() && heads_.count(conn.head_root) == 0) {
        status = BuildHeadLocked(*root_def, {});
      }
      if (status.ok() && joints_.count(conn.source_joint) == 0) {
        // The source joint belonged to another connection's compute
        // stage that is gone; fall back to the head joint with the full
        // UDF chain.
        auto path = feeds_->PathFromRoot(conn.feed);
        if (path.ok()) {
          conn.source_joint = conn.head_root;
          conn.udf_chain.clear();
          for (const FeedDef& def : *path) {
            if (!def.udf.empty()) conn.udf_chain.push_back(def.udf);
          }
        }
      }
    }
    if (status.ok()) status = BuildTailLocked(&conn);
    if (!status.ok()) {
      LOG_MSG(kWarn) << "rescheduling " << id
                     << " failed: " << status.ToString();
      conn.terminated = true;
    }
  }
}

std::string CentralFeedManager::DescribeFeeds() const {
  // Counters come from the registry snapshot (the same numbers Export()
  // publishes), not from the ConnectionMetrics fields directly. Taken
  // before mutex_ — Snapshot() runs providers that take pipeline locks.
  common::MetricsSnapshot snap =
      common::MetricsRegistry::Default().Snapshot();
  common::MutexLock lock(mutex_);
  std::string out;
  for (const auto& [id, conn] : connections_) {
    out += "connection " + id + " [policy " + conn.policy.name() + "]";
    if (conn.terminated) {
      out += " TERMINATED\n";
      continue;
    }
    const common::MetricLabels labels = {{"connection", id}};
    out += conn.store_detached ? " (store detached)\n" : "\n";
    out += "  intake : " + common::Join(conn.intake_locations, " ") +
           "\n";
    for (size_t i = 0; i < conn.assign_locations.size(); ++i) {
      out += "  compute: " + common::Join(conn.assign_locations[i], " ") +
             "  (udf " + conn.udf_chain[i] + ")\n";
    }
    out += "  store  : " + common::Join(conn.store_locations, " ") +
           "\n";
    out += "  records: collected=" +
           std::to_string(
               snap.CounterValue("feed_records_collected_total", labels)) +
           " computed=" +
           std::to_string(
               snap.CounterValue("feed_records_computed_total", labels)) +
           " stored=" +
           std::to_string(
               snap.CounterValue("feed_records_stored_total", labels)) +
           "\n";
  }
  for (const auto& [root, head] : heads_) {
    out += "head " + root + ": collect on " +
           common::Join(head.collect_locations, " ") + " (collected=" +
           std::to_string(snap.CounterValue(
               "feed_records_collected_total",
               {{"connection", "head:" + root}})) +
           ")\n";
  }
  return out;
}

std::string CentralFeedManager::PickSubstituteLocked(
    const std::set<std::string>& avoid) const {
  std::vector<std::string> alive = cluster_->AliveNodeIds();
  for (const std::string& node : alive) {
    if (avoid.count(node) == 0) return node;
  }
  return alive.empty() ? "" : alive.front();
}

void CentralFeedManager::HandleNodeFailureLocked(
    const std::string& failed_node) {
  auto contains = [&](const std::vector<std::string>& v) {
    return std::find(v.begin(), v.end(), failed_node) != v.end();
  };

  // Which head sections lost a collect instance?
  std::set<std::string> dead_heads;
  for (const auto& [root, head] : heads_) {
    if (contains(head.collect_locations)) dead_heads.insert(root);
  }

  // Classify affected connections.
  std::vector<ConnectionInfo*> to_rebuild;
  std::vector<ConnectionInfo*> to_terminate;
  for (auto& [id, conn] : connections_) {
    if (conn.terminated) continue;
    bool assign_hit = false;
    for (const auto& stage : conn.assign_locations) {
      if (contains(stage)) assign_hit = true;
    }
    bool store_hit = contains(conn.store_locations);
    bool intake_hit = contains(conn.intake_locations);
    bool head_hit = dead_heads.count(conn.head_root) > 0;
    if (!(assign_hit || store_hit || intake_hit || head_hit)) continue;

    if (!conn.policy.recover_hard_failure()) {
      to_terminate.push_back(&conn);
    } else if (store_hit && !conn.store_detached) {
      // Loss of a store node = loss of a dataset partition; without
      // data replication there is no substitute (§6.2.3) — the feed
      // terminates early.
      to_terminate.push_back(&conn);
    } else {
      to_rebuild.push_back(&conn);
    }
  }

  // Rebuilding a connection re-creates its joints, so every transitive
  // dependent must rebuild too.
  bool grew = true;
  while (grew) {
    grew = false;
    for (ConnectionInfo* conn : to_rebuild) {
      for (ConnectionInfo* dep : DependentsLocked(*conn)) {
        if (std::find(to_rebuild.begin(), to_rebuild.end(), dep) ==
                to_rebuild.end() &&
            std::find(to_terminate.begin(), to_terminate.end(), dep) ==
                to_terminate.end()) {
          to_rebuild.push_back(dep);
          grew = true;
        }
      }
    }
  }

  for (ConnectionInfo* conn : to_terminate) {
    TerminateConnectionLocked(conn, "lost node " + failed_node);
  }
  if (to_rebuild.empty() && dead_heads.empty()) return;

  // Choose a substitute node (§6.2.2): any alive node; prefer one not
  // already participating in the affected pipelines.
  std::set<std::string> avoid;
  for (const auto& [root, head] : heads_) {
    for (const auto& n : head.collect_locations) avoid.insert(n);
  }
  for (ConnectionInfo* conn : to_rebuild) {
    for (const auto& n : conn->intake_locations) avoid.insert(n);
    for (const auto& stage : conn->assign_locations) {
      for (const auto& n : stage) avoid.insert(n);
    }
  }
  std::string substitute = PickSubstituteLocked(avoid);
  if (substitute.empty()) {
    LOG_MSG(kError) << "no substitute node available; terminating "
                       "affected feeds";
    for (ConnectionInfo* conn : to_rebuild) {
      TerminateConnectionLocked(conn, "no substitute node");
    }
    return;
  }
  std::map<std::string, std::string> subs{{failed_node, substitute}};
  LOG_MSG(kInfo) << "fault-tolerance protocol: substituting "
                 << failed_node << " -> " << substitute << " for "
                 << to_rebuild.size() << " connection(s)";

  // Step 1 of the protocol: alive intake instances buffer; assign and
  // store instances become zombies (their unprocessed input saved with
  // the local Feed Manager).
  for (ConnectionInfo* conn : to_rebuild) {
    if (conn->tail_job == nullptr) continue;
    for (auto& task : conn->tail_job->TasksOfOperator("intake")) {
      if (cluster_->GetNode(task->node_id())->alive()) {
        task->Signal(FeedIntakeOperator::kSignalBuffer);
      }
    }
    std::vector<std::string> ops;
    for (size_t i = 0; i < conn->udf_chain.size(); ++i) {
      ops.push_back("assign" + std::to_string(i));
    }
    ops.push_back("store");
    for (const std::string& op : ops) {
      for (auto& task : conn->tail_job->TasksOfOperator(op)) {
        auto* node = cluster_->GetNode(task->node_id());
        if (node == nullptr || !node->alive()) continue;
        auto frames_msgs = task->FreezeAndDrain();
        std::vector<hyracks::FramePtr> frames;
        for (auto& msg : frames_msgs) frames.push_back(msg.frame);
        FeedManager::Of(node)->SaveZombieState(
            conn->id + ":" + op + ":" +
                std::to_string(task->partition()),
            std::move(frames));
      }
    }
  }

  // Step 2: resurrect head sections on the substitute node.
  for (const std::string& root : dead_heads) {
    auto head = heads_.find(root);
    if (head == heads_.end()) continue;
    head->second.job->Abort();
    cluster_->ForgetJob(head->second.job->id());
    std::vector<std::string> locations = head->second.collect_locations;
    for (auto& loc : locations) {
      if (loc == failed_node) loc = substitute;
    }
    auto root_def = feeds_->Find(root);
    heads_.erase(head);
    joints_.erase(root);
    if (root_def.ok()) {
      Status status = BuildHeadLocked(*root_def, locations);
      if (!status.ok()) {
        LOG_MSG(kError) << "failed to resurrect head of " << root << ": "
                        << status.ToString();
      }
    }
  }

  // Step 3: rebuild each affected tail (handoff + revised schedule).
  for (ConnectionInfo* conn : to_rebuild) {
    Status status = RebuildTailLocked(conn, subs, conn->compute_width);
    if (status.ok()) {
      LOG_MSG(kInfo) << "resurrected " << conn->id << " (intake on "
                     << common::Join(conn->intake_locations, ",")
                     << (conn->assign_locations.empty()
                             ? ""
                             : "; compute on " +
                                   common::Join(
                                       conn->assign_locations[0], ","))
                     << ")";
    }
    if (!status.ok()) {
      LOG_MSG(kError) << "failed to resurrect " << conn->id << ": "
                      << status.ToString();
      TerminateConnectionLocked(conn, status.ToString());
    }
  }
}

Status CentralFeedManager::RebuildTailLocked(
    ConnectionInfo* conn,
    const std::map<std::string, std::string>& substitutions,
    int new_compute_width) {
  // Handoff: intake instances save their buffered/unread frames as
  // zombie state and exit; the revised pipeline's intakes take over.
  if (conn->tail_job != nullptr) {
    auto intakes = conn->tail_job->TasksOfOperator("intake");
    for (auto& task : intakes) {
      auto* node = cluster_->GetNode(task->node_id());
      if (node != nullptr && node->alive()) {
        task->Signal(FeedIntakeOperator::kSignalHandoff);
      }
    }
    common::Stopwatch watch;
    for (auto& task : intakes) {
      auto* node = cluster_->GetNode(task->node_id());
      if (node == nullptr || !node->alive()) continue;
      while (!task->finished() && watch.ElapsedMillis() < 3000) {
        common::SleepMillis(2);
      }
    }
    conn->tail_job->Abort();
    cluster_->ForgetJob(conn->tail_job->id());
    conn->tail_job = nullptr;
  }

  // Revised placement: apply the requested substitutions, then sweep for
  // any OTHER dead nodes (concurrent failures may land between events).
  auto substitute_all = [&](std::vector<std::string>* locations) {
    for (auto& loc : *locations) {
      auto it = substitutions.find(loc);
      if (it != substitutions.end()) loc = it->second;
      auto* node = cluster_->GetNode(loc);
      if (node == nullptr || !node->alive()) {
        std::set<std::string> avoid(locations->begin(), locations->end());
        std::string substitute = PickSubstituteLocked(avoid);
        if (!substitute.empty()) loc = substitute;
      }
    }
  };
  for (auto& stage : conn->assign_locations) substitute_all(&stage);
  if (new_compute_width != conn->compute_width) {
    conn->compute_width = std::max(1, new_compute_width);
    conn->assign_locations.clear();  // re-place at the new width
    conn->options.compute_locations.clear();
  }
  conn->metrics->ClearIntakeQueues();

  // Old compute joints are superseded by the rebuild.
  for (const std::string& jid : conn->exposed_joints) joints_.erase(jid);

  return BuildTailLocked(conn);
}

void CentralFeedManager::TerminateConnectionLocked(ConnectionInfo* conn,
                                                   const std::string& why) {
  if (conn->terminated) return;
  LOG_MSG(kWarn) << "terminating feed connection " << conn->id << ": "
                 << why;
  if (conn->tail_job != nullptr) {
    conn->tail_job->Abort();
    cluster_->ForgetJob(conn->tail_job->id());
  }
  for (const std::string& jid : conn->exposed_joints) {
    auto info = joints_.find(jid);
    if (info != joints_.end()) {
      for (size_t p = 0; p < info->second.locations.size(); ++p) {
        auto* node = cluster_->GetNode(info->second.locations[p]);
        if (node != nullptr && node->alive()) {
          FeedManager::Of(node)->UnregisterJoint(
              JointInstanceId(jid, static_cast<int>(p)));
        }
      }
      joints_.erase(info);
    }
  }
  conn->terminated = true;
  ReleaseHeadIfIdleLocked(conn->head_root);
}

// --- Chapter 7: the congestion monitor / Elastic policy ---------------------

void CentralFeedManager::StartMonitor(int64_t period_ms) {
  if (monitoring_.exchange(true)) return;
  monitor_thread_ =
      std::thread([this, period_ms] { MonitorLoop(period_ms); });
}

void CentralFeedManager::StopMonitor() {
  if (!monitoring_.exchange(false)) return;
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

Status CentralFeedManager::Rescale(const std::string& feed,
                                   const std::string& dataset,
                                   int new_width) {
  common::MutexLock lock(mutex_);
  auto it = connections_.find(ConnId(feed, dataset));
  if (it == connections_.end() || it->second.terminated) {
    return Status::NotFound("no active connection for " +
                            ConnId(feed, dataset));
  }
  if (it->second.udf_chain.empty()) {
    return Status::FailedPrecondition(
        "connection has no compute stage to rescale");
  }
  return RebuildTailLocked(&it->second, {}, new_width);
}

void CentralFeedManager::MonitorLoop(int64_t period_ms) {
  while (monitoring_.load()) {
    // One registry snapshot per tick, taken BEFORE mutex_: Snapshot()
    // evaluates the connection providers, which walk intake queues under
    // their own locks. The decision itself is pure
    // (policy.h::EvaluateElastic) and unit-testable against a synthetic
    // snapshot.
    common::MetricsSnapshot snap =
        common::MetricsRegistry::Default().Snapshot();
    {
      common::MutexLock lock(mutex_);
      for (auto& [id, conn] : connections_) {
        if (conn.terminated || conn.store_detached ||
            conn.udf_chain.empty()) {
          continue;
        }
        CongestionSignals signals;
        signals.intake_pending_bytes =
            snap.GaugeValue("feed_intake_pending_bytes",
                            {{"connection", id}});
        signals.compute_width = conn.compute_width;
        signals.initial_compute_width = conn.initial_compute_width;
        signals.alive_nodes =
            static_cast<int>(cluster_->AliveNodeIds().size());
        ScaleDecision decision =
            EvaluateElastic(signals, conn.policy, &conn.congestion);
        switch (decision) {
          case ScaleDecision::kScaleOut:
          case ScaleDecision::kScaleIn: {
            int new_width = conn.compute_width +
                (decision == ScaleDecision::kScaleOut ? 1 : -1);
            LOG_MSG(kInfo) << "elastic "
                           << (decision == ScaleDecision::kScaleOut
                                   ? "scale-out"
                                   : "scale-in")
                           << " of " << id << " to width " << new_width;
            Status rebuild_status = RebuildTailLocked(&conn, {}, new_width);
            if (!rebuild_status.ok()) {
              // The old tail is still running at the old width; the
              // monitor retries on a later evaluation when the signals
              // still warrant it.
              LOG_MSG(kWarn) << "elastic rescale of " << id << " failed: "
                             << rebuild_status.message();
            }
            break;
          }
          case ScaleDecision::kNone:
            break;
        }
      }
    }
    common::SleepMillis(period_ms);
  }
}

}  // namespace feeds
}  // namespace asterix
