// Per-node Feed Manager (§5.4): holds the runtime metadata of a node's
// active feed components — the available feed joints (discoverable via
// the search API used by co-located intake operators) and the saved state
// of zombie instances awaiting pipeline resurrection (§6.2.2).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "feeds/joint.h"
#include "hyracks/node.h"

namespace asterix {
namespace feeds {

class FeedManager {
 public:
  explicit FeedManager(std::string node_id) : node_id_(std::move(node_id)) {}

  /// The node-local service name under which the manager registers.
  static constexpr const char* kServiceName = "feed_manager";

  /// Finds (or installs) the FeedManager of a node.
  static std::shared_ptr<FeedManager> Of(hyracks::NodeController* node);

  const std::string& node_id() const { return node_id_; }

  // --- joint registry (the "search API") ---
  void RegisterJoint(std::shared_ptr<FeedJoint> joint);
  std::shared_ptr<FeedJoint> LookupJoint(const std::string& id) const;
  void UnregisterJoint(const std::string& id);
  std::vector<std::string> JointIds() const;

  // --- intake buffer handoff (fault-tolerance protocol, §6.2.3) ---
  /// A still-subscribed subscriber queue being handed from a terminating
  /// intake instance to its successor, which "takes ownership of the
  /// input buffer used by the alive instance from the previous
  /// execution". The joint pointer identifies which producer the queue
  /// is subscribed to: the successor adopts the queue only if that joint
  /// is still the live one.
  struct IntakeHandoff {
    std::shared_ptr<FeedJoint> joint;
    std::shared_ptr<SubscriberQueue> queue;
  };
  void SaveIntakeHandoff(const std::string& key, IntakeHandoff handoff);
  std::optional<IntakeHandoff> TakeIntakeHandoff(const std::string& key);
  bool HasIntakeHandoff(const std::string& key) const;

  // --- zombie state (fault-tolerance protocol) ---
  /// Saves the unprocessed input frames of a zombie instance under `key`
  /// ("<connection>:<operator>:<partition>").
  void SaveZombieState(const std::string& key,
                       std::vector<hyracks::FramePtr> frames);
  /// Retrieves-and-removes saved state; empty when none.
  std::vector<hyracks::FramePtr> TakeZombieState(const std::string& key);
  size_t zombie_state_count() const;

 private:
  const std::string node_id_;
  mutable common::Mutex mutex_{common::LockRank::kFeedManager};
  std::map<std::string, std::shared_ptr<FeedJoint>> joints_
      GUARDED_BY(mutex_);
  std::map<std::string, std::vector<hyracks::FramePtr>> zombie_state_
      GUARDED_BY(mutex_);
  std::map<std::string, IntakeHandoff> handoffs_ GUARDED_BY(mutex_);
};

}  // namespace feeds
}  // namespace asterix

