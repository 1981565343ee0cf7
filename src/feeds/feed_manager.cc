#include "common/thread_annotations.h"
#include "feeds/feed_manager.h"

namespace asterix {
namespace feeds {

std::shared_ptr<FeedManager> FeedManager::Of(
    hyracks::NodeController* node) {
  return std::static_pointer_cast<FeedManager>(node->GetOrSetService(
      kServiceName, [node]() -> std::shared_ptr<void> {
        return std::make_shared<FeedManager>(node->id());
      }));
}

void FeedManager::RegisterJoint(std::shared_ptr<FeedJoint> joint) {
  common::MutexLock lock(mutex_);
  joints_[joint->id()] = std::move(joint);
}

std::shared_ptr<FeedJoint> FeedManager::LookupJoint(
    const std::string& id) const {
  common::MutexLock lock(mutex_);
  auto it = joints_.find(id);
  return it == joints_.end() ? nullptr : it->second;
}

void FeedManager::UnregisterJoint(const std::string& id) {
  common::MutexLock lock(mutex_);
  joints_.erase(id);
}

std::vector<std::string> FeedManager::JointIds() const {
  common::MutexLock lock(mutex_);
  std::vector<std::string> ids;
  for (const auto& [id, joint] : joints_) ids.push_back(id);
  return ids;
}

void FeedManager::SaveIntakeHandoff(const std::string& key,
                                    IntakeHandoff handoff) {
  common::MutexLock lock(mutex_);
  handoffs_[key] = std::move(handoff);
}

std::optional<FeedManager::IntakeHandoff> FeedManager::TakeIntakeHandoff(
    const std::string& key) {
  common::MutexLock lock(mutex_);
  auto it = handoffs_.find(key);
  if (it == handoffs_.end()) return std::nullopt;
  IntakeHandoff handoff = std::move(it->second);
  handoffs_.erase(it);
  return handoff;
}

bool FeedManager::HasIntakeHandoff(const std::string& key) const {
  common::MutexLock lock(mutex_);
  return handoffs_.count(key) > 0;
}

void FeedManager::SaveZombieState(const std::string& key,
                                  std::vector<hyracks::FramePtr> frames) {
  common::MutexLock lock(mutex_);
  auto& slot = zombie_state_[key];
  for (auto& frame : frames) slot.push_back(std::move(frame));
}

std::vector<hyracks::FramePtr> FeedManager::TakeZombieState(
    const std::string& key) {
  common::MutexLock lock(mutex_);
  auto it = zombie_state_.find(key);
  if (it == zombie_state_.end()) return {};
  std::vector<hyracks::FramePtr> frames = std::move(it->second);
  zombie_state_.erase(it);
  return frames;
}

size_t FeedManager::zombie_state_count() const {
  common::MutexLock lock(mutex_);
  return zombie_state_.size();
}

}  // namespace feeds
}  // namespace asterix
