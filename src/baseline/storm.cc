#include "baseline/storm.h"
#include "common/thread_annotations.h"

#include "common/clock.h"
#include "common/logging.h"
#include "common/mpmc_queue.h"
#include "common/strings.h"

namespace asterix {
namespace baseline {
namespace storm {

using common::Status;

struct LocalCluster::SpoutTask {
  int task_id = 0;
  std::unique_ptr<Spout> spout;
  std::atomic<int64_t> pending{0};
  std::atomic<bool> exhausted{false};
};

struct LocalCluster::BoltTask {
  int task_id = 0;
  std::unique_ptr<Bolt> bolt;
  common::MpmcQueue<Envelope> queue;

  explicit BoltTask(size_t capacity) : queue(capacity) {}
};

void LocalCluster::Acker::Register(int64_t root_id, int64_t timeout_at_ms,
                                   int spout_task) {
  common::MutexLock lock(mutex_);
  trees_[root_id] = Tree{1, timeout_at_ms, spout_task};
}

void LocalCluster::Acker::Delta(int64_t root_id, int64_t delta,
                                std::vector<Completion>* completed) {
  common::MutexLock lock(mutex_);
  auto it = trees_.find(root_id);
  if (it == trees_.end()) return;  // already failed/timed out
  it->second.count += delta;
  if (it->second.count <= 0) {
    completed->emplace_back(root_id, it->second.spout_task);
    trees_.erase(it);
  }
}

std::vector<LocalCluster::Acker::Completion>
LocalCluster::Acker::TakeExpired(int64_t now_ms) {
  common::MutexLock lock(mutex_);
  std::vector<Completion> expired;
  for (auto it = trees_.begin(); it != trees_.end();) {
    if (it->second.timeout_at_ms <= now_ms) {
      expired.emplace_back(it->first, it->second.spout_task);
      it = trees_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

int64_t LocalCluster::Acker::pending() const {
  common::MutexLock lock(mutex_);
  return static_cast<int64_t>(trees_.size());
}

LocalCluster::LocalCluster() = default;

LocalCluster::~LocalCluster() { Shutdown(); }

Status LocalCluster::Submit(TopologyDef topology) {
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("a topology is already running");
  }
  topology_ = std::move(topology);
  if (!topology_.spout) {
    return Status::InvalidArgument("topology needs a spout");
  }

  for (int t = 0; t < topology_.spout_parallelism; ++t) {
    auto task = std::make_unique<SpoutTask>();
    task->task_id = t;
    task->spout = topology_.spout(t);
    spout_tasks_.push_back(std::move(task));
  }
  bolt_tasks_.resize(topology_.bolts.size());
  for (size_t b = 0; b < topology_.bolts.size(); ++b) {
    for (int t = 0; t < topology_.bolts[b].parallelism; ++t) {
      auto task =
          std::make_unique<BoltTask>(topology_.task_queue_capacity);
      task->task_id = t;
      task->bolt = topology_.bolts[b].factory(t);
      RETURN_IF_ERROR(task->bolt->Prepare());
      bolt_tasks_[b].push_back(std::move(task));
    }
  }

  for (auto& task : spout_tasks_) {
    threads_.emplace_back([this, t = task.get()] { SpoutLoop(t); });
  }
  for (size_t b = 0; b < bolt_tasks_.size(); ++b) {
    for (auto& task : bolt_tasks_[b]) {
      threads_.emplace_back(
          [this, t = task.get(), b] { BoltLoop(t, b); });
    }
  }
  threads_.emplace_back([this] { TimeoutLoop(); });
  return Status::OK();
}

void LocalCluster::Shutdown() {
  if (!running_.exchange(false)) return;
  for (auto& group : bolt_tasks_) {
    for (auto& task : group) task->queue.Close();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

bool LocalCluster::WaitUntilDrained(int64_t timeout_ms) {
  common::Stopwatch watch;
  while (watch.ElapsedMillis() < timeout_ms) {
    bool exhausted = true;
    for (const auto& task : spout_tasks_) {
      if (!task->exhausted.load()) exhausted = false;
    }
    if (exhausted && acker_.pending() == 0) return true;
    common::SleepMillis(5);
  }
  return false;
}

int64_t LocalCluster::pending_trees() const { return acker_.pending(); }

void LocalCluster::Route(size_t bolt_index, Envelope envelope) {
  auto& group = bolt_tasks_[bolt_index];
  const BoltDef& def = topology_.bolts[bolt_index];
  size_t target;
  if (def.grouping == Grouping::kFields && def.key_extractor) {
    target = common::Fnv1a(def.key_extractor(envelope.tuple)) %
             group.size();
  } else {
    target = shuffle_counter_.fetch_add(1) % group.size();
  }
  group[target]->queue.Push(std::move(envelope));
}

void LocalCluster::SpoutLoop(SpoutTask* task) {
  while (running_.load()) {
    if (task->pending.load() >= topology_.max_spout_pending) {
      common::SleepMillis(1);
      continue;
    }
    int64_t id = next_tuple_id_.fetch_add(1);
    auto tuple = task->spout->NextTuple(id);
    if (!tuple.has_value()) {
      if (task->spout->Exhausted() && task->pending.load() == 0) {
        task->exhausted.store(true);
      }
      common::SleepMillis(1);
      continue;
    }
    task->exhausted.store(false);
    acker_.Register(id,
                    common::NowMillis() + topology_.message_timeout_ms,
                    task->task_id);
    task->pending.fetch_add(1);
    stats_.emitted.fetch_add(1);
    if (bolt_tasks_.empty()) {
      // Degenerate topology: ack immediately.
      std::vector<Acker::Completion> done;
      acker_.Delta(id, -1, &done);
      for (const auto& [root, owner] : done) {
        task->spout->Ack(root);
        task->pending.fetch_sub(1);
        stats_.acked.fetch_add(1);
      }
    } else {
      Route(0, Envelope{std::move(*tuple), id});
    }
  }
}

void LocalCluster::BoltLoop(BoltTask* task, size_t bolt_index) {
  const bool is_last = bolt_index + 1 >= bolt_tasks_.size();

  class BoltEmitter : public Emitter {
   public:
    BoltEmitter(LocalCluster* cluster, size_t next_index, int64_t root,
                bool terminal)
        : cluster_(cluster), next_index_(next_index), root_(root),
          terminal_(terminal) {}
    void Emit(adm::Value tuple) override {
      if (terminal_) return;  // emissions past the last bolt are dropped
      std::vector<Acker::Completion> done;
      cluster_->acker_.Delta(root_, +1, &done);
      cluster_->Route(next_index_, Envelope{std::move(tuple), root_});
    }

   private:
    LocalCluster* cluster_;
    size_t next_index_;
    int64_t root_;
    bool terminal_;
  };

  while (true) {
    auto envelope = task->queue.Pop();
    if (!envelope.has_value()) return;  // closed + drained
    stats_.executed.fetch_add(1);
    BoltEmitter emitter(this, bolt_index + 1, envelope->root_id,
                        is_last);
    Status status = task->bolt->Execute(envelope->tuple, &emitter);
    std::vector<Acker::Completion> done;
    if (status.ok()) {
      acker_.Delta(envelope->root_id, -1, &done);
      for (const auto& [root, owner] : done) {
        spout_tasks_[owner]->spout->Ack(root);
        spout_tasks_[owner]->pending.fetch_sub(1);
        stats_.acked.fetch_add(1);
      }
    } else {
      // Failed execution fails the whole tree: remove and Fail at the
      // spout, which replays (at-least-once).
      acker_.Delta(envelope->root_id, -(1LL << 40), &done);
      for (const auto& [root, owner] : done) {
        spout_tasks_[owner]->spout->Fail(root);
        spout_tasks_[owner]->pending.fetch_sub(1);
        stats_.failed.fetch_add(1);
      }
    }
  }
}

void LocalCluster::TimeoutLoop() {
  while (running_.load()) {
    for (const auto& [root, owner] :
         acker_.TakeExpired(common::NowMillis())) {
      spout_tasks_[owner]->spout->Fail(root);
      spout_tasks_[owner]->pending.fetch_sub(1);
      stats_.failed.fetch_add(1);
    }
    common::SleepMillis(20);
  }
}

}  // namespace storm
}  // namespace baseline
}  // namespace asterix
