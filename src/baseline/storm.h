// A miniature Storm stand-in: spout/bolt topologies run by a local
// cluster with shuffle/fields groupings, an acker tracking each spout
// tuple's derivation tree, max-spout-pending flow control, and
// timeout-driven replay — the at-least-once machinery a Storm user pairs
// with an external store. Used to reproduce the Chapter 7 comparison of
// AsterixDB against a 'glued' Storm+MongoDB assembly.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace baseline {
namespace storm {

/// Receives tuples a bolt emits while executing an input tuple; emitted
/// tuples are anchored to the input's spout tuple for ack tracking.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(adm::Value tuple) = 0;
};

class Spout {
 public:
  virtual ~Spout() = default;
  /// Next tuple, or nullopt when nothing is pending right now.
  /// `tuple_id` is the message id the cluster will track the tuple tree
  /// under; a reliable spout records (tuple_id -> tuple) so Fail() can
  /// replay (Storm's emit-with-message-id).
  virtual std::optional<adm::Value> NextTuple(int64_t tuple_id) = 0;
  /// The tuple tree rooted at `tuple_id` completed fully.
  virtual void Ack(int64_t tuple_id) { (void)tuple_id; }
  /// The tree timed out or failed; a reliable spout replays.
  virtual void Fail(int64_t tuple_id) { (void)tuple_id; }
  /// True when the source is permanently exhausted.
  virtual bool Exhausted() const { return false; }
};

class Bolt {
 public:
  virtual ~Bolt() = default;
  [[nodiscard]] virtual common::Status Prepare() { return common::Status::OK(); }
  /// Processes one tuple, emitting any derived tuples via `emitter`.
  [[nodiscard]] virtual common::Status Execute(const adm::Value& tuple,
                                 Emitter* emitter) = 0;
};

using BoltFactory = std::function<std::unique_ptr<Bolt>(int task)>;
using SpoutFactory = std::function<std::unique_ptr<Spout>(int task)>;

enum class Grouping { kShuffle, kFields };

struct BoltDef {
  std::string name;
  BoltFactory factory;
  int parallelism = 1;
  Grouping grouping = Grouping::kShuffle;
  /// For kFields: extracts the grouping key.
  std::function<std::string(const adm::Value&)> key_extractor;
};

/// A linear topology: spout -> bolt -> bolt -> ...
struct TopologyDef {
  std::string name;
  SpoutFactory spout;
  int spout_parallelism = 1;
  std::vector<BoltDef> bolts;
  /// Flow control: max unacked spout tuples per spout task.
  int max_spout_pending = 1024;
  /// Tuple-tree timeout before Fail/replay.
  int64_t message_timeout_ms = 3000;
  /// Per-bolt-task input queue bound (rounded up to a power of two); a
  /// full queue blocks the emitting spout or bolt.
  size_t task_queue_capacity = 256;
};

struct TopologyStats {
  std::atomic<int64_t> emitted{0};
  std::atomic<int64_t> acked{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> executed{0};
};

/// Runs one topology on local threads (Storm's LocalCluster).
class LocalCluster {
 public:
  LocalCluster();
  ~LocalCluster();

  [[nodiscard]] common::Status Submit(TopologyDef topology);
  /// Stops all executors (processes in-flight tuples best-effort).
  void Shutdown();
  /// Waits until every spout is exhausted and all trees completed, or
  /// timeout. Returns true when fully drained.
  bool WaitUntilDrained(int64_t timeout_ms);

  const TopologyStats& stats() const { return stats_; }
  int64_t pending_trees() const;

 private:
  struct Envelope {
    adm::Value tuple;
    int64_t root_id;  // spout tuple id this derives from
  };
  struct BoltTask;
  struct SpoutTask;

  class Acker {
   public:
    /// (root id, owning spout task) pair.
    using Completion = std::pair<int64_t, int>;

    void Register(int64_t root_id, int64_t timeout_at_ms, int spout_task);
    void Delta(int64_t root_id, int64_t delta,
               std::vector<Completion>* completed);
    std::vector<Completion> TakeExpired(int64_t now_ms);
    int64_t pending() const;

   private:
    mutable common::Mutex mutex_{common::LockRank::kStormAcker};
    struct Tree {
      int64_t count = 0;
      int64_t timeout_at_ms = 0;
      int spout_task = 0;
    };
    std::map<int64_t, Tree> trees_ GUARDED_BY(mutex_);
  };

  void SpoutLoop(SpoutTask* task);
  void BoltLoop(BoltTask* task, size_t bolt_index);
  void TimeoutLoop();
  void Route(size_t bolt_index, Envelope envelope);

  TopologyDef topology_;
  TopologyStats stats_;
  Acker acker_;
  std::atomic<bool> running_{false};
  std::atomic<int64_t> next_tuple_id_{1};

  std::vector<std::unique_ptr<SpoutTask>> spout_tasks_;
  /// bolt_tasks_[bolt_index][task]
  std::vector<std::vector<std::unique_ptr<BoltTask>>> bolt_tasks_;
  std::vector<std::thread> threads_;
  std::atomic<size_t> shuffle_counter_{0};
};

}  // namespace storm
}  // namespace baseline
}  // namespace asterix

