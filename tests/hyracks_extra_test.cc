// Additional engine tests: multi-out-edge DAGs (broadcast), freeze/drain
// semantics, output interception, queue-depth observability, node
// services, and scheduling behaviours the feed layer relies on.
#include <array>
#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;
using common::Status;

std::vector<Value> MakeRecords(int n, int start = 0) {
  std::vector<Value> records;
  for (int i = start; i < start + n; ++i) {
    records.push_back(
        Value::Record({{"id", Value::String("r" + std::to_string(i))},
                       {"n", Value::Int64(i)}}));
  }
  return records;
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.storage_root =
        "/tmp/asterix_test/hyx_" + std::to_string(common::NowMicros());
    options.heartbeat_period_ms = 10;
    options.heartbeat_timeout_ms = 80;
    options.monitor_period_ms = 10;
    cluster_ = std::make_unique<ClusterController>(options);
    for (const char* id : {"A", "B"}) cluster_->AddNode(id);
    cluster_->Start();
  }
  std::unique_ptr<ClusterController> cluster_;
};

TEST_F(EngineFixture, MultiOutEdgeBroadcastsToBothConsumers) {
  auto sink1 = std::make_shared<CollectSinkOperator::Shared>();
  auto sink2 = std::make_shared<CollectSinkOperator::Shared>();
  JobSpec spec;
  spec.name = "dag";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(40));
       },
       ""});
  int s1 = spec.AddOperator(
      {"sink1",
       {{}, 1},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink1); },
       ""});
  int s2 = spec.AddOperator(
      {"sink2",
       {{}, 1},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink2); },
       ""});
  spec.Connect(src, s1, {ConnectorKind::kOneToOne, nullptr});
  spec.Connect(src, s2, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(sink1->size(), 40u);
  EXPECT_EQ(sink2->size(), 40u);
}

TEST_F(EngineFixture, OutputInterceptorSeesDeclaredJoints) {
  std::atomic<int> intercepted{0};
  std::string seen_joint;
  std::mutex mutex;
  JobSpec spec;
  spec.name = "intercept";
  spec.output_interceptor =
      [&](const std::string& joint_id,
          std::shared_ptr<IFrameWriter> downstream,
          TaskContext* ctx) -> std::shared_ptr<IFrameWriter> {
    ++intercepted;
    std::lock_guard<std::mutex> lock(mutex);
    seen_joint = joint_id + "#" + std::to_string(ctx->partition());
    return downstream;  // pass-through
  };
  auto sink = std::make_shared<CollectSinkOperator::Shared>();
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(5));
       },
       "MyFeed"});  // declares a joint
  int snk = spec.AddOperator(
      {"sink",
       {{}, 1},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink); },
       ""});  // no joint -> no interception
  spec.Connect(src, snk, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(intercepted.load(), 1);
  EXPECT_EQ(seen_joint, "MyFeed#0");
  EXPECT_EQ(sink->size(), 5u);  // pass-through kept the data flowing
}

TEST_F(EngineFixture, FreezeAndDrainCapturesUnprocessedFrames) {
  // A consumer that blocks forever: everything stays in its queue.
  class StuckOperator : public Operator {
   public:
    Status ProcessFrame(const FramePtr&, TaskContext* ctx) override {
      while (!ctx->ShouldStop()) common::SleepMillis(1);
      return Status::OK();
    }
  };
  JobSpec spec;
  spec.name = "freeze";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(
             MakeRecords(100), /*frame_records=*/10);
       },
       ""});
  int stuck = spec.AddOperator(
      {"stuck", {{}, 1},
       [&](int) { return std::make_unique<StuckOperator>(); }, ""});
  spec.Connect(src, stuck, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  auto tasks = (*job)->TasksOfOperator("stuck");
  ASSERT_EQ(tasks.size(), 1u);
  // Wait until frames have queued up behind the stuck task.
  common::Stopwatch watch;
  while (tasks[0]->queue_depth() < 5 && watch.ElapsedMillis() < 3000) {
    common::SleepMillis(5);
  }
  EXPECT_GE(tasks[0]->queue_depth(), 5u);
  auto frames = tasks[0]->FreezeAndDrain();
  // 10 frames were produced; one may be in-flight inside ProcessFrame.
  EXPECT_GE(frames.size(), 5u);
  EXPECT_LE(frames.size(), 10u);
  size_t records = 0;
  for (const auto& msg : frames) records += msg.frame->record_count();
  EXPECT_GE(records, 50u);
  (*job)->Abort();
}

// Regression for the batched-pump / freeze race: the pump pops whole
// batches (PopAll) and FreezeAndDrain can land mid-batch, so frames live
// in three places — the queue, the in-flight batch tail, the operator.
// Invariant: every frame Enqueue accepted ends up either processed by the
// operator or reclaimed by the freeze, exactly once; nothing is lost and
// nothing is double-delivered.
TEST_F(EngineFixture, FreezeAndDrainConservesFramesUnderConcurrentProducers) {
  class RecordingOperator : public Operator {
   public:
    Status ProcessFrame(const FramePtr& frame, TaskContext*) override {
      for (const Value& record : frame->records()) {
        processed.push_back(record.GetField("n")->AsInt64());
      }
      common::SleepMillis(1);  // widen the mid-batch window
      return Status::OK();
    }
    std::vector<int64_t> processed;  // pump thread only; read after Join
  };
  constexpr int kProducers = 4;
  constexpr int kFramesEach = 50;

  for (int round = 0; round < 12; ++round) {
    auto op = std::make_unique<RecordingOperator>();
    RecordingOperator* recorder = op.get();
    auto task = std::make_shared<Task>(
        /*job_id=*/1, "race", /*partition=*/0, /*partition_count=*/1,
        cluster_->GetNode("A"), std::move(op), /*queue_capacity=*/8);
    task->SetOutput(std::make_shared<NullWriter>());
    task->SetExpectedProducers(kProducers);
    task->Start();

    std::array<std::vector<int64_t>, kProducers> accepted;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int f = 0; f < kFramesEach; ++f) {
          int64_t id = p * kFramesEach + f;
          if (task->Enqueue(FrameMessage::Data(MakeFrame(
                  {Value::Record({{"n", Value::Int64(id)}})})))) {
            accepted[p].push_back(id);
          }
        }
      });
    }
    common::SleepMillis(round % 5);  // vary where the freeze lands
    std::vector<FrameMessage> reclaimed = task->FreezeAndDrain();
    for (auto& producer : producers) producer.join();

    std::set<int64_t> seen;
    for (int64_t id : recorder->processed) {
      EXPECT_TRUE(seen.insert(id).second)
          << "round " << round << ": id " << id << " processed twice";
    }
    for (const auto& msg : reclaimed) {
      for (const Value& record : msg.frame->records()) {
        int64_t id = record.GetField("n")->AsInt64();
        EXPECT_TRUE(seen.insert(id).second)
            << "round " << round << ": id " << id
            << " both processed and reclaimed";
      }
    }
    std::set<int64_t> accepted_ids;
    for (const auto& ids : accepted) {
      accepted_ids.insert(ids.begin(), ids.end());
    }
    EXPECT_EQ(seen, accepted_ids) << "round " << round;
  }
}

// The same conservation law at the queue level: PopAllFor racing TryPush
// from several producers, with a Close cutting in. accepted == drained.
TEST(MpmcQueueRaceTest, PopAllForAndCloseConserveItems) {
  for (int round = 0; round < 30; ++round) {
    common::MpmcQueue<int> queue(16);
    std::atomic<int64_t> accepted{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        while (!stop.load()) {
          if (queue.TryPush(1)) accepted.fetch_add(1);
        }
      });
    }
    int64_t drained = 0;
    for (int i = 0; i < 20; ++i) {
      drained += static_cast<int64_t>(
          queue.PopAllFor(std::chrono::milliseconds(1)).size());
    }
    queue.Close();  // a TryPush already past its closed() check may land
    stop.store(true);
    for (auto& producer : producers) producer.join();
    EXPECT_FALSE(queue.TryPush(1));
    drained += static_cast<int64_t>(queue.TryPopAll().size());
    EXPECT_EQ(drained, accepted.load()) << "round " << round;
  }
}

TEST_F(EngineFixture, SignalsRouteToNamedOperators) {
  class SignalSink : public Operator {
   public:
    explicit SignalSink(std::shared_ptr<std::atomic<int>> count)
        : count_(std::move(count)) {}
    Status ProcessFrame(const FramePtr&, TaskContext*) override {
      return Status::OK();
    }
    void OnSignal(const std::string& signal) override {
      if (signal == "ping") count_->fetch_add(1);
    }

   private:
    std::shared_ptr<std::atomic<int>> count_;
  };
  auto count = std::make_shared<std::atomic<int>>(0);
  JobSpec spec;
  spec.name = "signals";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(1));
       },
       ""});
  int snk = spec.AddOperator(
      {"sink", {{}, 2},
       [&](int) { return std::make_unique<SignalSink>(count); }, ""});
  spec.Connect(src, snk, {ConnectorKind::kMToNRandom, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  for (auto& task : (*job)->TasksOfOperator("sink")) {
    task->Signal("ping");
    task->Signal("ignored");
  }
  EXPECT_EQ(count->load(), 2);
  ASSERT_TRUE((*job)->Wait(5000));
}

TEST_F(EngineFixture, GetOrSetServiceIsIdempotent) {
  NodeController* node = cluster_->GetNode("A");
  auto first = node->GetOrSetService("svc", [] {
    return std::make_shared<int>(1);
  });
  auto second = node->GetOrSetService("svc", [] {
    return std::make_shared<int>(2);
  });
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(*std::static_pointer_cast<int>(second), 1);
}

TEST_F(EngineFixture, ElasticNodeAdditionSchedulesNewWork) {
  // Nodes added mid-session are schedulable (cluster-level elasticity).
  cluster_->AddNode("C");
  auto sink = std::make_shared<CollectSinkOperator::Shared>();
  JobSpec spec;
  spec.name = "on-c";
  int src = spec.AddOperator(
      {"source",
       {{"C"}, 0},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(10));
       },
       ""});
  int snk = spec.AddOperator(
      {"sink", {{"C"}, 0},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink); },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(sink->size(), 10u);
}

TEST_F(EngineFixture, RestartedNodeHostsFreshTasks) {
  cluster_->KillNode("B");
  common::SleepMillis(150);  // detection
  cluster_->RestartNode("B");
  auto sink = std::make_shared<CollectSinkOperator::Shared>();
  JobSpec spec;
  spec.name = "revived";
  int src = spec.AddOperator(
      {"source",
       {{"B"}, 0},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(7));
       },
       ""});
  int snk = spec.AddOperator(
      {"sink", {{"B"}, 0},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink); },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(sink->size(), 7u);
}

TEST_F(EngineFixture, FailingOperatorFailsTheJobNotTheProcess) {
  class FailingOperator : public Operator {
   public:
    Status ProcessFrame(const FramePtr&, TaskContext*) override {
      throw std::runtime_error("plain hyracks jobs are non-resumable");
    }
  };
  JobSpec spec;
  spec.name = "fails";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(5));
       },
       ""});
  int bad = spec.AddOperator(
      {"bad", {{}, 1},
       [&](int) { return std::make_unique<FailingOperator>(); }, ""});
  spec.Connect(src, bad, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  bool some_task_failed = false;
  for (const auto& group : (*job)->tasks()) {
    for (const auto& task : group) {
      if (!task->final_status().ok()) some_task_failed = true;
    }
  }
  EXPECT_TRUE(some_task_failed);
}

TEST_F(EngineFixture, HashRouterGroupsWholeFramesByKey) {
  // Records with the same key always land on the same store partition,
  // even when interleaved across many frames.
  storage::DatasetDef def;
  def.name = "K";
  def.datatype = "any";
  def.primary_key_field = "id";
  int p = 0;
  for (NodeController* node : cluster_->AliveNodes()) {
    ASSERT_TRUE(node->storage().CreatePartition(def, p++, nullptr).ok());
  }
  JobSpec spec;
  spec.name = "hash-group";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         // 100 records over 10 distinct keys.
         std::vector<Value> records;
         for (int i = 0; i < 100; ++i) {
           records.push_back(Value::Record(
               {{"id", Value::String("k" + std::to_string(i % 10))},
                {"v", Value::Int64(i)}}));
         }
         return std::make_unique<VectorSourceOperator>(
             std::move(records), /*frame_records=*/7);
       },
       ""});
  int store = spec.AddOperator(
      {"store",
       {{"A", "B"}, 0},
       [&](int) { return std::make_unique<IndexInsertOperator>("K"); },
       ""});
  spec.Connect(src, store,
               {ConnectorKind::kMToNHash, [](const Value& r) {
                  return r.GetField("id")->AsString();
                }});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  // Upserts per key: 10 distinct keys total across the two partitions,
  // and no key appears on both partitions.
  std::set<std::string> keys_a, keys_b;
  cluster_->GetNode("A")->storage().GetPartition("K")->Scan(
      [&](const Value& r) { keys_a.insert(r.GetField("id")->AsString()); });
  cluster_->GetNode("B")->storage().GetPartition("K")->Scan(
      [&](const Value& r) { keys_b.insert(r.GetField("id")->AsString()); });
  EXPECT_EQ(keys_a.size() + keys_b.size(), 10u);
  for (const std::string& key : keys_a) {
    EXPECT_EQ(keys_b.count(key), 0u);
  }
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
