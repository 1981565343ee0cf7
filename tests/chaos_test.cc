// Chaos suite: scripted fault timelines injected through the FailPoint
// registry, asserting the paper's ingestion-fault-tolerance invariants —
// no lost records under at-least-once (§5.6), skip-bound enforcement
// (§6.1), bounded replay, and clean zombie→alive transitions (§6.2) —
// without killing a single process. Every scenario is deterministic for a
// fixed seed; the randomized soak prints its seed on failure so a red run
// reproduces exactly.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "asterix/asterix.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "feeds/trace.h"
#include "feeds/udf.h"
#include "gen/tweetgen.h"
#include "testing_util.h"

namespace asterix {
namespace {

using asterix::testing::FastOptions;
using asterix::testing::TweetsDataset;
using asterix::testing::WaitFor;
using common::ChaosSchedule;
using common::FailPointPolicy;
using common::FailPointRegistry;
using common::Status;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!common::kFailPointsCompiledIn) {
      GTEST_SKIP() << "built with ASTERIX_FAILPOINTS=OFF";
    }
    FailPointRegistry::Instance().DisarmAll();
    db_ = std::make_unique<AsterixInstance>(FastOptions(6));  // A..F
    ASSERT_TRUE(db_->Start().ok());
  }
  void TearDown() override { FailPointRegistry::Instance().DisarmAll(); }

  /// A socket feed with a hashtag UDF, storing into "Sink" on
  /// `store_nodes` — same topology the fault-tolerance suite uses.
  void SetupFeed(const std::string& source_addr, gen::Channel* channel,
                 std::vector<std::string> store_nodes) {
    feeds::ExternalSourceRegistry::Instance().RegisterChannel(source_addr,
                                                              channel);
    ASSERT_TRUE(
        db_->CreateDataset(TweetsDataset("Sink", std::move(store_nodes)))
            .ok());
    ASSERT_TRUE(
        db_->InstallUdf(feeds::AqlUdf::ExtractHashtags("tags")).ok());
    feeds::FeedDef primary;
    primary.name = "Feed";
    primary.adaptor_alias = "socket_adaptor";
    primary.adaptor_config = {{"sockets", source_addr}};
    primary.udf = "tags";
    ASSERT_TRUE(db_->CreateFeed(primary).ok());
  }

  int64_t SinkCount() { return db_->CountDataset("Sink").value(); }

  /// Fixture-owned generator: declared before db_ so the channel outlives
  /// the instance — collect tasks may still poll it during teardown.
  gen::TweetGenServer& NewSource(uint64_t seed, gen::Pattern pattern) {
    sources_.push_back(
        std::make_unique<gen::TweetGenServer>(seed, std::move(pattern)));
    return *sources_.back();
  }

  std::vector<std::unique_ptr<gen::TweetGenServer>> sources_;
  std::unique_ptr<AsterixInstance> db_;
};

// Transient source faults: the adaptor's fetch fails every 7th pass; the
// collect stage reconnects and resumes. The failpoint fires before any
// payload is drained, so recovery is lossless even under plain replay-free
// reconnect.
TEST_F(ChaosTest, AdaptorFetchFaultsRecoverLosslessly) {
  auto& source = NewSource(0, gen::Pattern::Constant(1500, 3000));
  SetupFeed("chaos:1", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "FaultTolerant").ok());

  auto& registry = FailPointRegistry::Instance();
  registry.Arm("feeds.adaptor.fetch",
               FailPointPolicy::Error(
                   Status::Unavailable("chaos: socket reset"))
                   .EveryNth(7));
  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_GT(sent, 1000);
  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 20000))
      << "sent=" << sent << " stored=" << SinkCount();
  EXPECT_GT(registry.Fires("feeds.adaptor.fetch"), 0);
  auto conn = db_->feed_manager().GetConnection("Feed", "Sink");
  ASSERT_TRUE(conn.ok());
  EXPECT_FALSE(conn->terminated);
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("chaos:1");
}

// Poison records: the UDF throws on every 3rd evaluation. A frame-level
// throw makes the MetaFeed sandbox reprocess the frame record-at-a-time;
// fires landing during that pass pin the blame on single records, which
// are skipped (soft failures), never acked, and replayed by the
// at-least-once protocol until a pass succeeds — so the dataset still
// converges to every record sent.
TEST_F(ChaosTest, PoisonRecordsAreSandboxedAndReplayed) {
  auto& source = NewSource(0, gen::Pattern::Constant(1500, 2500));
  SetupFeed("chaos:2", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "FaultTolerant").ok());

  FailPointRegistry::Instance().Arm(
      "feeds.udf.apply",
      FailPointPolicy::Throw("chaos: poison record").EveryNth(3));
  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 20000))
      << "sent=" << sent << " stored=" << SinkCount();
  auto metrics = db_->FeedMetrics("Feed", "Sink");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->soft_failures.load(), 0);
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("chaos:2");
}

// A UDF that throws on *every* record is a bug, not bad data: once the
// consecutive-soft-failure bound trips, the sandbox aborts the feed
// instead of skipping forever (§6.1's skip bound).
TEST_F(ChaosTest, SkipBoundTerminatesPoisonedFeed) {
  auto& source = NewSource(0, gen::Pattern::Constant(1000, 8000));
  SetupFeed("chaos:3", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->CreatePolicy("Poisoned", "Basic",
                                {{"max.consecutive.soft.failures", "8"}})
                  .ok());
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "Poisoned").ok());

  FailPointRegistry::Instance().Arm(
      "feeds.udf.apply", FailPointPolicy::Throw("chaos: total poison"));
  source.Start();
  ASSERT_TRUE(WaitFor(
      [&] { return !db_->feed_manager().IsConnected("Feed", "Sink"); },
      10000));
  source.Stop();
  source.Join();
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("chaos:3");
}

// Lost acks: every other grouped ack message vanishes on the bus. The
// pending ledger times the victims out and replays them; once acks flow
// again the replay traffic stops (bounded replay, not a livelock).
TEST_F(ChaosTest, DroppedAcksForceBoundedReplay) {
  auto& source = NewSource(0, gen::Pattern::Constant(1500, 2500));
  SetupFeed("chaos:4", &source.channel(), {"E", "F"});
  // Short ack timeout so replays happen within the test budget.
  ASSERT_TRUE(db_->CreatePolicy("Twitchy", "FaultTolerant",
                                {{"ack.timeout.ms", "300"}})
                  .ok());
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "Twitchy").ok());

  auto& registry = FailPointRegistry::Instance();
  registry.Arm("feeds.ack.publish",
               FailPointPolicy::Error(
                   Status::Unavailable("chaos: ack lost"))
                   .EveryNth(2));
  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 20000))
      << "sent=" << sent << " stored=" << SinkCount();
  auto metrics = db_->FeedMetrics("Feed", "Sink");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->records_replayed.load(), 0);

  // Restore the ack path and let the ledger drain: replay must quiesce.
  registry.Disarm("feeds.ack.publish");
  common::SleepMillis(1000);  // > 3x the 300ms ack timeout
  int64_t replayed = metrics->records_replayed.load();
  common::SleepMillis(500);
  EXPECT_EQ(metrics->records_replayed.load(), replayed);
  EXPECT_EQ(SinkCount(), sent);  // upsert-by-key absorbed every replay
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("chaos:4");
}

// Gray failure: the compute node stays up but its heartbeats stop
// arriving. The monitor declares it failed, the zombie protocol moves the
// compute stage to a substitute, and — because the "dead" node's tasks
// are frozen and drained, not lost — at-least-once recovery is lossless.
// Disarming mid-test models the node coming back clean.
TEST_F(ChaosTest, SilencedHeartbeatsTriggerSubstitution) {
  auto& source = NewSource(0, gen::Pattern::Constant(1500, 4000));
  SetupFeed("chaos:5", &source.channel(), {"E", "F"});
  // Pin the compute stage away from the intake node so the silenced node
  // hosts only compute work (pure compute-loss, Figure 6.3).
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "FaultTolerant",
                               {.compute_count = 1})
                  .ok());
  auto pre = db_->feed_manager().GetConnection("Feed", "Sink");
  ASSERT_TRUE(pre.ok());
  std::string intake_node = pre->intake_locations[0];
  ASSERT_TRUE(db_->DisconnectFeed("Feed", "Sink").ok());
  feeds::ConnectOptions copts;
  for (const char* node : {"A", "B", "C", "D"}) {
    if (node != intake_node && copts.compute_locations.empty()) {
      copts.compute_locations.push_back(node);
    }
  }
  ASSERT_TRUE(
      db_->ConnectFeed("Feed", "Sink", "FaultTolerant", copts).ok());
  auto conn = db_->feed_manager().GetConnection("Feed", "Sink");
  ASSERT_TRUE(conn.ok());
  std::string compute_node = conn->assign_locations[0][0];
  ASSERT_NE(compute_node, conn->intake_locations[0]);

  source.Start();
  ASSERT_TRUE(WaitFor([&] { return SinkCount() > 500; }, 5000));

  auto& registry = FailPointRegistry::Instance();
  registry.Arm("hyracks.node.heartbeat",
               FailPointPolicy::Error(
                   Status::Unavailable("chaos: heartbeats dropped"))
                   .OnInstance(compute_node));
  // The cluster substitutes the silenced node out of the pipeline.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto c = db_->feed_manager().GetConnection("Feed", "Sink");
        return c.ok() && !c->terminated &&
               c->assign_locations[0][0] != compute_node;
      },
      10000));
  registry.Disarm("hyracks.node.heartbeat");  // node comes back clean

  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 20000))
      << "sent=" << sent << " stored=" << SinkCount();
  conn = db_->feed_manager().GetConnection("Feed", "Sink");
  ASSERT_TRUE(conn.ok());
  EXPECT_FALSE(conn->terminated);
  for (const auto& stage : conn->assign_locations) {
    for (const auto& node : stage) EXPECT_NE(node, compute_node);
  }
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("chaos:5");
}

// A flaky disk under the WAL: appends fail with 5% probability for the
// first 1.5s of the run (scripted via ChaosSchedule), rejecting records at
// the persistence point. Each rejection is a store-stage soft failure that
// at-least-once replays, so the dataset still converges to exactly the
// records sent.
TEST_F(ChaosTest, WalAppendFaultsReplayToExactCount) {
  auto& source = NewSource(0, gen::Pattern::Constant(1500, 2500));
  SetupFeed("chaos:6", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "FaultTolerant").ok());

  ChaosSchedule schedule(/*seed=*/7);
  schedule
      .ArmAt(100, "storage.wal.append",
             FailPointPolicy::Error(Status::IOError("chaos: disk hiccup"))
                 .WithProbability(0.05))
      .DisarmAt(1500, "storage.wal.append");
  schedule.Start();
  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 20000))
      << "sent=" << sent << " stored=" << SinkCount()
      << " seed=" << schedule.seed();
  auto metrics = db_->FeedMetrics("Feed", "Sink");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->soft_failures.load(), 0);
  schedule.Stop();
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("chaos:6");
}

// The soak: one seed drives a whole timeline of overlapping faults —
// socket resets, flaky WAL, lost acks, poison records, and latency probes
// in the subscriber queues, task pump, and LSM flush path. The invariant
// under all of it: with the FaultTolerant policy, every record sent is
// eventually stored exactly once and the connection survives. On failure
// the seed is printed; re-running with it reproduces the exact policies.
TEST_F(ChaosTest, ChaosSoakIsLosslessForFixedSeed) {
  const uint64_t seed = 20260806;
  auto& source = NewSource(0, gen::Pattern::Constant(2000, 2500));
  SetupFeed("chaos:soak", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "FaultTolerant").ok());

  ChaosSchedule schedule(seed);
  schedule
      .ArmAt(100, "feeds.adaptor.fetch",
             FailPointPolicy::Error(
                 Status::Unavailable("chaos: socket reset"))
                 .EveryNth(11))
      .ArmAt(200, "storage.wal.append",
             FailPointPolicy::Error(Status::IOError("chaos: disk hiccup"))
                 .WithProbability(0.03))
      .ArmAt(300, "feeds.ack.publish",
             FailPointPolicy::Error(Status::Unavailable("chaos: ack lost"))
                 .EveryNth(3))
      .ArmAt(400, "feeds.subscriber.deliver",
             FailPointPolicy::Delay(2).EveryNth(50))
      .ArmAt(500, "hyracks.task.pump",
             FailPointPolicy::Delay(1).EveryNth(100))
      .ArmAt(600, "storage.lsm.flush", FailPointPolicy::Delay(5))
      .ArmAt(700, "feeds.udf.apply",
             FailPointPolicy::Throw("chaos: poison record")
                 .WithProbability(0.01))
      .ArmAt(800, "feeds.meta.process_frame",
             FailPointPolicy::Delay(1).EveryNth(20))
      // Injected memory pressure on the governor's "wal" pool: Append
      // fails typed (ResourceExhausted) before any byte lands, so the
      // at-least-once machinery replays it like any other soft fault.
      .ArmAt(900, "common.memgov.reserve",
             FailPointPolicy::Error(
                 Status::ResourceExhausted("chaos: memory pressure"))
                 .WithProbability(0.02)
                 .OnInstance("wal"));
  schedule.Start();
  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_GT(sent, 2000);
  int64_t fetch_fires =
      FailPointRegistry::Instance().Fires("feeds.adaptor.fetch");
  schedule.Stop();  // joins the driver and disarms every touched site

  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 30000))
      << "seed=" << seed << " sent=" << sent
      << " stored=" << SinkCount();
  EXPECT_GT(fetch_fires, 0) << "seed=" << seed;
  auto conn = db_->feed_manager().GetConnection("Feed", "Sink");
  ASSERT_TRUE(conn.ok());
  EXPECT_FALSE(conn->terminated) << "seed=" << seed;
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel(
      "chaos:soak");
}

// A Spill feed whose frame-path budget is refused outright: every
// governor admission on the "frame_path" pool fails, so the subscriber
// queues treat each arrival as over-budget and park it on disk. Spill is
// lossless by construction — excess is deferred, never dropped — so the
// dataset must still converge to every record sent, with the spill
// machinery (not luck) absorbing the pressure.
TEST_F(ChaosTest, SpillFeedStaysLosslessUnderZeroFrameBudget) {
  auto& source = NewSource(0, gen::Pattern::Constant(1500, 2500));
  SetupFeed("chaos:memspill", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "Spill").ok());

  auto& registry = FailPointRegistry::Instance();
  registry.Arm("common.memgov.reserve",
               FailPointPolicy::Error(
                   Status::ResourceExhausted("chaos: zero frame budget"))
                   .OnInstance("frame_path"));
  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_GT(sent, 1000);
  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 30000))
      << "sent=" << sent << " stored=" << SinkCount();
  EXPECT_GT(registry.Fires("common.memgov.reserve"), 0);
  // The pressure was absorbed by spilling, and everything spilled came
  // back: restored == spilled on the intake queues.
  auto metrics = db_->FeedMetrics("Feed", "Sink");
  ASSERT_NE(metrics, nullptr);
  int64_t spilled = 0;
  int64_t restored = 0;
  for (const auto& queue : metrics->IntakeQueues()) {
    auto stats = queue->stats();
    spilled += stats.frames_spilled;
    restored += stats.frames_restored;
  }
  EXPECT_GT(spilled, 0);
  EXPECT_EQ(restored, spilled);
  registry.Disarm("common.memgov.reserve");
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel(
      "chaos:memspill");
}

// Trace-span conservation under faults: re-run the flaky-WAL scenario with
// 100% trace sampling. Every trace handed out must terminate — reach a
// store-stage span, record a soft failure, be a replay trace (fresh traces
// minted for re-sent records), or end in an explicit drop span. A trace
// with none of those means a frame vanished without the observability
// layer noticing, which is exactly what the layer exists to rule out.
TEST_F(ChaosTest, TraceSpansConservedUnderWalFaults) {
  feeds::Tracer& tracer = feeds::Tracer::Instance();
  tracer.Reset();
  tracer.SetRingCapacity(1 << 18);
  tracer.SetSamplingRate(1.0);

  auto& source = NewSource(0, gen::Pattern::Constant(1500, 2500));
  SetupFeed("chaos:7", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "FaultTolerant").ok());

  ChaosSchedule schedule(/*seed=*/7);
  schedule
      .ArmAt(100, "storage.wal.append",
             FailPointPolicy::Error(Status::IOError("chaos: disk hiccup"))
                 .WithProbability(0.05))
      .DisarmAt(1500, "storage.wal.append");
  schedule.Start();
  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_TRUE(WaitFor([&] { return SinkCount() == sent; }, 20000))
      << "sent=" << sent << " stored=" << SinkCount()
      << " seed=" << schedule.seed();
  schedule.Stop();

  // Let replay traffic quiesce so the last re-sent records' traces finish.
  auto metrics = db_->FeedMetrics("Feed", "Sink");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(WaitFor(
      [&] {
        int64_t replayed = metrics->records_replayed.load();
        common::SleepMillis(300);
        return metrics->records_replayed.load() == replayed;
      },
      15000));
  tracer.SetSamplingRate(0);
  common::SleepMillis(300);  // drain spans of the final in-flight frames

  std::vector<uint64_t> started = tracer.StartedTraceIds();
  ASSERT_GT(started.size(), 0u);
  std::set<uint64_t> terminated;
  for (const feeds::TraceSpan& span : tracer.Spans()) {
    if (span.stage == "store" || span.stage == "soft-failure" ||
        span.stage == "replay" || span.status == "discarded" ||
        span.status == "throttled" || span.status == "spilled") {
      terminated.insert(span.trace_id);
    }
  }
  int64_t lost = 0;
  for (uint64_t id : started) {
    if (terminated.count(id) != 0) continue;
    ++lost;
    ADD_FAILURE() << "trace " << id << " has no terminal span; its spans:\n"
                  << [&] {
                       std::string out;
                       for (const feeds::TraceSpan& s :
                            tracer.SpansForTrace(id)) {
                         out += "  " + s.stage + "@" + s.where +
                                " status=" + s.status + "\n";
                       }
                       return out.empty() ? std::string("  (none)\n") : out;
                     }();
    if (lost >= 5) break;  // enough to diagnose; don't flood the log
  }
  EXPECT_EQ(lost, 0) << "seed=" << schedule.seed()
                     << " traces=" << started.size();

  // The span-tree dump renders real trees for this run.
  std::string json = tracer.DumpJson(4);
  EXPECT_NE(json.find("\"stage\":\"store\""), std::string::npos);

  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("chaos:7");
  tracer.Reset();
}

// --- Sanitizer soak ---------------------------------------------------------
//
// Registered a second time in ctest as `chaos_sanitizer_soak` with label
// `sanitizer`: the asan-ubsan preset runs it to scrub the two seams where
// object lifetimes are hairiest — ack-timeout replay (the ledger retires
// entries while the publisher is still dropping acks) and joint teardown
// (DisconnectFeed destroys subscriber queues and joints while frames are
// in flight and replays are pending). Counts cannot be exact across a
// mid-stream teardown (fetched-but-unstored frames die with the
// connection, by design), so the assertions are structural: replay
// happened, progress resumed after every reconnect, and the final
// connection is healthy. The sanitizers are the real oracle.
using SanitizerSoak = ChaosTest;

TEST_F(SanitizerSoak, AckReplayUnderJointTeardown) {
  const uint64_t seed = 20260806;
  auto& source = NewSource(0, gen::Pattern::Constant(2500, 4000));
  SetupFeed("chaos:soak-san", &source.channel(), {"E", "F"});
  ASSERT_TRUE(db_->CreatePolicy("TwitchySoak", "FaultTolerant",
                                {{"ack.timeout.ms", "200"}})
                  .ok());
  ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "TwitchySoak").ok());

  auto& registry = FailPointRegistry::Instance();
  registry.Arm("feeds.ack.publish",
               FailPointPolicy::Error(
                   Status::Unavailable("chaos: ack lost"))
                   .EveryNth(2));
  source.Start();

  // Phase 1: let replay engage while acks are being dropped.
  auto metrics = db_->FeedMetrics("Feed", "Sink");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(WaitFor(
      [&] {
        return SinkCount() > 0 && metrics->records_replayed.load() > 0;
      },
      20000))
      << "seed=" << seed << " stored=" << SinkCount();

  // Phase 2: tear the joint down and rebuild it, three times, while the
  // source keeps streaming and replays are pending.
  for (int cycle = 0; cycle < 3; ++cycle) {
    int64_t before = SinkCount();
    ASSERT_TRUE(db_->DisconnectFeed("Feed", "Sink").ok())
        << "seed=" << seed << " cycle=" << cycle;
    auto torn = db_->feed_manager().GetConnection("Feed", "Sink");
    EXPECT_TRUE(!torn.ok() || torn->terminated)
        << "seed=" << seed << " cycle=" << cycle;
    ASSERT_TRUE(db_->ConnectFeed("Feed", "Sink", "TwitchySoak").ok())
        << "seed=" << seed << " cycle=" << cycle;
    metrics = db_->FeedMetrics("Feed", "Sink");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(WaitFor([&] { return SinkCount() > before; }, 20000))
        << "seed=" << seed << " cycle=" << cycle << " stuck at " << before;
  }

  // Phase 3: restore the ack path and let the run quiesce cleanly.
  source.Join();
  registry.Disarm("feeds.ack.publish");
  int64_t sent = source.tweets_sent();
  ASSERT_GT(sent, 2000);
  ASSERT_TRUE(WaitFor(
      [&] {
        int64_t now = SinkCount();
        common::SleepMillis(200);
        return SinkCount() == now;  // stores stopped arriving
      },
      20000))
      << "seed=" << seed;
  EXPECT_LE(SinkCount(), sent) << "seed=" << seed;
  EXPECT_GT(SinkCount(), 0) << "seed=" << seed;
  auto conn = db_->feed_manager().GetConnection("Feed", "Sink");
  ASSERT_TRUE(conn.ok()) << "seed=" << seed;
  EXPECT_FALSE(conn->terminated) << "seed=" << seed;
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel(
      "chaos:soak-san");
}

}  // namespace
}  // namespace asterix
