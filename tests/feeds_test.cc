// Unit tests of the feed substrate: policies, UDFs, joints and Data
// Buckets, the policy-enforcing subscriber queues, ack machinery,
// adaptors and the feed catalog.
#include <filesystem>
#include <future>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "adm/parser.h"
#include "feeds/ack.h"
#include "feeds/catalog.h"
#include "feeds/joint.h"
#include "feeds/policy.h"
#include "feeds/subscriber.h"
#include "feeds/udf.h"
#include "gen/pattern.h"
#include "gen/tweetgen.h"
#include "testing_util.h"

namespace asterix {
namespace feeds {
namespace {

using adm::Value;
using asterix::testing::FrameOf;
using hyracks::FramePtr;
using hyracks::MakeFrame;

// --- policies ---------------------------------------------------------

TEST(PolicyTest, BuiltinsExist) {
  PolicyRegistry registry;
  for (const char* name : {"Basic", "Spill", "Discard", "Throttle",
                           "Elastic", "FaultTolerant"}) {
    EXPECT_TRUE(registry.Find(name).ok()) << name;
  }
  EXPECT_FALSE(registry.Find("Nope").ok());
}

TEST(PolicyTest, Table42ExcessModes) {
  PolicyRegistry registry;
  EXPECT_EQ(registry.Find("Basic")->excess_mode(), ExcessMode::kBlock);
  EXPECT_EQ(registry.Find("Spill")->excess_mode(), ExcessMode::kSpill);
  EXPECT_EQ(registry.Find("Discard")->excess_mode(), ExcessMode::kDiscard);
  EXPECT_EQ(registry.Find("Throttle")->excess_mode(),
            ExcessMode::kThrottle);
  EXPECT_EQ(registry.Find("Elastic")->excess_mode(), ExcessMode::kElastic);
}

TEST(PolicyTest, Table41Defaults) {
  IngestionPolicy policy;
  EXPECT_TRUE(policy.recover_soft_failure());
  EXPECT_TRUE(policy.recover_hard_failure());
  EXPECT_FALSE(policy.at_least_once());
  EXPECT_EQ(policy.excess_mode(), ExcessMode::kBlock);
}

TEST(PolicyTest, CustomPolicyExtendsBase) {
  // The Listing 4.6 example: Spill_then_Throttle.
  PolicyRegistry registry;
  ASSERT_TRUE(registry
                  .Create("Spill_then_Throttle", "Spill",
                          {{"max.spill.size.on.disk", "512MB"},
                           {"excess.records.throttle", "true"}})
                  .ok());
  auto policy = registry.Find("Spill_then_Throttle");
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->excess_mode(), ExcessMode::kSpill);  // spill wins
  EXPECT_TRUE(policy->GetBool(IngestionPolicy::kExcessRecordsThrottle,
                              false));
  EXPECT_EQ(policy->max_spill_bytes(), 512LL << 20);
}

TEST(PolicyTest, CreateRejectsUnknownBaseAndDuplicates) {
  PolicyRegistry registry;
  EXPECT_FALSE(registry.Create("X", "Nope", {}).ok());
  EXPECT_TRUE(registry.Create("X", "Basic", {}).ok());
  EXPECT_FALSE(registry.Create("X", "Basic", {}).ok());
}

TEST(PolicyTest, SizeSuffixParsing) {
  IngestionPolicy policy("p", {{"memory.budget", "2MB"},
                               {"max.spill.size.on.disk", "1GB"},
                               {"ack.window.ms", "50"}});
  EXPECT_EQ(policy.memory_budget_bytes(), 2LL << 20);
  EXPECT_EQ(policy.max_spill_bytes(), 1LL << 30);
  EXPECT_EQ(policy.ack_window_ms(), 50);
}

// --- UDFs -------------------------------------------------------------

TEST(UdfTest, ExtractHashtagsCollectsTopics) {
  auto udf = AqlUdf::ExtractHashtags("f");
  Value tweet = Value::Record(
      {{"id", Value::String("1")},
       {"message_text", Value::String("hello #a world #b2 #")}});
  auto out = udf->Apply(tweet);
  ASSERT_TRUE(out.has_value());
  const Value* topics = out->GetField("topics");
  ASSERT_NE(topics, nullptr);
  ASSERT_EQ(topics->AsList().size(), 2u);  // bare "#" excluded
  EXPECT_EQ(topics->AsList()[0].AsString(), "#a");
  EXPECT_EQ(topics->AsList()[1].AsString(), "#b2");
}

TEST(UdfTest, ExtractHashtagsThrowsOnMissingField) {
  auto udf = AqlUdf::ExtractHashtags("f");
  Value bad = Value::Record({{"id", Value::String("1")}});
  EXPECT_THROW(udf->Apply(bad), std::runtime_error);
}

TEST(UdfTest, KeepAndDropFields) {
  AqlUdf keep("k", {{AqlUdf::Step::Op::kKeepFields,
                     {"id", "n"},
                     Value::Null()}});
  Value r = Value::Record({{"id", Value::String("1")},
                           {"n", Value::Int64(2)},
                           {"x", Value::Int64(3)}});
  auto kept = keep.Apply(r);
  EXPECT_EQ(kept->AsRecord().size(), 2u);
  AqlUdf drop("d", {{AqlUdf::Step::Op::kDropFields, {"x"},
                     Value::Null()}});
  auto dropped = drop.Apply(r);
  EXPECT_EQ(dropped->AsRecord().size(), 2u);
  EXPECT_EQ(dropped->GetField("x"), nullptr);
}

TEST(UdfTest, LatLongToPointAndDatetime) {
  AqlUdf udf("geo", {{AqlUdf::Step::Op::kLatLongToPoint,
                      {"latitude", "longitude", "location"},
                      Value::Null()},
                     {AqlUdf::Step::Op::kStringToDatetime,
                      {"created_at", "created_dt"},
                      Value::Null()}});
  Value r = Value::Record({{"latitude", Value::Double(1.0)},
                           {"longitude", Value::Double(2.0)},
                           {"created_at", Value::String("12345")}});
  auto out = udf.Apply(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->GetField("location")->AsPoint().x, 1.0);
  EXPECT_EQ(out->GetField("created_dt")->AsDatetime(), 12345);
  // Optional lat/long: field left absent, no throw.
  Value no_geo = Value::Record({{"created_at", Value::String("1")}});
  auto out2 = udf.Apply(no_geo);
  EXPECT_EQ(out2->GetField("location"), nullptr);
}

TEST(UdfTest, FilterFieldEqualsDropsNonMatching) {
  AqlUdf udf("f", {{AqlUdf::Step::Op::kFilterFieldEquals, {"country"},
                    Value::String("US")}});
  Value us = Value::Record({{"country", Value::String("US")}});
  Value de = Value::Record({{"country", Value::String("DE")}});
  EXPECT_TRUE(udf.Apply(us).has_value());
  EXPECT_FALSE(udf.Apply(de).has_value());
}

TEST(UdfTest, JavaUdfQualifiedNameAndInit) {
  JavaUdf udf("tweetlib", "sentimentAnalysis",
              [](const Value& v) { return v; });
  EXPECT_EQ(udf.name(), "tweetlib#sentimentAnalysis");
  EXPECT_EQ(udf.kind(), UdfKind::kJava);
  EXPECT_FALSE(udf.initialized());
  udf.Initialize();
  EXPECT_TRUE(udf.initialized());
}

TEST(UdfTest, PseudoSentimentIsDeterministicAndBounded) {
  double a = PseudoSentiment("some tweet text");
  EXPECT_EQ(a, PseudoSentiment("some tweet text"));
  for (const char* text : {"", "a", "longer text #x", "another"}) {
    double s = PseudoSentiment(text);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(UdfTest, RegistryFindAndDuplicates) {
  UdfRegistry registry;
  ASSERT_TRUE(registry.Register(AqlUdf::ExtractHashtags("f1")).ok());
  EXPECT_FALSE(registry.Register(AqlUdf::ExtractHashtags("f1")).ok());
  EXPECT_TRUE(registry.Find("f1").ok());
  EXPECT_FALSE(registry.Find("f2").ok());
}

// --- joints & buckets ---------------------------------------------------

TEST(JointTest, InactiveUntilSubscribed) {
  FeedJoint joint("J");
  EXPECT_EQ(joint.mode(), FeedJoint::Mode::kInactive);
  auto q1 = joint.Subscribe({});
  EXPECT_EQ(joint.mode(), FeedJoint::Mode::kShortCircuit);
  auto q2 = joint.Subscribe({});
  EXPECT_EQ(joint.mode(), FeedJoint::Mode::kShared);
  joint.Unsubscribe(q2);
  EXPECT_EQ(joint.mode(), FeedJoint::Mode::kShortCircuit);
}

TEST(JointTest, ShortCircuitAvoidsBuckets) {
  FeedJoint joint("J");
  auto queue = joint.Subscribe({});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(joint.NextFrame(FrameOf(5)).ok());
  }
  EXPECT_EQ(joint.bucket_pool().allocations(), 0);
  EXPECT_EQ(queue->stats().frames_delivered, 10);
}

TEST(JointTest, SharedModeGuaranteedDelivery) {
  FeedJoint joint("J");
  auto q1 = joint.Subscribe({});
  auto q2 = joint.Subscribe({});
  auto q3 = joint.Subscribe({});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(joint.NextFrame(FrameOf(3, i * 3)).ok());
  }
  for (auto& queue : {q1, q2, q3}) {
    EXPECT_EQ(queue->stats().frames_delivered, 20);
    EXPECT_EQ(queue->stats().records_delivered, 60);
  }
  EXPECT_GT(joint.bucket_pool().allocations(), 0);
}

TEST(JointTest, BucketPoolRecyclesAfterConsumption) {
  FeedJoint joint("J");
  auto q1 = joint.Subscribe({});
  auto q2 = joint.Subscribe({});
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(joint.NextFrame(FrameOf(2)).ok());
    // Both subscribers consume: bucket refcount hits zero, returns to
    // the pool and is reused next round.
    ASSERT_TRUE(q1->Next(1000).has_value());
    ASSERT_TRUE(q2->Next(1000).has_value());
  }
  EXPECT_GT(joint.bucket_pool().reuses(), 40);
  EXPECT_LT(joint.bucket_pool().allocations(), 10);
}

TEST(JointTest, CongestionIsolationBetweenSubscribers) {
  // A slow subscriber (never consuming) must not delay a fast one.
  FeedJoint joint("J");
  auto slow = joint.Subscribe({});
  auto fast = joint.Subscribe({});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(joint.NextFrame(FrameOf(1, i)).ok());
    auto frame = fast->Next(1000);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ((*frame)->records()[0].GetField("n")->AsInt64(), i);
  }
  EXPECT_EQ(slow->pending_frames(), 100u);  // buffered, not blocking
}

TEST(JointTest, CloseEndsSubscribers) {
  FeedJoint joint("J");
  auto queue = joint.Subscribe({});
  ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  ASSERT_TRUE(joint.Close().ok());
  EXPECT_TRUE(queue->Next(100).has_value());  // drains
  EXPECT_FALSE(queue->Next(100).has_value());
  EXPECT_TRUE(queue->ended());
  // Subscribing to a closed joint ends immediately.
  auto late = joint.Subscribe({});
  EXPECT_TRUE(late->ended());
}

TEST(JointTest, DetachPrimaryClosesOnlyInJobPath) {
  struct Probe : hyracks::IFrameWriter {
    int frames = 0;
    bool closed = false;
    common::Status NextFrame(const FramePtr&) override {
      ++frames;
      return common::Status::OK();
    }
    common::Status Close() override {
      closed = true;
      return common::Status::OK();
    }
  };
  auto probe = std::make_shared<Probe>();
  FeedJoint joint("J");
  joint.SetPrimary(probe);
  auto queue = joint.Subscribe({});
  ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  EXPECT_EQ(probe->frames, 1);
  joint.DetachPrimary();
  EXPECT_TRUE(probe->closed);
  ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  EXPECT_EQ(probe->frames, 1);  // primary no longer fed
  EXPECT_EQ(queue->stats().frames_delivered, 2);  // subscriber still is
}

// --- subscriber queues (policy runtimes) --------------------------------

SubscriberOptions SmallQueue(ExcessMode mode, int64_t budget = 4096) {
  SubscriberOptions options;
  options.mode = mode;
  options.memory_budget_bytes = budget;
  options.spill_dir = "/tmp";
  options.name = std::string("test_") + ExcessModeName(mode);
  return options;
}

TEST(SubscriberQueueTest, BasicFailsWhenBudgetExhausted) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kBlock, 2048));
  for (int i = 0; i < 200 && !queue.failed(); ++i) {
    queue.Deliver(FrameOf(10), nullptr);
  }
  EXPECT_TRUE(queue.failed());
  EXPECT_TRUE(queue.failure().IsResourceExhausted());
}

TEST(SubscriberQueueTest, DiscardDropsExcessAndCounts) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kDiscard, 2048));
  for (int i = 0; i < 200; ++i) queue.Deliver(FrameOf(10), nullptr);
  auto stats = queue.stats();
  EXPECT_FALSE(queue.failed());
  EXPECT_GT(stats.records_discarded, 0);
  EXPECT_GT(stats.records_delivered, 0);
  EXPECT_EQ(stats.records_delivered + stats.records_discarded, 2000);
}

TEST(SubscriberQueueTest, ThrottleSamplesExcess) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kThrottle, 4096));
  for (int i = 0; i < 300; ++i) queue.Deliver(FrameOf(10), nullptr);
  auto stats = queue.stats();
  EXPECT_FALSE(queue.failed());
  EXPECT_GT(stats.records_throttled_away, 0);
  // Throttling samples rather than truncating: some later records
  // survive even under sustained pressure.
  EXPECT_GT(stats.records_delivered, 0);
}

TEST(SubscriberQueueTest, SpillParksExcessOnDiskAndRestoresInOrder) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kSpill, 2048));
  constexpr int kFrames = 120;
  for (int i = 0; i < kFrames; ++i) {
    queue.Deliver(FrameOf(5, i * 5), nullptr);
  }
  EXPECT_GT(queue.stats().frames_spilled, 0);
  // Drain everything; order must be preserved across the spill boundary.
  int64_t expected = 0;
  int got_frames = 0;
  while (auto frame = queue.Next(200)) {
    ++got_frames;
    for (const Value& record : (*frame)->records()) {
      EXPECT_EQ(record.GetField("n")->AsInt64(), expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, kFrames * 5);
  EXPECT_EQ(queue.stats().frames_restored, queue.stats().frames_spilled);
}

TEST(SubscriberQueueTest, SpillOverflowFailsWithoutThrottleFallback) {
  SubscriberOptions options = SmallQueue(ExcessMode::kSpill, 1024);
  options.max_spill_bytes = 2048;  // tiny spill budget
  SubscriberQueue queue(options);
  for (int i = 0; i < 500 && !queue.failed(); ++i) {
    queue.Deliver(FrameOf(10), nullptr);
  }
  EXPECT_TRUE(queue.failed());
}

TEST(SubscriberQueueTest, SpillOverflowThrottlesWithFallback) {
  // The Spill_then_Throttle custom policy of Listing 4.6.
  SubscriberOptions options = SmallQueue(ExcessMode::kSpill, 1024);
  options.max_spill_bytes = 2048;
  options.throttle_after_spill = true;
  SubscriberQueue queue(options);
  for (int i = 0; i < 500; ++i) queue.Deliver(FrameOf(10), nullptr);
  EXPECT_FALSE(queue.failed());
  EXPECT_GT(queue.stats().records_throttled_away, 0);
}

TEST(SubscriberQueueTest, EndAfterDrain) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kBlock));
  queue.Deliver(FrameOf(1), nullptr);
  queue.DeliverEnd();
  EXPECT_FALSE(queue.ended());  // still has data
  EXPECT_TRUE(queue.Next(100).has_value());
  EXPECT_TRUE(queue.ended());
  EXPECT_FALSE(queue.Next(10).has_value());
}

// Deliver + DeliverEnd racing a consumer inside NextBatch: the consumer
// may poll an empty ring and then observe ended_ — it must re-poll the
// ring before trusting the terminal flag, or a frame published between
// the two loads is stranded (the contract is empty only on timeout or
// terminal with NOTHING buffered). Iterated so the thread interleaving
// actually lands inside the window.
TEST(SubscriberQueueTest, FrameRacingDeliverEndIsNeverStranded) {
  for (int iter = 0; iter < 100; ++iter) {
    SubscriberQueue queue(SmallQueue(ExcessMode::kBlock));
    int got = 0;
    std::thread consumer([&] {
      for (;;) {
        std::vector<FramePtr> batch = queue.NextBatch(2000);
        if (batch.empty()) return;
        got += static_cast<int>(batch.size());
      }
    });
    queue.Deliver(FrameOf(1), nullptr);
    queue.DeliverEnd();
    consumer.join();
    ASSERT_EQ(got, 1) << "final frame stranded on iteration " << iter;
  }
}

// A spill file that can no longer yield the frames its counter claims
// (truncated behind the queue's back here; a torn write in production)
// must fail the queue and let NextBatch return within its timeout — not
// spin on the replenish path retrying the unreadable restore forever.
TEST(SubscriberQueueTest, TruncatedSpillFailsInsteadOfSpinning) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "asterix_spill_truncation_test";
  fs::create_directories(dir);
  SubscriberOptions options = SmallQueue(ExcessMode::kSpill, 2048);
  options.spill_dir = dir.string();
  options.name = "truncated";
  SubscriberQueue queue(options);
  for (int i = 0; i < 120; ++i) queue.Deliver(FrameOf(5), nullptr);
  ASSERT_GT(queue.stats().frames_spilled, 0);
  // Drain until the first restore pass ran (it flushes libc's write
  // buffer to disk, so the truncation below cannot be undone by a later
  // flush) but spilled frames remain pending.
  while (queue.stats().frames_restored == 0) {
    ASSERT_TRUE(queue.Next(200).has_value());
  }
  ASSERT_GT(queue.stats().frames_spilled, queue.stats().frames_restored);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    fs::resize_file(entry.path(), 1);  // torn mid length-header
  }
  // Remaining drain must terminate: restored-but-unread frames come
  // back, then the torn file surfaces as a terminal I/O failure.
  while (queue.Next(200).has_value()) {
  }
  EXPECT_TRUE(queue.failed());
  EXPECT_TRUE(queue.failure().IsIOError());
  fs::remove_all(dir);
}

// --- ack machinery -------------------------------------------------------

TEST(AckTest, TrackingIdPacksPartition) {
  int64_t tid = MakeTrackingId(5, 123456789);
  EXPECT_EQ(TrackingIdPartition(tid), 5);
  EXPECT_EQ(tid & ((1LL << 48) - 1), 123456789);
}

TEST(AckTest, PendingTrackerAckAndExpiry) {
  PendingTracker tracker(/*timeout_ms=*/50);
  tracker.Track(1, Value::Record({{"id", Value::String("a")}}));
  tracker.Track(2, Value::Record({{"id", Value::String("b")}}));
  EXPECT_EQ(tracker.pending_count(), 2u);
  tracker.Ack({1});
  EXPECT_EQ(tracker.pending_count(), 1u);
  EXPECT_TRUE(tracker.TakeExpired().empty());  // not yet expired
  common::SleepMillis(80);
  auto expired = tracker.TakeExpired();
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].GetField("id")->AsString(), "b");
  // Timestamps reset: not immediately expired again.
  EXPECT_TRUE(tracker.TakeExpired().empty());
}

TEST(AckTest, CollectorGroupsAcksPerWindow) {
  auto bus = std::make_shared<AckBus>();
  std::vector<std::vector<int64_t>> received;
  bus->Register("c", 0, [&](const std::vector<int64_t>& tids) {
    received.push_back(tids);
  });
  AckCollector collector(bus, "c", /*window_ms=*/30);
  for (int i = 0; i < 100; ++i) {
    collector.OnPersisted(MakeTrackingId(0, i));
  }
  collector.Flush();
  size_t total = 0;
  for (const auto& group : received) total += group.size();
  EXPECT_EQ(total, 100u);
  // Grouping: far fewer messages than acks.
  EXPECT_LT(received.size(), 10u);
}

TEST(AckTest, BusRoutesByPartition) {
  AckBus bus;
  int p0 = 0, p1 = 0;
  bus.Register("c", 0, [&](const std::vector<int64_t>&) { ++p0; });
  bus.Register("c", 1, [&](const std::vector<int64_t>&) { ++p1; });
  bus.Publish("c", 0, {1});
  bus.Publish("c", 1, {2});
  bus.Publish("c", 7, {3});  // unregistered: dropped
  EXPECT_EQ(p0, 1);
  EXPECT_EQ(p1, 1);
  bus.Unregister("c", 0);
  bus.Publish("c", 0, {4});
  EXPECT_EQ(p0, 1);
}

// --- patterns & tweetgen --------------------------------------------------

TEST(PatternTest, ParsesDissertationDescriptor) {
  auto pattern = gen::ParsePatternXml(R"(
    <pattern>
      <cycle repeat="5">
        <interval duration="400" rate="300"/>
        <interval duration="400" rate="600"/>
      </cycle>
    </pattern>)");
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  EXPECT_EQ(pattern->repeat, 5);
  ASSERT_EQ(pattern->intervals.size(), 2u);
  EXPECT_EQ(pattern->intervals[0].rate_tps, 300);
  EXPECT_EQ(pattern->intervals[1].duration_ms, 400);
  EXPECT_EQ(pattern->TotalDurationMs(), 4000);
  EXPECT_EQ(pattern->TotalRecords(), 5 * (120 + 240));
}

TEST(PatternTest, RoundTripsThroughXml) {
  gen::Pattern pattern = gen::Pattern::Burst(100, 900, 250, 3);
  auto back = gen::ParsePatternXml(gen::PatternToXml(pattern));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->repeat, 3);
  EXPECT_EQ(back->intervals[1].rate_tps, 900);
}

TEST(PatternTest, RejectsMalformedDescriptors) {
  EXPECT_FALSE(gen::ParsePatternXml("<pattern></pattern>").ok());
  EXPECT_FALSE(gen::ParsePatternXml("<pattern><cycle repeat=\"1\">"
                                    "<interval duration=\"1\"/>"
                                    "</cycle></pattern>")
                   .ok());  // missing rate
  EXPECT_FALSE(gen::ParsePatternXml("<bogus/>").ok());
  EXPECT_FALSE(gen::ParsePatternXml(
                   "<pattern><interval duration=\"1\" rate=\"1\"/>"
                   "</pattern>")
                   .ok());  // interval outside cycle
}

TEST(TweetGenTest, TweetsAreWellFormedAndUnique) {
  gen::TweetFactory factory(3);
  std::set<std::string> ids;
  for (int i = 0; i < 100; ++i) {
    Value tweet = factory.NextTweet();
    ASSERT_TRUE(tweet.is_record());
    ids.insert(tweet.GetField("id")->AsString());
    EXPECT_EQ(tweet.GetField("seq")->AsInt64(), i);
    EXPECT_NE(tweet.GetField("user"), nullptr);
    EXPECT_NE(tweet.GetField("message_text"), nullptr);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(TweetGenTest, SerializedTweetsParseBack) {
  gen::TweetFactory factory(0);
  for (int i = 0; i < 20; ++i) {
    auto parsed = adm::ParseAdm(factory.NextTweetText());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
}

TEST(TweetGenTest, ServerFollowsPatternApproximately) {
  gen::TweetGenServer server(0, gen::Pattern::Constant(1000, 500));
  server.Start();
  server.Join();
  ASSERT_TRUE(server.finished());
  // ~500 tweets expected; pacing granularity allows a small shortfall.
  EXPECT_GE(server.tweets_sent(), 400);
  EXPECT_LE(server.tweets_sent(), 600);
  EXPECT_EQ(server.channel().pending(), server.tweets_sent());
}

TEST(ChannelTest, DrainHonoursMaxInFifoOrder) {
  gen::Channel channel;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(channel.Send(std::to_string(i)));
  EXPECT_EQ(channel.Drain(2), (std::vector<std::string>{"0", "1"}));
  EXPECT_EQ(channel.Drain(), (std::vector<std::string>{"2", "3", "4"}));
  EXPECT_TRUE(channel.Drain().empty());
}

TEST(ChannelTest, ReceiveTimesOutThenDelivers) {
  gen::Channel channel;
  common::Stopwatch watch;
  EXPECT_FALSE(channel.Receive(20).has_value());
  EXPECT_GE(watch.ElapsedMillis(), 20);
  ASSERT_TRUE(channel.Send("x"));
  EXPECT_EQ(channel.Receive(20).value_or(""), "x");
}

TEST(ChannelTest, CloseSenderRejectsSendsAndDrainsToEnd) {
  gen::Channel channel;
  ASSERT_TRUE(channel.Send("a"));
  channel.CloseSender();
  EXPECT_FALSE(channel.Send("b"));
  EXPECT_TRUE(channel.closed());
  EXPECT_EQ(channel.pending(), 1u);
  EXPECT_EQ(channel.Drain(), std::vector<std::string>{"a"});
  // The adaptors' end-of-source condition.
  EXPECT_TRUE(channel.closed() && channel.pending() == 0);
}

TEST(ChannelTest, StopReleasesSendParkedOnFullChannel) {
  // 100k tweets per 10 ms tick: the first tick fills the channel and the
  // source parks in Send with no reader.
  gen::TweetGenServer server(0, gen::Pattern::Constant(10'000'000, 60'000));
  server.Start();
  ASSERT_TRUE(asterix::testing::WaitFor(
      [&] { return server.channel().pending() == gen::Channel::kCapacity; },
      60'000));
  auto stopped = std::async(std::launch::async, [&] {
    server.Stop();
    server.Join();
  });
  const bool returned =
      stopped.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Unpark a stuck sender so a failure reports instead of hanging.
  if (!returned) (void)server.channel().Drain();
  stopped.wait();
  EXPECT_TRUE(returned);
  EXPECT_EQ(server.tweets_sent(),
            static_cast<int64_t>(gen::Channel::kCapacity));
}

// --- catalog ---------------------------------------------------------------

TEST(FeedCatalogTest, PathFromRootWalksLineage) {
  FeedCatalog catalog;
  FeedDef root;
  root.name = "Root";
  root.adaptor_alias = "a";
  ASSERT_TRUE(catalog.CreateFeed(root).ok());
  FeedDef mid;
  mid.name = "Mid";
  mid.is_primary = false;
  mid.parent_feed = "Root";
  mid.udf = "f1";
  ASSERT_TRUE(catalog.CreateFeed(mid).ok());
  FeedDef leaf;
  leaf.name = "Leaf";
  leaf.is_primary = false;
  leaf.parent_feed = "Mid";
  leaf.udf = "f2";
  ASSERT_TRUE(catalog.CreateFeed(leaf).ok());

  auto path = catalog.PathFromRoot("Leaf");
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->size(), 3u);
  EXPECT_EQ((*path)[0].name, "Root");
  EXPECT_EQ((*path)[2].name, "Leaf");
}

TEST(FeedCatalogTest, RejectsBadDefinitions) {
  FeedCatalog catalog;
  FeedDef no_adaptor;
  no_adaptor.name = "X";
  EXPECT_FALSE(catalog.CreateFeed(no_adaptor).ok());
  FeedDef orphan;
  orphan.name = "Y";
  orphan.is_primary = false;
  orphan.parent_feed = "Nope";
  EXPECT_FALSE(catalog.CreateFeed(orphan).ok());
}

TEST(FeedCatalogTest, DropRefusesWhenDependentsExist) {
  FeedCatalog catalog;
  FeedDef root;
  root.name = "Root";
  root.adaptor_alias = "a";
  ASSERT_TRUE(catalog.CreateFeed(root).ok());
  FeedDef child;
  child.name = "Child";
  child.is_primary = false;
  child.parent_feed = "Root";
  ASSERT_TRUE(catalog.CreateFeed(child).ok());
  EXPECT_FALSE(catalog.DropFeed("Root").ok());
  EXPECT_TRUE(catalog.DropFeed("Child").ok());
  EXPECT_TRUE(catalog.DropFeed("Root").ok());
}

// --- adaptors ----------------------------------------------------------

TEST(AdaptorTest, RegistryHasBuiltins) {
  AdaptorRegistry registry;
  ASSERT_TRUE(RegisterBuiltinAdaptors(&registry).ok());
  for (const char* alias : {"socket_adaptor", "TweetGenAdaptor",
                            "file_based_feed", "synthetic_tweets"}) {
    EXPECT_TRUE(registry.Find(alias).ok()) << alias;
  }
}

TEST(AdaptorTest, SocketConstraintsFollowSocketList) {
  SocketAdaptorFactory factory;
  auto constraint =
      factory.GetConstraints({{"sockets", "a:1, b:2, c:3"}});
  ASSERT_TRUE(constraint.ok());
  EXPECT_EQ(constraint->count, 3);
  EXPECT_FALSE(factory.GetConstraints({}).ok());
}

TEST(AdaptorTest, SocketAdaptorDrainsChannel) {
  gen::Channel channel;
  ExternalSourceRegistry::Instance().RegisterChannel("t:1", &channel);
  SocketAdaptorFactory factory;
  auto adaptor = factory.Create({{"sockets", "t:1"}}, 0);
  ASSERT_TRUE(adaptor.ok());
  channel.Send("one");
  channel.Send("two");
  auto batch = (*adaptor)->Fetch(10, 10);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->payloads.size(), 2u);
  EXPECT_EQ(batch->payloads[0], "one");
  // Closed + drained channel reports end of source.
  channel.CloseSender();
  batch = (*adaptor)->Fetch(10, 10);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->end_of_source);
  ExternalSourceRegistry::Instance().UnregisterChannel("t:1");
}

TEST(AdaptorTest, SyntheticAdaptorHonorsLimit) {
  SyntheticTweetAdaptorFactory factory;
  auto adaptor =
      factory.Create({{"rate", "100000"}, {"limit", "42"}}, 0);
  ASSERT_TRUE(adaptor.ok());
  int64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    auto batch = (*adaptor)->Fetch(64, 5);
    ASSERT_TRUE(batch.ok());
    total += static_cast<int64_t>(batch->payloads.size());
    if (batch->end_of_source) break;
  }
  EXPECT_EQ(total, 42);
}

}  // namespace
}  // namespace feeds
}  // namespace asterix
