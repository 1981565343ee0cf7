// End-to-end tests of the AsterixInstance facade: feed lifecycle, cascade
// networks, policies, soft/hard failures, at-least-once semantics.
#include <filesystem>

#include <gtest/gtest.h>

#include "asterix/asterix.h"
#include "common/clock.h"
#include "feeds/udf.h"
#include "gen/tweetgen.h"
#include "testing_util.h"

namespace asterix {
namespace {

using adm::TypeTag;
using adm::Value;
using asterix::testing::FastOptions;
using asterix::testing::TweetsDataset;
using asterix::testing::WaitFor;
using common::Status;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<AsterixInstance>(FastOptions(3));
    ASSERT_TRUE(db_->Start().ok());
  }

  std::unique_ptr<AsterixInstance> db_;
};

TEST_F(IntegrationTest, PrimaryFeedWithoutUdfIngestsToDataset) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Tweets")).ok());
  feeds::FeedDef feed;
  feed.name = "TweetFeed";
  feed.adaptor_alias = "synthetic_tweets";
  feed.adaptor_config = {{"rate", "5000"}, {"limit", "500"}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("TweetFeed", "Tweets").ok());

  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("Tweets").value() == 500; }, 10000))
      << "got " << db_->CountDataset("Tweets").value();
  ASSERT_TRUE(db_->DisconnectFeed("TweetFeed", "Tweets").ok());
  EXPECT_EQ(db_->CountDataset("Tweets").value(), 500);
}

TEST_F(IntegrationTest, ConnectRequiresExistingEntities) {
  EXPECT_FALSE(db_->ConnectFeed("NoFeed", "NoDataset").ok());
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  EXPECT_FALSE(db_->ConnectFeed("NoFeed", "D").ok());
  EXPECT_FALSE(db_->DisconnectFeed("NoFeed", "D").ok());
}

TEST_F(IntegrationTest, DoubleConnectRejected) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  feeds::FeedDef feed;
  feed.name = "F";
  feed.adaptor_alias = "synthetic_tweets";
  feed.adaptor_config = {{"rate", "100"}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("F", "D").ok());
  EXPECT_FALSE(db_->ConnectFeed("F", "D").ok());
  ASSERT_TRUE(db_->DisconnectFeed("F", "D").ok());
}

TEST_F(IntegrationTest, SecondaryFeedAppliesUdf) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Processed")).ok());
  ASSERT_TRUE(
      db_->InstallUdf(feeds::AqlUdf::ExtractHashtags("addHashTags")).ok());
  feeds::FeedDef primary;
  primary.name = "Raw";
  primary.adaptor_alias = "synthetic_tweets";
  primary.adaptor_config = {{"rate", "5000"}, {"limit", "300"}};
  ASSERT_TRUE(db_->CreateFeed(primary).ok());
  feeds::FeedDef secondary;
  secondary.name = "Hashtagged";
  secondary.is_primary = false;
  secondary.parent_feed = "Raw";
  secondary.udf = "addHashTags";
  ASSERT_TRUE(db_->CreateFeed(secondary).ok());

  ASSERT_TRUE(db_->ConnectFeed("Hashtagged", "Processed").ok());
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("Processed").value() == 300; },
      10000));
  // Every stored record carries the UDF-added topics list.
  int64_t checked = 0;
  ASSERT_TRUE(db_->ScanDataset("Processed", [&](const Value& record) {
    ++checked;
    const Value* topics = record.GetField("topics");
    ASSERT_NE(topics, nullptr);
    EXPECT_TRUE(topics->is_list());
  }).ok());
  EXPECT_EQ(checked, 300);
  ASSERT_TRUE(db_->DisconnectFeed("Hashtagged", "Processed").ok());
}

TEST_F(IntegrationTest, CascadeSharesHeadSection) {
  // Fetch-Once Compute-Many: raw and processed connected concurrently;
  // the external source is consumed once (a single head section).
  gen::TweetGenServer source(0, gen::Pattern::Constant(2000, 1500));
  feeds::ExternalSourceRegistry::Instance().RegisterChannel(
      "src:1", &source.channel());

  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Raw")).ok());
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Cooked")).ok());
  ASSERT_TRUE(
      db_->InstallUdf(feeds::AqlUdf::ExtractHashtags("tagify")).ok());

  feeds::FeedDef primary;
  primary.name = "SockFeed";
  primary.adaptor_alias = "socket_adaptor";
  primary.adaptor_config = {{"sockets", "src:1"}};
  ASSERT_TRUE(db_->CreateFeed(primary).ok());
  feeds::FeedDef secondary;
  secondary.name = "CookedFeed";
  secondary.is_primary = false;
  secondary.parent_feed = "SockFeed";
  secondary.udf = "tagify";
  ASSERT_TRUE(db_->CreateFeed(secondary).ok());

  // Connect the secondary BEFORE the primary (order must not matter).
  ASSERT_TRUE(db_->ConnectFeed("CookedFeed", "Cooked").ok());
  ASSERT_TRUE(db_->ConnectFeed("SockFeed", "Raw").ok());

  auto cooked = db_->feed_manager().GetConnection("CookedFeed", "Cooked");
  auto raw = db_->feed_manager().GetConnection("SockFeed", "Raw");
  ASSERT_TRUE(cooked.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(cooked->head_root, "SockFeed");
  EXPECT_EQ(raw->head_root, "SockFeed");
  // The primary sources directly from the shared head joint.
  EXPECT_EQ(raw->source_joint, "SockFeed");
  EXPECT_EQ(cooked->source_joint, "SockFeed");

  source.Start();
  source.Join();  // ~2000 tps for 1.5s
  const int64_t sent = source.tweets_sent();
  // Wall-clock rate bound: meaningless under TSan's slowdown (the
  // conservation checks below are the real assertions there).
  if (!asterix::testing::kTsanActive) {
    ASSERT_GT(sent, 2000);
  }
  ASSERT_GT(sent, 0);
  ASSERT_TRUE(WaitFor(
      [&] {
        return db_->CountDataset("Raw").value() == sent &&
               db_->CountDataset("Cooked").value() == sent;
      },
      15000))
      << "sent=" << sent << " raw=" << db_->CountDataset("Raw").value()
      << " cooked=" << db_->CountDataset("Cooked").value();
  // Fetch once: the head collected each record exactly once even though
  // two pipelines consumed it.
  auto head_metrics = db_->feed_manager().GetHeadMetrics("SockFeed");
  ASSERT_NE(head_metrics, nullptr);
  EXPECT_EQ(head_metrics->records_collected.load(), sent);

  ASSERT_TRUE(db_->DisconnectFeed("SockFeed", "Raw").ok());
  ASSERT_TRUE(db_->DisconnectFeed("CookedFeed", "Cooked").ok());
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("src:1");
}

TEST_F(IntegrationTest, SoftFailuresAreSkippedAndLogged) {
  gen::Channel channel;
  feeds::ExternalSourceRegistry::Instance().RegisterChannel("bad:1",
                                                            &channel);
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  feeds::FeedDef feed;
  feed.name = "BadFeed";
  feed.adaptor_alias = "socket_adaptor";
  feed.adaptor_config = {{"sockets", "bad:1"}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("BadFeed", "D").ok());

  // Interleave malformed payloads with good records.
  for (int i = 0; i < 100; ++i) {
    channel.Send("{\"id\": \"g" + std::to_string(i) + "\"}");
    if (i % 10 == 0) channel.Send("{{{ not adm at all");
  }
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("D").value() == 100; }, 10000))
      << db_->CountDataset("D").value();
  // Parse failures happen at the (shared) head section's collect stage.
  auto head_metrics = db_->feed_manager().GetHeadMetrics("BadFeed");
  ASSERT_NE(head_metrics, nullptr);
  EXPECT_EQ(head_metrics->soft_failures.load(), 10);
  EXPECT_EQ(head_metrics->records_collected.load(), 100);
  ASSERT_TRUE(db_->DisconnectFeed("BadFeed", "D").ok());
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("bad:1");
}

TEST_F(IntegrationTest, ThrowingUdfIsSandboxedByMetaFeed) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  // Throws on every 7th record (by seq) — a classic data-dependent bug.
  ASSERT_TRUE(db_->InstallUdf(std::make_shared<feeds::JavaUdf>(
                      "lib", "explode7",
                      [](const Value& record) -> std::optional<Value> {
                        if (record.GetField("seq")->AsInt64() % 7 == 0) {
                          throw std::runtime_error("unexpected value");
                        }
                        return record;
                      }))
                  .ok());
  feeds::FeedDef primary;
  primary.name = "P";
  primary.adaptor_alias = "synthetic_tweets";
  primary.adaptor_config = {{"rate", "5000"}, {"limit", "140"}};
  primary.udf = "lib#explode7";
  ASSERT_TRUE(db_->CreateFeed(primary).ok());
  ASSERT_TRUE(db_->ConnectFeed("P", "D").ok());

  // seq 0,7,14,...,133 throw: 20 of 140.
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("D").value() == 120; }, 10000))
      << db_->CountDataset("D").value();
  common::SleepMillis(100);  // no stragglers
  EXPECT_EQ(db_->CountDataset("D").value(), 120);
  auto metrics = db_->FeedMetrics("P", "D");
  EXPECT_EQ(metrics->soft_failures.load(), 20);
  ASSERT_TRUE(db_->DisconnectFeed("P", "D").ok());
}

TEST_F(IntegrationTest, BatchInsertPathWorks) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  std::vector<Value> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(
        Value::Record({{"id", Value::String("b" + std::to_string(i))},
                       {"n", Value::Int64(i)}}));
  }
  ASSERT_TRUE(db_->InsertBatch("D", std::move(batch)).ok());
  EXPECT_EQ(db_->CountDataset("D").value(), 50);
  auto got = db_->GetRecord("D", Value::String("b7"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetField("n")->AsInt64(), 7);
}

}  // namespace
}  // namespace asterix
