// Property-based tests: randomized workloads checked against reference
// models and invariants, parameterized over seeds (TEST_P sweeps).
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "adm/parser.h"
#include "common/rng.h"
#include "feeds/joint.h"
#include "feeds/subscriber.h"
#include "gen/simcpu.h"
#include "gen/tweetgen.h"
#include "storage/key.h"
#include "storage/lsm_index.h"

namespace asterix {
namespace {

using adm::Value;

// --- LSM index vs std::map reference model ------------------------------

class LsmModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmModelTest, RandomUpsertsMatchReferenceModel) {
  common::Rng rng(GetParam());
  storage::LsmOptions options;
  options.memtable_bytes_limit = 1 << (6 + rng.Uniform(0, 8));  // 64B..16KB
  options.max_runs = static_cast<size_t>(rng.Uniform(2, 6));
  storage::LsmIndex index(options);
  std::map<std::string, int64_t> model;

  for (int op = 0; op < 2000; ++op) {
    int64_t key_space = rng.Uniform(1, 300);
    auto key =
        storage::EncodeKey(Value::Int64(rng.Uniform(0, key_space)))
            .value();
    int64_t value = rng.Uniform(0, 1 << 30);
    ASSERT_TRUE(index.Insert(key, Value::Int64(value)).ok());
    model[key] = value;

    if (op % 97 == 0) {
      // Point-lookup agreement on a random key (possibly absent).
      auto probe =
          storage::EncodeKey(Value::Int64(rng.Uniform(0, 400))).value();
      auto got = index.Get(probe);
      auto expected = model.find(probe);
      ASSERT_EQ(got.has_value(), expected != model.end());
      if (got.has_value()) {
        EXPECT_EQ(got->AsInt64(), expected->second);
      }
    }
  }
  // Full-scan agreement: same keys, same values, same (sorted) order.
  EXPECT_EQ(index.Size(), static_cast<int64_t>(model.size()));
  auto it = model.begin();
  index.Scan([&](const std::string& key, const Value& value) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value.AsInt64(), it->second);
    ++it;
  });
  EXPECT_EQ(it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmModelTest,
                         ::testing::Values(1, 7, 42, 1234, 99991, 31337,
                                           271828, 3141592));

// --- streaming k-way merge (LsmIndex::MergeRuns) vs std::map reference ---

class MergeRunsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeRunsTest, NewestWinsAndCarriesStoredSizes) {
  common::Rng rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    // 0..5 overlapping runs, oldest first; any of them may be empty. A
    // small key space makes keys recur across runs, and about a quarter of
    // the writes are tombstones (null).
    int64_t run_count = rng.Uniform(0, 5);
    int64_t key_space = rng.Uniform(1, 80);
    std::vector<std::shared_ptr<storage::SortedRun>> runs;
    std::map<std::string, Value> newest;  // reference: last write per key
    for (int64_t r = 0; r < run_count; ++r) {
      std::map<std::string, Value> run_model;
      int64_t writes = rng.Uniform(0, 50);
      for (int64_t i = 0; i < writes; ++i) {
        auto key = storage::EncodeKey(Value::Int64(rng.Uniform(0, key_space)))
                       .value();
        run_model[key] = rng.Uniform(0, 3) == 0
                             ? Value::Null()
                             : Value::String(rng.AlphaString(
                                   static_cast<size_t>(rng.Uniform(0, 40))));
      }
      std::vector<storage::SortedRun::Entry> entries;
      for (const auto& [key, value] : run_model) {
        entries.emplace_back(key, storage::SizedValue::Of(key, value));
        newest[key] = value;
      }
      runs.push_back(std::make_shared<storage::SortedRun>(std::move(entries)));
    }

    for (bool drop_tombstones : {false, true}) {
      std::shared_ptr<storage::SortedRun> merged =
          storage::LsmIndex::MergeRuns(runs, drop_tombstones);
      std::vector<std::pair<std::string, Value>> expected;
      for (const auto& [key, value] : newest) {
        if (drop_tombstones && storage::LsmIndex::IsTombstone(value)) continue;
        expected.emplace_back(key, value);
      }
      ASSERT_EQ(merged->size(), expected.size())
          << "round " << round << " drop_tombstones=" << drop_tombstones;
      size_t recomputed_bytes = 0;
      for (size_t i = 0; i < expected.size(); ++i) {
        const auto& [key, sized] = merged->entries()[i];
        EXPECT_EQ(key, expected[i].first);
        EXPECT_EQ(sized.value, expected[i].second);
        recomputed_bytes += key.size() + sized.value.ApproxSizeBytes();
      }
      // Carried sizes add up to what re-walking the survivors gives.
      EXPECT_EQ(merged->approx_bytes(), recomputed_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeRunsTest,
                         ::testing::Values(3, 17, 42, 8191, 65537, 271828));

// --- partitioned index: k-way merged Scan vs reference model -------------

class PartitionedScanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionedScanTest, ScanMergesPartitionsInGlobalKeyOrder) {
  common::Rng rng(GetParam());
  storage::LsmOptions options;
  options.partitions = static_cast<size_t>(rng.Uniform(2, 5));
  options.memtable_bytes_limit = 1 << (6 + rng.Uniform(0, 8));
  options.max_runs = static_cast<size_t>(rng.Uniform(2, 6));
  storage::PartitionedLsmIndex index(options);
  std::map<std::string, int64_t> model;

  auto check_scan = [&] {
    // Scan must agree with the model key-for-key: strict global key order
    // across the k-way merge, the newest write for each key, and no
    // resurrected tombstones.
    std::string prev;
    bool first = true;
    auto it = model.begin();
    index.Scan([&](const std::string& key, const Value& value) {
      if (!first) {
        EXPECT_LT(prev, key);
      }
      prev = key;
      first = false;
      ASSERT_NE(it, model.end());
      EXPECT_EQ(key, it->first);
      EXPECT_EQ(value.AsInt64(), it->second);
      ++it;
    });
    EXPECT_EQ(it, model.end());
  };

  for (int op = 0; op < 3000; ++op) {
    int64_t key_space = rng.Uniform(1, 400);
    auto key =
        storage::EncodeKey(Value::Int64(rng.Uniform(0, key_space)))
            .value();
    if (rng.Uniform(0, 9) < 7) {
      // Upsert: a fresh insert or an update shadowing an older write.
      int64_t value = rng.Uniform(0, 1 << 30);
      ASSERT_TRUE(index.Insert(key, Value::Int64(value)).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(index.Delete(key).ok());
      model.erase(key);
    }
    if (op % 389 == 0) check_scan();  // mid-stream, memtables half-full
  }
  index.Drain();  // settle background flush/merge, then re-check
  check_scan();
  EXPECT_EQ(index.Size(), static_cast<int64_t>(model.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionedScanTest,
                         ::testing::Values(2, 13, 42, 4096, 123457,
                                           271828, 999331));

// --- key encoding: total order matches value order -----------------------

class KeyOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyOrderTest, MixedNumericKeysSortConsistently) {
  common::Rng rng(GetParam());
  std::vector<double> doubles;
  for (int i = 0; i < 400; ++i) {
    doubles.push_back((rng.NextDouble() - 0.5) * std::pow(10, rng.Uniform(0, 12)));
  }
  std::vector<std::pair<std::string, double>> keyed;
  for (double d : doubles) {
    keyed.emplace_back(storage::EncodeKey(Value::Double(d)).value(), d);
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 1; i < keyed.size(); ++i) {
    EXPECT_LE(keyed[i - 1].second, keyed[i].second)
        << keyed[i - 1].second << " vs " << keyed[i].second;
  }
  // And every key decodes back to its exact value.
  for (const auto& [key, d] : keyed) {
    auto decoded = storage::DecodeKey(key);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->AsDouble(), d);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyOrderTest,
                         ::testing::Values(3, 17, 2024, 777));

// --- ADM round trip over random TweetGen output --------------------------

class AdmFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdmFuzzTest, GeneratedTweetsRoundTrip) {
  gen::TweetFactory factory(static_cast<int>(GetParam()), GetParam());
  for (int i = 0; i < 200; ++i) {
    Value tweet = factory.NextTweet();
    auto parsed = adm::ParseAdm(tweet.ToAdmString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, tweet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmFuzzTest,
                         ::testing::Values(0, 5, 11, 23));

// --- subscriber queue invariants under every mode -------------------------

class QueueInvariantTest
    : public ::testing::TestWithParam<feeds::ExcessMode> {};

TEST_P(QueueInvariantTest, AccountingIsExactAndOrderPreserved) {
  struct Input {
    int64_t budget_bytes;
    int frames;
    bool under_budget;  // every frame fits in half the budget
  };
  // A tight budget, where every mode's excess action engages; and a
  // budget the whole input stays under, with more frames queued before
  // the first drain than any fixed-size hand-off ring would hold.
  const Input kInputs[] = {{4096, 150, false}, {64LL << 20, 5000, true}};
  for (const Input& input : kInputs) {
    SCOPED_TRACE("budget " + std::to_string(input.budget_bytes) +
                 ", frames " + std::to_string(input.frames));
    feeds::SubscriberOptions options;
    options.mode = GetParam();
    options.memory_budget_bytes = input.budget_bytes;
    options.name = std::string("invariant_") +
                   feeds::ExcessModeName(GetParam());
    feeds::SubscriberQueue queue(options);

    constexpr int kPerFrame = 8;
    int64_t delivered_in = 0;
    int64_t delivered_bytes = 0;
    for (int f = 0; f < input.frames && !queue.failed(); ++f) {
      std::vector<Value> records;
      for (int r = 0; r < kPerFrame; ++r) {
        int64_t n = f * kPerFrame + r;
        records.push_back(
            Value::Record({{"id", Value::String(std::to_string(n))},
                           {"n", Value::Int64(n)}}));
      }
      delivered_in += kPerFrame;
      hyracks::FramePtr frame = hyracks::MakeFrame(std::move(records));
      delivered_bytes += static_cast<int64_t>(frame->ApproxBytes());
      queue.Deliver(std::move(frame), nullptr);
    }
    queue.DeliverEnd();

    int64_t seen = 0;
    int64_t last_n = -1;
    while (auto frame = queue.Next(500)) {
      for (const Value& record : (*frame)->records()) {
        // Order is preserved: n strictly increases even across policy
        // actions (spill restore, sampling, discard).
        int64_t n = record.GetField("n")->AsInt64();
        EXPECT_GT(n, last_n);
        last_n = n;
        ++seen;
      }
    }
    auto stats = queue.stats();
    if (queue.failed()) {
      // Basic: accounting holds up to the failure point, and only an
      // exhausted budget may fail it.
      EXPECT_EQ(GetParam(), feeds::ExcessMode::kBlock);
      EXPECT_FALSE(input.under_budget);
      continue;
    }
    // Conservation: in = out + discarded + sampled-away.
    EXPECT_EQ(delivered_in,
              seen + stats.records_discarded + stats.records_throttled_away)
        << "mode " << feeds::ExcessModeName(GetParam());
    // Spill round-trips losslessly.
    if (GetParam() == feeds::ExcessMode::kSpill) {
      EXPECT_EQ(seen, delivered_in);
      EXPECT_EQ(stats.frames_restored, stats.frames_spilled);
    }
    // Under budget no mode may drop or sample: the byte budget is the
    // only bound on what a subscriber queue buffers. (Throttle starts
    // sampling at half the budget, hence the factor of two.)
    if (input.under_budget) {
      ASSERT_LE(2 * delivered_bytes, input.budget_bytes);
      EXPECT_EQ(stats.records_discarded, 0);
      EXPECT_EQ(stats.records_throttled_away, 0);
      EXPECT_EQ(seen, delivered_in);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, QueueInvariantTest,
    ::testing::Values(feeds::ExcessMode::kBlock, feeds::ExcessMode::kSpill,
                      feeds::ExcessMode::kDiscard,
                      feeds::ExcessMode::kThrottle,
                      feeds::ExcessMode::kElastic),
    [](const ::testing::TestParamInfo<feeds::ExcessMode>& info) {
      return feeds::ExcessModeName(info.param);
    });

// --- joint delivery: every subscriber sees every frame, in order ----------

class JointFanoutTest : public ::testing::TestWithParam<int> {};

TEST_P(JointFanoutTest, GuaranteedInOrderDeliveryToAllSubscribers) {
  int subscribers = GetParam();
  feeds::FeedJoint joint("prop");
  std::vector<std::shared_ptr<feeds::SubscriberQueue>> queues;
  feeds::SubscriberOptions options;
  options.memory_budget_bytes = 1LL << 40;
  for (int s = 0; s < subscribers; ++s) {
    queues.push_back(joint.Subscribe(options));
  }
  constexpr int kFrames = 200;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(joint
                    .NextFrame(hyracks::MakeFrame({Value::Record(
                        {{"id", Value::String(std::to_string(f))},
                         {"n", Value::Int64(f)}})}))
                    .ok());
  }
  ASSERT_TRUE(joint.Close().ok());
  for (auto& queue : queues) {
    int64_t expected = 0;
    while (auto frame = queue->Next(500)) {
      EXPECT_EQ((*frame)->records()[0].GetField("n")->AsInt64(),
                expected);
      ++expected;
    }
    EXPECT_EQ(expected, kFrames);
    EXPECT_TRUE(queue->ended());
  }
}

INSTANTIATE_TEST_SUITE_P(Fanout, JointFanoutTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- SimulatedCpu: rate conformance and fairness ---------------------------

TEST(SimulatedCpuTest, GrantsApproximatelyConfiguredCapacity) {
  gen::SimulatedCpu cpu(2.0);  // 2 cores
  common::SleepMillis(5);      // let a little credit accrue
  common::Stopwatch watch;
  constexpr int kJobs = 400;
  constexpr int64_t kCostUs = 1000;  // 0.4 core-seconds of demand
  for (int i = 0; i < kJobs; ++i) cpu.Consume(kCostUs);
  double elapsed_s = watch.ElapsedSeconds();
  double ideal_s = kJobs * kCostUs / 1e6 / 2.0;  // 0.2s at 2 cores
  EXPECT_GE(elapsed_s, ideal_s * 0.45);  // burst credit can halve it
  EXPECT_LE(elapsed_s, ideal_s * 3.0);
}

TEST(SimulatedCpuTest, FifoFairnessBetweenCheapAndExpensiveConsumers) {
  gen::SimulatedCpu cpu(1.0);
  std::atomic<int> cheap{0};
  std::atomic<int> expensive{0};
  std::atomic<bool> run{true};
  std::thread cheap_thread([&] {
    while (run.load()) {
      cpu.Consume(200);
      cheap.fetch_add(1);
    }
  });
  std::thread expensive_thread([&] {
    while (run.load()) {
      cpu.Consume(1000);
      expensive.fetch_add(1);
    }
  });
  common::SleepMillis(400);
  run.store(false);
  cheap_thread.join();
  expensive_thread.join();
  // FIFO grants alternate between the two waiters, so their completion
  // COUNTS stay comparable (a greedy bucket would let the cheap one
  // finish ~5x as many).
  ASSERT_GT(expensive.load(), 0);
  double ratio =
      static_cast<double>(cheap.load()) / expensive.load();
  EXPECT_LT(ratio, 2.5) << "cheap=" << cheap << " expensive=" << expensive;
}

}  // namespace
}  // namespace asterix
