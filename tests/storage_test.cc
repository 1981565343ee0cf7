#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/dataset.h"
#include "storage/key.h"
#include "storage/lsm_index.h"
#include "storage/secondary_index.h"
#include "storage/wal.h"

namespace asterix {
namespace storage {
namespace {

using adm::TypeTag;
using adm::Value;

std::string TempDir(const std::string& name) {
  std::string dir = "/tmp/asterix_test/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(KeyTest, IntOrderPreserved) {
  auto k1 = EncodeKey(Value::Int64(-100)).value();
  auto k2 = EncodeKey(Value::Int64(-1)).value();
  auto k3 = EncodeKey(Value::Int64(0)).value();
  auto k4 = EncodeKey(Value::Int64(1)).value();
  auto k5 = EncodeKey(Value::Int64(1LL << 40)).value();
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);
  EXPECT_LT(k3, k4);
  EXPECT_LT(k4, k5);
}

TEST(KeyTest, DoubleOrderPreserved) {
  auto keys = {
      EncodeKey(Value::Double(-1e9)).value(),
      EncodeKey(Value::Double(-1.5)).value(),
      EncodeKey(Value::Double(-0.0)).value(),
      EncodeKey(Value::Double(0.25)).value(),
      EncodeKey(Value::Double(3.14)).value(),
      EncodeKey(Value::Double(1e12)).value(),
  };
  std::string prev;
  bool first = true;
  for (const auto& k : keys) {
    if (!first) {
      EXPECT_LE(prev, k);
    }
    prev = k;
    first = false;
  }
}

TEST(KeyTest, RoundTrip) {
  for (const Value& v :
       {Value::Int64(-7), Value::Double(2.5), Value::String("abc"),
        Value::Datetime(12345)}) {
    auto key = EncodeKey(v).value();
    auto back = DecodeKey(key);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(KeyTest, NonKeyableTypesRejected) {
  EXPECT_FALSE(EncodeKey(Value::Null()).ok());
  EXPECT_FALSE(EncodeKey(Value::Record({})).ok());
  EXPECT_FALSE(EncodeKey(Value::List({})).ok());
}

TEST(KeyTest, PropertyRandomIntsSortLikeValues) {
  common::Rng rng(7);
  std::vector<int64_t> ints;
  for (int i = 0; i < 500; ++i) {
    ints.push_back(rng.Uniform(INT64_MIN / 2, INT64_MAX / 2));
  }
  std::vector<std::pair<std::string, int64_t>> keyed;
  for (int64_t i : ints) {
    keyed.emplace_back(EncodeKey(Value::Int64(i)).value(), i);
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 1; i < keyed.size(); ++i) {
    EXPECT_LE(keyed[i - 1].second, keyed[i].second);
  }
}

TEST(WalTest, AppendAndReplay) {
  std::string dir = TempDir("wal");
  Wal wal(dir + "/test.wal");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("one").ok());
  ASSERT_TRUE(wal.Append("two").ok());
  ASSERT_TRUE(wal.Append("").ok());
  EXPECT_EQ(wal.entry_count(), 3);
  std::vector<std::string> replayed;
  ASSERT_TRUE(
      wal.Replay([&](const std::string& e) { replayed.push_back(e); })
          .ok());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0], "one");
  EXPECT_EQ(replayed[1], "two");
  EXPECT_EQ(replayed[2], "");
}

TEST(WalTest, AppendWithoutOpenFails) {
  Wal wal("/tmp/asterix_test/never_opened.wal");
  EXPECT_FALSE(wal.Append("x").ok());
}

// Crash recovery: a crash can cut the log anywhere — at a record boundary,
// inside a payload, even inside the 4-byte length prefix. Replay must
// return exactly the complete prefix: every entry fully on disk before the
// cut, the torn tail dropped, nothing duplicated or invented.
TEST(WalTest, ReplayAfterCrashTruncationRecoversExactPrefix) {
  constexpr int kEntries = 100;
  // "entry-0000" is 10 bytes; with the 4-byte length prefix every record
  // occupies exactly 14 bytes, so cut points are easy to aim.
  constexpr uint64_t kRecordBytes = 14;
  auto payload = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "entry-%04d", i);
    return std::string(buf);
  };

  struct Cut {
    const char* name;
    uint64_t offset;  // bytes to keep
    int survivors;    // complete entries expected after replay
  };
  const Cut cuts[] = {
      {"record boundary", 40 * kRecordBytes, 40},
      {"mid payload", 40 * kRecordBytes + 4 + 3, 40},
      {"mid length prefix", 40 * kRecordBytes + 2, 40},
      {"first record torn", 5, 0},
      {"nothing written", 0, 0},
  };
  for (const Cut& cut : cuts) {
    std::string dir = TempDir("wal_crash");
    std::string path = dir + "/crash.wal";
    {
      Wal wal(path);
      ASSERT_TRUE(wal.Open().ok());
      for (int i = 0; i < kEntries; ++i) {
        ASSERT_TRUE(wal.Append(payload(i)).ok());
      }
      ASSERT_TRUE(wal.Sync().ok());
    }  // closed cleanly; the "crash" is the truncation below
    ASSERT_EQ(std::filesystem::file_size(path), kEntries * kRecordBytes);
    std::filesystem::resize_file(path, cut.offset);

    Wal recovered(path);
    std::vector<std::string> replayed;
    ASSERT_TRUE(recovered
                    .Replay([&](const std::string& e) {
                      replayed.push_back(e);
                    })
                    .ok())
        << cut.name;
    ASSERT_EQ(replayed.size(), static_cast<size_t>(cut.survivors))
        << cut.name;
    for (int i = 0; i < cut.survivors; ++i) {
      EXPECT_EQ(replayed[i], payload(i)) << cut.name;
    }
  }
}

TEST(LsmTest, InsertThenGet) {
  LsmIndex index;
  auto key = EncodeKey(Value::Int64(1)).value();
  ASSERT_TRUE(index.Insert(key, Value::String("v")).ok());
  auto got = index.Get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->AsString(), "v");
  EXPECT_FALSE(index.Get("missing").has_value());
}

TEST(LsmTest, UpsertNewestWins) {
  LsmIndex index;
  auto key = EncodeKey(Value::Int64(1)).value();
  ASSERT_TRUE(index.Insert(key, Value::Int64(1)).ok());
  ASSERT_TRUE(index.Insert(key, Value::Int64(2)).ok());
  EXPECT_EQ(index.Get(key)->AsInt64(), 2);
  EXPECT_EQ(index.Size(), 1);
}

TEST(LsmTest, UpsertAcrossFlushBoundary) {
  LsmOptions options;
  options.memtable_bytes_limit = 1;  // flush on every insert
  LsmIndex index(options);
  auto key = EncodeKey(Value::Int64(1)).value();
  ASSERT_TRUE(index.Insert(key, Value::Int64(1)).ok());
  ASSERT_TRUE(index.Insert(key, Value::Int64(2)).ok());
  EXPECT_EQ(index.Get(key)->AsInt64(), 2);
  EXPECT_EQ(index.Size(), 1);
  EXPECT_GE(index.stats().flushes, 2);
}

TEST(LsmTest, FlushAndMergeMaintainContents) {
  LsmOptions options;
  options.memtable_bytes_limit = 256;  // frequent flushes
  options.max_runs = 3;
  LsmIndex index(options);
  constexpr int kRecords = 500;
  for (int i = 0; i < kRecords; ++i) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(i * 10)).ok());
  }
  index.Drain();  // wait for background flush/merge to catch up
  EXPECT_GT(index.stats().flushes, 0);
  EXPECT_GT(index.stats().merges, 0);
  EXPECT_EQ(index.Size(), kRecords);
  for (int i = 0; i < kRecords; i += 37) {
    auto key = EncodeKey(Value::Int64(i)).value();
    auto got = index.Get(key);
    ASSERT_TRUE(got.has_value()) << "missing key " << i;
    EXPECT_EQ(got->AsInt64(), i * 10);
  }
}

TEST(LsmTest, ScanIsSortedAndComplete) {
  LsmOptions options;
  options.memtable_bytes_limit = 128;
  LsmIndex index(options);
  common::Rng rng(3);
  std::set<int64_t> inserted;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.Uniform(0, 10000);
    inserted.insert(v);
    auto key = EncodeKey(Value::Int64(v)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(v)).ok());
  }
  std::vector<int64_t> scanned;
  index.Scan([&](const std::string&, const Value& v) {
    scanned.push_back(v.AsInt64());
  });
  ASSERT_EQ(scanned.size(), inserted.size());
  auto it = inserted.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i], *it);  // key encoding preserves order
  }
}

TEST(SecondaryIndexTest, BTreeExactAndRange) {
  BTreeSecondaryIndex index("byCount", "count");
  for (int i = 0; i < 10; ++i) {
    Value r = Value::Record({{"id", Value::String("k" + std::to_string(i))},
                             {"count", Value::Int64(i % 3)}});
    ASSERT_TRUE(
        index.Insert(r, EncodeKey(*r.GetField("id")).value()).ok());
  }
  EXPECT_EQ(index.SearchExact(Value::Int64(0)).size(), 4u);
  EXPECT_EQ(index.SearchExact(Value::Int64(1)).size(), 3u);
  EXPECT_EQ(index.SearchExact(Value::Int64(9)).size(), 0u);
  EXPECT_EQ(index.SearchRange(Value::Int64(1), Value::Int64(2)).size(), 6u);
  EXPECT_EQ(index.entry_count(), 10);
}

TEST(SecondaryIndexTest, SkipsRecordsLackingField) {
  BTreeSecondaryIndex index("byX", "x");
  Value r = Value::Record({{"id", Value::String("a")}});
  ASSERT_TRUE(index.Insert(r, "pk").ok());
  EXPECT_EQ(index.entry_count(), 0);
}

TEST(SecondaryIndexTest, SpatialGridRectQuery) {
  SpatialGridIndex index("byLoc", "location", /*cell_size=*/1.0);
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      Value r = Value::Record(
          {{"id", Value::String(std::to_string(x) + "," +
                                std::to_string(y))},
           {"location", Value::MakePoint(x + 0.5, y + 0.5)}});
      ASSERT_TRUE(
          index.Insert(r, EncodeKey(*r.GetField("id")).value()).ok());
    }
  }
  // A 3x3 box.
  auto hits = index.SearchRect({2.0, 2.0, 4.99, 4.99});
  EXPECT_EQ(hits.size(), 9u);
  // Whole space.
  EXPECT_EQ(index.SearchRect({0, 0, 10, 10}).size(), 100u);
  // Empty corner.
  EXPECT_EQ(index.SearchRect({-5, -5, -1, -1}).size(), 0u);
}

TEST(SecondaryIndexTest, SpatialRejectsNonPoint) {
  SpatialGridIndex index("byLoc", "location");
  Value r = Value::Record({{"location", Value::Int64(1)}});
  EXPECT_FALSE(index.Insert(r, "pk").ok());
}

DatasetDef TweetsDef(const std::string& name = "Tweets") {
  DatasetDef def;
  def.name = name;
  def.datatype = "Tweet";
  def.primary_key_field = "id";
  def.indexes.push_back({"locationIndex", "location", IndexKind::kRTree});
  return def;
}

TEST(DatasetPartitionTest, InsertMaintainsPrimaryAndSecondary) {
  std::string dir = TempDir("partition");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  for (int i = 0; i < 20; ++i) {
    Value r = Value::Record(
        {{"id", Value::String("t" + std::to_string(i))},
         {"location", Value::MakePoint(i, i)},
         {"text", Value::String("hello")}});
    ASSERT_TRUE(partition.Insert(r).ok());
  }
  EXPECT_EQ(partition.record_count(), 20);
  auto got = partition.Get(Value::String("t7"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetField("text")->AsString(), "hello");
  auto* index =
      static_cast<SpatialGridIndex*>(partition.FindIndex("locationIndex"));
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->SearchRect({0, 0, 5.5, 5.5}).size(), 6u);
}

TEST(DatasetPartitionTest, RejectsMissingPrimaryKey) {
  std::string dir = TempDir("partition_pk");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  EXPECT_FALSE(
      partition.Insert(Value::Record({{"x", Value::Int64(1)}})).ok());
  EXPECT_FALSE(partition.Insert(Value::Int64(1)).ok());
}

TEST(DatasetPartitionTest, ValidatesTypeWhenRequested) {
  std::string dir = TempDir("partition_type");
  adm::TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(adm::TypeBuilder("Tweet", /*open=*/false)
                                .Field("id", TypeTag::kString)
                                .Build())
                  .ok());
  DatasetDef def = TweetsDef();
  def.indexes.clear();
  def.validate_type = true;
  DatasetPartition partition(def, 0, dir, &registry);
  ASSERT_TRUE(partition.Open().ok());
  EXPECT_TRUE(
      partition.Insert(Value::Record({{"id", Value::String("a")}})).ok());
  EXPECT_FALSE(partition
                   .Insert(Value::Record({{"id", Value::String("b")},
                                          {"zzz", Value::Int64(1)}}))
                   .ok());
}

TEST(DatasetPartitionTest, WalRecordsEveryInsert) {
  std::string dir = TempDir("partition_wal");
  DatasetDef def = TweetsDef();
  def.indexes.clear();
  DatasetPartition partition(def, 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(partition
                    .Insert(Value::Record(
                        {{"id", Value::String(std::to_string(i))}}))
                    .ok());
  }
  EXPECT_EQ(partition.wal().entry_count(), 5);
  ASSERT_TRUE(partition.SyncWal().ok());
  std::string wal_path = dir + "/Tweets.p0.wal";
  ASSERT_TRUE(std::filesystem::exists(wal_path));
  EXPECT_GT(std::filesystem::file_size(wal_path), 0u);
  // Replay returns exactly the inserted records.
  std::vector<std::string> entries;
  ASSERT_TRUE(partition.wal()
                  .Replay([&](const std::string& e) {
                    entries.push_back(e);
                  })
                  .ok());
  EXPECT_EQ(entries.size(), 5u);
}

TEST(StorageManagerTest, PartitionLifecycle) {
  std::string dir = TempDir("manager");
  StorageManager manager("nodeA", dir);
  ASSERT_TRUE(manager.CreatePartition(TweetsDef(), 0, nullptr).ok());
  EXPECT_FALSE(manager.CreatePartition(TweetsDef(), 1, nullptr).ok());
  EXPECT_NE(manager.GetPartition("Tweets"), nullptr);
  EXPECT_EQ(manager.GetPartition("Nope"), nullptr);
  EXPECT_EQ(manager.DatasetNames().size(), 1u);
  ASSERT_TRUE(manager.DropPartition("Tweets").ok());
  EXPECT_EQ(manager.GetPartition("Tweets"), nullptr);
  EXPECT_FALSE(manager.DropPartition("Tweets").ok());
}

TEST(PartitionedLsmTest, RoutesAcrossPartitionsAndScansInOrder) {
  LsmOptions options;
  options.partitions = 4;
  options.memtable_bytes_limit = 256;
  PartitionedLsmIndex index(options);
  ASSERT_EQ(index.partition_count(), 4u);
  constexpr int kRecords = 300;
  for (int i = 0; i < kRecords; ++i) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(i * 3)).ok());
  }
  EXPECT_EQ(index.Size(), kRecords);
  // Every partition received data (FNV spreads 300 keys over 4 shards).
  for (size_t p = 0; p < index.partition_count(); ++p) {
    EXPECT_GT(index.partition(p).Size(), 0) << "partition " << p;
  }
  // Global scan is in key order despite hash partitioning.
  int64_t expected = 0;
  std::string prev_key;
  index.Scan([&](const std::string& key, const Value& v) {
    if (!prev_key.empty()) {
      EXPECT_LT(prev_key, key);
    }
    prev_key = key;
    EXPECT_EQ(v.AsInt64(), expected * 3);
    ++expected;
  });
  EXPECT_EQ(expected, kRecords);
  for (int i = 0; i < kRecords; i += 23) {
    auto key = EncodeKey(Value::Int64(i)).value();
    auto got = index.Get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->AsInt64(), i * 3);
  }
}

TEST(LsmConcurrencyTest, EightWritersWithConcurrentReaders) {
  LsmOptions options;
  options.memtable_bytes_limit = 512;  // force many flushes and merges
  options.max_runs = 3;
  options.partitions = 4;
  PartitionedLsmIndex index(options);
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 300;

  std::atomic<bool> stop_readers{false};
  // Concurrent point reader: observed values must always be one of the
  // versions a writer produced for that key (no torn or phantom values).
  std::thread reader([&] {
    common::Rng rng(99);
    while (!stop_readers.load()) {
      int64_t k = rng.Uniform(0, kThreads * kKeysPerThread);
      auto key = EncodeKey(Value::Int64(k)).value();
      auto got = index.Get(key);
      if (got.has_value()) {
        int64_t v = got->AsInt64();
        EXPECT_TRUE(v == -1 || v == k * 7) << "key " << k << " -> " << v;
      }
    }
  });
  // Concurrent scanner: sorted keys, valid values, never crashes while
  // flushes and merges swap components underneath.
  std::thread scanner([&] {
    while (!stop_readers.load()) {
      std::string prev;
      index.Scan([&](const std::string& key, const Value& v) {
        if (!prev.empty()) {
          EXPECT_LT(prev, key);
        }
        prev = key;
        int64_t raw = v.AsInt64();
        EXPECT_TRUE(raw == -1 || raw % 7 == 0);
      });
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&index, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        int64_t k = t * kKeysPerThread + i;
        auto key = EncodeKey(Value::Int64(k)).value();
        // Two writes per key: the second must win (newest-wins across
        // memtable, sealed memtables, and runs).
        ASSERT_TRUE(index.Insert(key, Value::Int64(-1)).ok());
        ASSERT_TRUE(index.Insert(key, Value::Int64(k * 7)).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop_readers.store(true);
  reader.join();
  scanner.join();

  index.Drain();
  LsmStats stats = index.stats();
  EXPECT_EQ(stats.inserts, kThreads * kKeysPerThread * 2);
  EXPECT_EQ(index.Size(), kThreads * kKeysPerThread);  // no lost keys
  EXPECT_GT(stats.flushes, 0);
  EXPECT_GT(stats.merges, 0);
  // The insert path never blocked on a flush or merge.
  EXPECT_EQ(stats.insert_stall_ms, 0);
  for (int64_t k = 0; k < kThreads * kKeysPerThread; ++k) {
    auto key = EncodeKey(Value::Int64(k)).value();
    auto got = index.Get(key);
    ASSERT_TRUE(got.has_value()) << "lost key " << k;
    EXPECT_EQ(got->AsInt64(), k * 7) << "stale value for key " << k;
  }
}

TEST(LsmConcurrencyTest, CloseDrainsPendingWorkDeterministically) {
  LsmOptions options;
  options.memtable_bytes_limit = 1;  // seal on every insert
  options.max_runs = 4;
  LsmIndex index(options);
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(i)).ok());
  }
  // Close without an explicit Drain: every sealed memtable must still
  // reach a run before shutdown completes.
  index.Close();
  EXPECT_EQ(index.flush_backlog(), 0u);
  EXPECT_GT(index.run_count(), 0u);
  EXPECT_EQ(index.Size(), kRecords);
  for (int i = 0; i < kRecords; i += 17) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Get(key).has_value()) << "lost key " << i;
  }
}

TEST(LsmConcurrencyTest, BoundedImmutablesRecordStallTime) {
  LsmOptions options;
  options.memtable_bytes_limit = 1;     // seal on every insert
  options.max_immutable_memtables = 1;  // force backpressure waits
  LsmIndex index(options);
  for (int i = 0; i < 500; ++i) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(i)).ok());
  }
  index.Drain();
  EXPECT_EQ(index.Size(), 500);
  // Stall accounting is wired (stalls may round to 0ms on a fast flush
  // path, so only sanity-check the counter is non-negative).
  EXPECT_GE(index.stats().insert_stall_ms, 0);
}

TEST(PartitioningTest, KeysSpreadAcrossPartitions) {
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    auto key = EncodeKey(Value::String("key" + std::to_string(i))).value();
    int p = PartitionOfKey(key, 4);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 4);
    seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 4u);  // all partitions receive data
}

TEST(PartitioningTest, SinglePartitionAlwaysZero) {
  EXPECT_EQ(PartitionOfKey("anything", 1), 0);
  EXPECT_EQ(PartitionOfKey("anything", 0), 0);
}

TEST(PartitioningTest, Deterministic) {
  auto key = EncodeKey(Value::String("stable")).value();
  EXPECT_EQ(PartitionOfKey(key, 8), PartitionOfKey(key, 8));
}

}  // namespace
}  // namespace storage
}  // namespace asterix
