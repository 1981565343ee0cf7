#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_shim.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace asterix {
namespace common {
namespace {

// ---- atomic shim pass-through (normal build) ------------------------
// The model build replaces these primitives wholesale; these tests pin
// the NORMAL build's behaviour so the shim can never drift from the std
// primitives it aliases (the static_asserts in atomic_shim.h pin the
// layout; these pin the semantics the data plane relies on).

TEST(AtomicShimTest, AtomicIsStdAtomicPassThrough) {
  static_assert(std::is_same_v<Atomic<uint64_t>, std::atomic<uint64_t>>);
  Atomic<uint64_t> a{7};
  EXPECT_EQ(a.load(std::memory_order_acquire), 7u);
  EXPECT_EQ(a.fetch_add(3, std::memory_order_acq_rel), 7u);
  uint64_t expected = 10;
  EXPECT_TRUE(a.compare_exchange_strong(expected, 42));
  EXPECT_EQ(a.load(), 42u);
}

TEST(AtomicShimTest, DataCellSetTakeCopySwap) {
  DataCell<int> cell(5);
  EXPECT_EQ(cell.Copy(), 5);
  cell.Set(9);
  EXPECT_EQ(cell.Copy(), 9);
  int other = 11;
  cell.SwapWith(other);
  EXPECT_EQ(other, 9);
  EXPECT_EQ(cell.Copy(), 11);
  EXPECT_EQ(cell.Take(), 11);
  EXPECT_EQ(cell.Copy(), 0);  // Take resets to T{}
}

TEST(AtomicShimTest, SpinWaitWhileReturnsOnStore) {
  Atomic<bool> flag{true};
  std::thread releaser([&] {
    SleepMillis(5);
    flag.store(false, std::memory_order_release);
  });
  SpinWaitWhile(flag, true);  // must return once the store lands
  EXPECT_FALSE(flag.load(std::memory_order_acquire));
  releaser.join();
}

TEST(AtomicShimTest, FenceIsCallable) {
  // Pass-through build: this compiles to the std primitive and is safe
  // to call from any context.
  AtomicFence(std::memory_order_seq_cst);
  AtomicFence(std::memory_order_acquire);
  AtomicFence(std::memory_order_release);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IOError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
}

TEST(StringsTest, SplitAndTrim) {
  auto pieces = SplitAndTrim(" a, b ,c ,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
  EXPECT_EQ(pieces[3], "");
}

TEST(StringsTest, TrimEdges) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(Join(pieces, ","), "x,y,z");
}

TEST(StringsTest, Fnv1aIsStableAndSpread) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
}

// --- FailPoint registry -----------------------------------------------------

/// A function instrumented the way production seams are.
Status GuardedStep() {
  ASTERIX_FAILPOINT("test.common.step");
  return Status::OK();
}

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailPointRegistry::Instance().DisarmAll(); }
  FailPointRegistry& registry() { return FailPointRegistry::Instance(); }
};

TEST_F(FailPointTest, UnarmedSiteIsInert) {
  EXPECT_FALSE(FailPointRegistry::AnyArmed());
  EXPECT_TRUE(registry().Evaluate("test.common.nothing").ok());
  EXPECT_EQ(registry().Hits("test.common.nothing"), 0);
  EXPECT_TRUE(GuardedStep().ok());
}

TEST_F(FailPointTest, OnceFiresExactlyOnce) {
  registry().Arm("test.common.once",
                 FailPointPolicy::Error(Status::IOError("boom")).Once());
  EXPECT_TRUE(FailPointRegistry::AnyArmed());
  int failures = 0;
  for (int i = 0; i < 5; ++i) {
    if (!registry().Evaluate("test.common.once").ok()) ++failures;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(registry().Fires("test.common.once"), 1);
  EXPECT_EQ(registry().Hits("test.common.once"), 5);
}

TEST_F(FailPointTest, EveryNthFiresOnMultiples) {
  registry().Arm("test.common.nth",
                 FailPointPolicy::Error(Status::IOError("boom")).EveryNth(3));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(!registry().Evaluate("test.common.nth").ok());
  }
  std::vector<bool> expected = {false, false, true, false, false,
                                true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(registry().Fires("test.common.nth"), 3);
}

TEST_F(FailPointTest, ProbabilityIsDeterministicForSeed) {
  auto sample = [&](uint64_t seed) {
    registry().Arm("test.common.prob",
                   FailPointPolicy::Error(Status::IOError("boom"))
                       .WithProbability(0.5, seed));
    std::vector<bool> outcomes;
    for (int i = 0; i < 100; ++i) {
      outcomes.push_back(!registry().Evaluate("test.common.prob").ok());
    }
    registry().Disarm("test.common.prob");
    return outcomes;
  };
  auto first = sample(123);
  auto replay = sample(123);
  EXPECT_EQ(first, replay);  // re-arming with the seed reproduces the run
  int fires = static_cast<int>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 20);
  EXPECT_LT(fires, 80);
  EXPECT_NE(sample(321), first);  // a different seed draws differently
}

TEST_F(FailPointTest, SkipFirstAndMaxFiresBoundTheWindow) {
  registry().Arm("test.common.window",
                 FailPointPolicy::Error(Status::IOError("boom"))
                     .SkipFirst(2)
                     .MaxFires(2));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(!registry().Evaluate("test.common.window").ok());
  }
  std::vector<bool> expected = {false, false, true, true, false, false};
  EXPECT_EQ(fired, expected);
}

TEST_F(FailPointTest, InstanceFilterRestrictsFiring) {
  registry().Arm("test.common.inst",
                 FailPointPolicy::Error(Status::IOError("boom"))
                     .OnInstance("B"));
  EXPECT_TRUE(registry().Evaluate("test.common.inst", "A").ok());
  EXPECT_FALSE(registry().Evaluate("test.common.inst", "B").ok());
  EXPECT_EQ(registry().Fires("test.common.inst"), 1);
}

TEST_F(FailPointTest, DelayAndCallbackActionsContinueNormally) {
  registry().Arm("test.common.delay", FailPointPolicy::Delay(30));
  Stopwatch watch;
  EXPECT_TRUE(registry().Evaluate("test.common.delay").ok());
  EXPECT_GE(watch.ElapsedMillis(), 25);

  int called = 0;
  registry().Arm("test.common.cb",
                 FailPointPolicy::Call([&called] { ++called; }));
  EXPECT_TRUE(registry().Evaluate("test.common.cb").ok());
  EXPECT_TRUE(registry().Evaluate("test.common.cb").ok());
  EXPECT_EQ(called, 2);
}

TEST_F(FailPointTest, DisarmAllSilencesEverySite) {
  registry().Arm("test.common.a", FailPointPolicy::Error(Status::IOError("x")));
  registry().Arm("test.common.b", FailPointPolicy::Error(Status::IOError("y")));
  registry().DisarmAll();
  EXPECT_FALSE(FailPointRegistry::AnyArmed());
  EXPECT_TRUE(registry().Evaluate("test.common.a").ok());
  EXPECT_TRUE(registry().Evaluate("test.common.b").ok());
}

TEST_F(FailPointTest, MacroInjectsStatusIntoGuardedFunction) {
  if (!kFailPointsCompiledIn) {
    GTEST_SKIP() << "built with ASTERIX_FAILPOINTS=OFF";
  }
  registry().Arm("test.common.step",
                 FailPointPolicy::Error(Status::IOError("injected")));
  Status status = GuardedStep();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  registry().Disarm("test.common.step");
  EXPECT_TRUE(GuardedStep().ok());
}

TEST_F(FailPointTest, ChaosScheduleFollowsItsTimeline) {
  ChaosSchedule schedule(/*seed=*/1);
  schedule
      .ArmAt(0, "test.common.timeline",
             FailPointPolicy::Error(Status::IOError("scripted")))
      .DisarmAt(120, "test.common.timeline");
  EXPECT_TRUE(registry().Evaluate("test.common.timeline").ok());
  schedule.Start();
  // The arm step lands within the first slice of the timeline...
  Stopwatch watch;
  bool armed = false;
  while (watch.ElapsedMillis() < 1000 && !armed) {
    armed = !registry().Evaluate("test.common.timeline").ok();
    if (!armed) SleepMillis(5);
  }
  EXPECT_TRUE(armed);
  // ...and the disarm step silences it again.
  watch = Stopwatch();
  bool disarmed = false;
  while (watch.ElapsedMillis() < 1000 && !disarmed) {
    disarmed = registry().Evaluate("test.common.timeline").ok();
    if (!disarmed) SleepMillis(5);
  }
  EXPECT_TRUE(disarmed);
  schedule.Stop();
}

TEST_F(FailPointTest, ChaosScheduleDerivesReproducibleProbabilitySeeds) {
  auto sample = [&](uint64_t seed) {
    ChaosSchedule schedule(seed);
    // Default policy seed: the schedule derives a per-step seed from its
    // own seed, making the whole timeline a one-knob reproduction.
    schedule.ArmAt(0, "test.common.derived",
                   FailPointPolicy::Error(Status::IOError("boom"))
                       .WithProbability(0.5));
    schedule.Start();
    // Wait for the arm step WITHOUT evaluating the site: every Evaluate
    // consumes an Rng draw, and both samples must start at draw zero.
    Stopwatch watch;
    while (watch.ElapsedMillis() < 1000 && !FailPointRegistry::AnyArmed()) {
      SleepMillis(1);
    }
    std::vector<bool> outcomes;
    for (int i = 0; i < 60; ++i) {
      outcomes.push_back(!registry().Evaluate("test.common.derived").ok());
    }
    schedule.Stop();
    return outcomes;
  };
  EXPECT_EQ(sample(4242), sample(4242));
}

}  // namespace
}  // namespace common
}  // namespace asterix
