// Lock ranking: the global acquisition-order hierarchy for every mutex in
// src/. Deadlock freedom is made a *checked* property of the codebase:
//
//   A thread may only acquire a mutex whose rank is STRICTLY LOWER than
//   the rank of every mutex it already holds.
//
// Outermost locks therefore carry the highest rank values and leaf locks
// (logging, the metrics maps) the lowest. The layering follows the
// dependency direction of the system — feeds call into hyracks call into
// storage call into common — so the bands are
//
//     common (0-99)  <  adm (100-119)  <  gen (120-149)
//       <  storage (200-299)  <  hyracks (300-399)  <  feeds (400-499)
//       <  baseline (500-599)
//
// with explicit intra-layer ranks for the chains that actually nest
// (joint -> subscriber queue -> bucket pool; ack collector -> ack bus /
// pending tracker; metrics provider callbacks -> pipeline objects).
//
// Two mechanisms enforce this enum:
//   * the runtime checker (common/deadlock_detector.h, compiled in under
//     ASTERIX_DEADLOCK_DETECTOR; `ctest --preset deadlock` runs every
//     test under it) aborts with a witness report on any acquisition that
//     does not strictly descend the hierarchy. It is the one enforcer of
//     the order itself;
//   * tools/lint/check_invariants.py requires every Mutex/SharedMutex
//     construction in src/ to name a rank (LOCK-RANK), every rank but
//     kUnranked to be some mutex's rank (RANK-UNUSED), and the README
//     rank table to match this enum (RANK-README).
//
// Adding a mutex? Pick the band of its layer, give it a value that
// reflects where it sits in real acquisition chains (inner = lower), add
// it to LockRankName() and to the README "Lock ranking" table.
#pragma once

#include <cstdint>

namespace asterix {
namespace common {

enum class LockRank : uint16_t {
  // ---- common (0-99): leaves, safe to take while holding anything ----
  kQueueParking = 5,       // EventCount parking lot under the lock-free
                           // rings (mpmc_queue.h) — the lowest rank:
                           // nothing is ever acquired under it
  kLogging = 10,           // logging.cc g_mutex (log-file swap)
  kMetricsRegistry = 20,   // MetricsRegistry metric maps (GetCounter/...)
  kFailPointRegistry = 30, // FailPointRegistry armed-site map
  kChaosSchedule = 40,     // ChaosSchedule driver wakeup
  kTracer = 50,            // feeds/trace.h span ring (observability leaf)
  kSimCpu = 60,            // gen/simcpu.h CPU credit gate
  kMemGovernor = 70,       // MemGovernor pool map + per-pool waiter
                           // parking (ReserveFor). A leaf below every
                           // storage/feeds lock: Release's waiter-notify
                           // path runs while callers hold kWal/kLsmIndex/
                           // kSubscriberQueue, so those must rank higher.

  // ---- adm (100-119) ----
  kTypeRegistry = 110,     // adm datatype catalog

  // ---- storage (200-299): inner to outer along the write path ----
  kWal = 210,              // write-ahead log file
  kLsmIndex = 220,         // one LSM partition (memtable/runs)
  kSecondaryIndex = 230,   // B-tree / R-tree secondary
  kDatasetIndexes = 240,   // DatasetPartition secondary-index membership
  kStorageManager = 250,   // node-local partition map
  kDatasetCatalog = 260,   // cluster-wide dataset metadata

  // ---- hyracks (300-399) ----
  // (310 was kTaskQueue, the task input queue's mutex — retired when the
  // pump moved to the rank-exempt lock-free ring in common/mpmc_queue.h.)
  kCollectSink = 320,      // CollectSinkOperator shared vector
  kNodeController = 330,   // node services + task roster
  kClusterController = 340,// cluster node/job/listener maps

  // ---- feeds (400-499): joint -> subscriber -> ack chains ----
  kBucketPool = 410,       // DataBucketPool free list
  kSubscriberQueue = 420,  // per-subscriber excess-record queue
  kFeedJoint = 430,        // joint subscriber/primary membership
  kIntervalCounter = 440,  // ConnectionMetrics timeline bins
  kAckBus = 450,           // ack handler registry
  kPendingTracker = 455,   // intake unacked-record ledger
  kAckCollector = 460,     // store-side ack batcher
  kConnectionMetrics = 470,// per-connection intake queue registry
  kFeedManager = 480,      // node-local joint/zombie/handoff maps
  kFeedCatalog = 485,      // feed definitions
  kAdaptorRegistry = 486,  // adaptor factories
  kChannelRegistry = 487,  // push-channel endpoints
  kUdfRegistry = 488,      // UDF catalog
  kPolicyRegistry = 489,   // ingestion policy catalog
  kMetricsProviders = 490, // registry provider list; callbacks take
                           // pipeline locks (<= kConnectionMetrics)
  kCentralFeedManager = 495, // outermost: connection/joint/head maps

  // ---- baseline (500-599) ----
  kStormSpoutTracker = 520,// spout pending/replay ledger
  kStormAcker = 530,       // acker XOR trees
  kMongoCollection = 540,  // mongo document map
  kMongoWriteLock = 550,   // mongo 2.x coarse write lock
  kMongoDb = 560,          // collection registry

  // ---- reserved (900+) ----
  kTestRankLow = 910,      // deadlock_test seeded hierarchies
  kTestRankMid = 920,
  kTestRankHigh = 930,
  kUnranked = 999,         // opt-out (tests/examples only; the runtime
                           // checker ignores unranked mutexes and the
                           // LOCK-RANK lint bans them in src/)
};

/// Enum name of `rank` ("kFeedJoint"), for witness reports and tests.
const char* LockRankName(LockRank rank);

}  // namespace common
}  // namespace asterix
