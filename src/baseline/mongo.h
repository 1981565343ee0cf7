// A miniature MongoDB stand-in: a single-node document store holding
// collections of ADM documents keyed by "_id", with the write-concern
// knob the Chapter 7 comparison varies — DURABLE journals every insert to
// disk before acknowledging; NON_DURABLE acknowledges immediately and
// journals in the background (fast but with a data-loss window, which
// Crash() makes observable).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/wal.h"

namespace asterix {
namespace baseline {

enum class WriteConcern {
  kDurable,     // journaled before acknowledge
  kNonDurable,  // acknowledged from memory; journal lags behind
};

class MongoCollection {
 public:
  /// `journal_commit_us` models the latency of a journaled (j:true)
  /// write acknowledgment — the group-commit/fsync wait of a 2014-era
  /// mongod. Writes additionally serialize on a per-collection write
  /// lock, as MongoDB 2.x's per-database write lock did.
  MongoCollection(std::string name, std::string dir, WriteConcern concern,
                  int64_t journal_commit_us = 800);
  ~MongoCollection();

  [[nodiscard]] common::Status Open();

  /// Upserts one document (must be a record with an "_id" or "id" field).
  /// Under kDurable the call returns only after the journal write; under
  /// kNonDurable it returns after the in-memory apply.
  [[nodiscard]] common::Status Insert(const adm::Value& document);

  int64_t Count() const;
  /// Documents guaranteed on disk (journaled). Equals Count() under
  /// kDurable; lags under kNonDurable.
  int64_t JournaledCount() const;

  /// Simulates a mongod crash: in-memory state beyond the journal is
  /// lost. Returns how many acknowledged documents vanished.
  int64_t Crash();

  const std::string& name() const { return name_; }
  WriteConcern concern() const { return concern_; }

 private:
  void JournalLoop();

  const std::string name_;
  const WriteConcern concern_;
  const int64_t journal_commit_us_;
  // MongoDB 2.x-style coarse write lock; outer to mutex_ and the journal.
  common::Mutex write_lock_{common::LockRank::kMongoWriteLock};
  storage::Wal journal_;

  mutable common::Mutex mutex_{common::LockRank::kMongoCollection};
  std::map<std::string, adm::Value> documents_ GUARDED_BY(mutex_);
  std::vector<std::string> unjournaled_ GUARDED_BY(mutex_);  // pending
                                                  // background journal
  std::atomic<int64_t> journaled_{0};

  std::atomic<bool> running_{false};
  std::thread journal_thread_;
};

/// A mongod: a named set of collections.
class MongoServer {
 public:
  explicit MongoServer(std::string dir);

  [[nodiscard]] common::Status CreateCollection(const std::string& name,
                                  WriteConcern concern);
  MongoCollection* GetCollection(const std::string& name) const;

 private:
  const std::string dir_;
  mutable common::Mutex mutex_{common::LockRank::kMongoDb};
  std::map<std::string, std::unique_ptr<MongoCollection>> collections_
      GUARDED_BY(mutex_);
};

}  // namespace baseline
}  // namespace asterix

