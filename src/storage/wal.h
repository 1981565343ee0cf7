// Write-ahead log. Every record insert appends a log entry before the
// in-memory indexes are updated; the paper's at-least-once protocol treats
// "log record written to the local disk" as the persistence point that
// triggers an ack.
#pragma once

#include <cstdio>
#include <functional>
#include <string>

#include "common/mem_governor.h"
#include "common/observability.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace storage {

class Wal {
 public:
  /// Opens (creating or appending to) the log at `path`. When `durable` is
  /// true every append is flushed to the OS; this is the knob the
  /// Storm+MongoDB baseline comparison varies as "write concern".
  /// `wal_pool` is the governor pool bounding in-flight append bytes
  /// (each Append leases its framed size for the append's duration); null
  /// resolves to MemGovernor::Default()'s "wal" pool. An exhausted pool
  /// fails Append with ResourceExhausted before any byte lands, so the
  /// at-least-once protocol retries it like any other soft append fault.
  Wal(std::string path, bool durable = false,
      common::MemPool* wal_pool = nullptr);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  [[nodiscard]] common::Status Open();

  /// Appends one entry (opaque payload). Thread-safe.
  [[nodiscard]] common::Status Append(const std::string& payload);

  /// Flushes buffered entries to the OS.
  [[nodiscard]] common::Status Sync();

  /// Replays all entries in append order. Nothing calls it yet: restart
  /// recovery from the log is still to be built (ROADMAP item 4).
  [[nodiscard]] common::Status Replay(
      const std::function<void(const std::string&)>& consumer) const;

  int64_t entry_count() const;
  int64_t bytes_written() const;
  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  const bool durable_;
  // Resolved governor pool (ctor arg or the Default() governor's "wal"
  // pool). Leased lock-free per append; never null after construction.
  common::MemPool* const wal_pool_;
  mutable common::Mutex mutex_{common::LockRank::kWal};
  std::FILE* file_ GUARDED_BY(mutex_) = nullptr;
  int64_t entry_count_ GUARDED_BY(mutex_) = 0;
  int64_t bytes_written_ GUARDED_BY(mutex_) = 0;

  // Cached process-wide registry metrics (relaxed atomics, safe under
  // mutex_): append/byte throughput and the latency of flushing buffered
  // entries to the OS (the paper's persistence point for acks).
  common::Counter* metric_appends_ = nullptr;
  common::Counter* metric_bytes_ = nullptr;
  common::Counter* metric_syncs_ = nullptr;
  common::Histogram* metric_sync_latency_us_ = nullptr;
};

}  // namespace storage
}  // namespace asterix

