#include "storage/lsm_index.h"

#include <algorithm>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/strings.h"

namespace asterix {
namespace storage {

using common::Status;

const adm::Value* SortedRun::Get(const std::string& key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, const std::string& k) { return e.first < k; });
  if (it != entries_.end() && it->first == key) return &it->second.value;
  return nullptr;
}

class LsmIndex::Cursor {
 public:
  explicit Cursor(const SortedRun& run)
      : run_it_(run.entries().data()), run_end_(run_it_ + run.size()) {
    Load();
  }
  explicit Cursor(const Memtable& memtable)
      : is_run_(false), mem_it_(memtable.begin()), mem_end_(memtable.end()) {
    Load();
  }

  bool done() const { return key_ == nullptr; }
  /// The current entry; both references stay valid after Next() (they
  /// point into the component, which the merge's caller keeps alive).
  const std::string& key() const { return *key_; }
  const SizedValue& value() const { return *value_; }

  void Next() {
    if (is_run_) {
      ++run_it_;
    } else {
      ++mem_it_;
    }
    Load();
  }

 private:
  void Load() {
    key_ = nullptr;
    if (is_run_ && run_it_ != run_end_) {
      key_ = &run_it_->first;
      value_ = &run_it_->second;
    } else if (!is_run_ && mem_it_ != mem_end_) {
      key_ = &mem_it_->first;
      value_ = &mem_it_->second;
    }
  }

  bool is_run_ = true;
  const SortedRun::Entry* run_it_ = nullptr;
  const SortedRun::Entry* run_end_ = nullptr;
  Memtable::const_iterator mem_it_;
  Memtable::const_iterator mem_end_;
  const std::string* key_ = nullptr;  // null once exhausted
  const SizedValue* value_ = nullptr;
};

struct LsmIndex::Snapshot {
  std::vector<std::shared_ptr<SortedRun>> runs;            // oldest first
  std::deque<std::shared_ptr<const Memtable>> immutables;  // oldest first
  std::shared_ptr<SortedRun> active;  // copy of the active memtable

  /// Appends one cursor per component, oldest first.
  void AppendCursors(std::vector<Cursor>* cursors) const {
    for (const auto& run : runs) cursors->emplace_back(*run);
    for (const auto& imm : immutables) cursors->emplace_back(*imm);
    cursors->emplace_back(*active);
  }
};

template <typename Emit>
void LsmIndex::MergeCursors(std::vector<Cursor> cursors, bool drop_tombstones,
                            Emit&& emit) {
  // Binary min-heap of cursor indices ordered by (key, newest first); a
  // higher index is a newer component.
  auto before = [&cursors](size_t a, size_t b) {
    int c = cursors[a].key().compare(cursors[b].key());
    return c < 0 || (c == 0 && a > b);
  };
  std::vector<size_t> heap;
  heap.reserve(cursors.size());
  for (size_t i = 0; i < cursors.size(); ++i) {
    if (!cursors[i].done()) heap.push_back(i);
  }
  auto sift_down = [&](size_t pos) {
    while (true) {
      size_t best = pos;
      size_t left = 2 * pos + 1;
      size_t right = left + 1;
      if (left < heap.size() && before(heap[left], heap[best])) best = left;
      if (right < heap.size() && before(heap[right], heap[best])) {
        best = right;
      }
      if (best == pos) return;
      std::swap(heap[pos], heap[best]);
      pos = best;
    }
  };
  auto advance_top = [&] {
    Cursor& top = cursors[heap.front()];
    top.Next();
    if (top.done()) {
      heap.front() = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_down(0);
  };
  for (size_t i = heap.size() / 2; i-- > 0;) sift_down(i);
  while (!heap.empty()) {
    const Cursor& top = cursors[heap.front()];
    const std::string& key = top.key();
    const SizedValue& value = top.value();
    if (!drop_tombstones || !IsTombstone(value.value)) emit(key, value);
    // Skip the older components' entries for the same key.
    do {
      advance_top();
    } while (!heap.empty() && cursors[heap.front()].key() == key);
  }
}

LsmIndex::LsmIndex(LsmOptions options) : options_(options) {
  memtable_pool_ = options_.memtable_pool != nullptr
                       ? options_.memtable_pool
                       : common::MemGovernor::Default().GetPool(
                             common::MemGovernor::kMemtablePool);
  merge_pool_ = options_.merge_pool != nullptr
                    ? options_.merge_pool
                    : common::MemGovernor::Default().GetPool(
                          common::MemGovernor::kMergePool);
  common::MetricsRegistry& reg = common::MetricsRegistry::Default();
  metric_flushes_ = reg.GetCounter("lsm_flushes_total");
  metric_merges_ = reg.GetCounter("lsm_merges_total");
  metric_flush_duration_us_ = reg.GetHistogram("lsm_flush_duration_us");
  metric_merge_duration_us_ = reg.GetHistogram("lsm_merge_duration_us");
  metric_flush_bytes_ = reg.GetCounter("lsm_flush_bytes_total");
  metric_merge_bytes_ = reg.GetCounter("lsm_merge_bytes_total");
  metric_flush_backlog_ = reg.GetGauge("lsm_flush_backlog");
  if (options_.async_maintenance) {
    maintenance_running_ = true;
    maintenance_ = std::thread([this] { MaintenanceMain(); });
  }
}

LsmIndex::~LsmIndex() {
  Close();
  // Data still resident in (sealed) memtables keeps its governor charge
  // until the index itself goes away.
  common::MutexLock lock(mutex_);
  if (memtable_pool_ != nullptr) {
    size_t held = memtable_bytes_;
    for (size_t bytes : immutable_bytes_) held += bytes;
    if (held > 0) memtable_pool_->Release(held);
  }
  memtable_bytes_ = 0;
  immutable_bytes_.clear();
}

std::shared_ptr<SortedRun> LsmIndex::BuildRun(const Memtable& memtable) {
  std::vector<SortedRun::Entry> entries;
  entries.reserve(memtable.size());
  for (const auto& [k, v] : memtable) entries.emplace_back(k, v);
  return std::make_shared<SortedRun>(std::move(entries));
}

std::shared_ptr<SortedRun> LsmIndex::MergeRuns(
    const std::vector<std::shared_ptr<SortedRun>>& runs,
    bool drop_tombstones) {
  std::vector<Cursor> cursors;
  cursors.reserve(runs.size());
  size_t max_entries = 0;
  for (const auto& run : runs) {
    cursors.emplace_back(*run);
    max_entries += run->size();
  }
  std::vector<SortedRun::Entry> entries;
  entries.reserve(max_entries);
  MergeCursors(std::move(cursors), drop_tombstones,
               [&entries](const std::string& key, const SizedValue& value) {
                 entries.emplace_back(key, value);
               });
  return std::make_shared<SortedRun>(std::move(entries));
}

LsmIndex::Snapshot LsmIndex::TakeSnapshot() const {
  common::MutexLock lock(mutex_);
  return {runs_, immutables_, BuildRun(memtable_)};
}

void LsmIndex::SealLocked() {
  if (memtable_.empty()) return;
  immutables_.push_back(
      std::make_shared<const Memtable>(std::move(memtable_)));
  // The sealed memtable keeps its governor charge; remember how much so
  // the flush that retires it can release exactly that.
  immutable_bytes_.push_back(memtable_bytes_);
  memtable_ = Memtable();
  memtable_bytes_ = 0;
  ++stats_.flushes;
  metric_flush_backlog_->Add(1);
  maintenance_cv_.NotifyOne();
}

void LsmIndex::FlushNowLocked() {
  if (memtable_.empty()) return;
  common::Stopwatch timer;
  runs_.push_back(BuildRun(memtable_));
  metric_flush_duration_us_->Record(timer.ElapsedMicros());
  metric_flushes_->Add(1);
  metric_flush_bytes_->Add(static_cast<int64_t>(runs_.back()->approx_bytes()));
  memtable_.clear();
  // The bytes moved out of the governed write path into a run.
  if (memtable_pool_ != nullptr && memtable_bytes_ > 0) {
    memtable_pool_->Release(memtable_bytes_);
  }
  memtable_bytes_ = 0;
  ++stats_.flushes;
}

void LsmIndex::MergeNowLocked() {
  if (runs_.size() < 2) return;
  // Full merge: the result is the only (hence oldest) run, so tombstones
  // have shadowed everything they ever will.
  size_t input_bytes = 0;
  for (const auto& run : runs_) input_bytes += run->approx_bytes();
  if (merge_pool_ != nullptr && !merge_pool_->TryReserve(input_bytes).ok()) {
    // Merges must proceed (a stalled merge only grows the next one):
    // overdraw the pool instead of erroring; the overdraft is counted.
    merge_pool_->ForceReserve(input_bytes);
  }
  common::Stopwatch timer;
  runs_ = {MergeRuns(runs_, /*drop_tombstones=*/true)};
  metric_merge_duration_us_->Record(timer.ElapsedMicros());
  metric_merges_->Add(1);
  metric_merge_bytes_->Add(static_cast<int64_t>(runs_.front()->approx_bytes()));
  ++stats_.merges;
  if (merge_pool_ != nullptr) merge_pool_->Release(input_bytes);
}

Status LsmIndex::Insert(const std::string& key, adm::Value value) {
  ASTERIX_FAILPOINT("storage.lsm.insert");
  SizedValue sized = SizedValue::Of(key, std::move(value));
  size_t bytes = sized.bytes;
  // Governor admission before any mutation: an exhausted "memtable" pool
  // surfaces as a typed error the at-least-once protocol simply retries
  // (the charge mirrors memtable_bytes_ and is released at flush time).
  if (memtable_pool_ != nullptr) {
    Status reserved = memtable_pool_->TryReserve(bytes);
    if (!reserved.ok()) return reserved;
  }
  common::MutexLock lock(mutex_);
  if (options_.async_maintenance && options_.max_immutable_memtables > 0 &&
      immutables_.size() >= options_.max_immutable_memtables && !stop_) {
    common::Stopwatch stall;
    drained_cv_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return stop_ ||
             immutables_.size() < options_.max_immutable_memtables;
    });
    stats_.insert_stall_ms += stall.ElapsedMillis();
  }
  memtable_[key] = std::move(sized);
  memtable_bytes_ += bytes;
  ++stats_.inserts;
  if (memtable_bytes_ >= options_.memtable_bytes_limit) {
    if (options_.async_maintenance && maintenance_running_) {
      SealLocked();
    } else {
      common::Stopwatch stall;
      FlushNowLocked();
      if (MergePendingLocked()) MergeNowLocked();
      stats_.insert_stall_ms += stall.ElapsedMillis();
    }
  }
  return Status::OK();
}

Status LsmIndex::Delete(const std::string& key) {
  // A tombstone is just an upsert of the reserved marker: it rides the
  // same memtable/flush/merge machinery and shadows older components.
  return Insert(key, adm::Value::Null());
}

std::optional<adm::Value> LsmIndex::Get(const std::string& key) const {
  // Snapshot the immutable components under the lock, search lock-free.
  // The newest component holding the key decides; a tombstone there means
  // the key is deleted no matter what older components say.
  std::deque<std::shared_ptr<const Memtable>> immutables;
  std::vector<std::shared_ptr<SortedRun>> runs;
  {
    common::MutexLock lock(mutex_);
    auto it = memtable_.find(key);
    if (it != memtable_.end()) {
      if (IsTombstone(it->second.value)) return std::nullopt;
      return it->second.value;
    }
    immutables = immutables_;
    runs = runs_;
  }
  for (auto rit = immutables.rbegin(); rit != immutables.rend(); ++rit) {
    auto it = (*rit)->find(key);
    if (it != (*rit)->end()) {
      if (IsTombstone(it->second.value)) return std::nullopt;
      return it->second.value;
    }
  }
  for (auto rit = runs.rbegin(); rit != runs.rend(); ++rit) {
    const adm::Value* v = (*rit)->Get(key);
    if (v != nullptr) {
      if (IsTombstone(*v)) return std::nullopt;
      return *v;
    }
  }
  return std::nullopt;
}

void LsmIndex::Scan(const std::function<void(const std::string&,
                                             const adm::Value&)>& visitor)
    const {
  // Snapshot components under the lock, then merge outside it.
  Snapshot snapshot = TakeSnapshot();
  std::vector<Cursor> cursors;
  snapshot.AppendCursors(&cursors);
  MergeCursors(std::move(cursors), /*drop_tombstones=*/true,
               [&visitor](const std::string& key, const SizedValue& value) {
                 visitor(key, value.value);
               });
}

int64_t LsmIndex::Size() const {
  Snapshot snapshot = TakeSnapshot();
  std::vector<Cursor> cursors;
  snapshot.AppendCursors(&cursors);
  int64_t count = 0;
  MergeCursors(std::move(cursors), /*drop_tombstones=*/true,
               [&count](const std::string&, const SizedValue&) { ++count; });
  return count;
}

void LsmIndex::Flush() {
  {
    common::MutexLock lock(mutex_);
    if (options_.async_maintenance && maintenance_running_) {
      SealLocked();
    } else {
      FlushNowLocked();
      return;
    }
  }
  Drain();
}

void LsmIndex::Drain() {
  common::MutexLock lock(mutex_);
  drained_cv_.Wait(mutex_, [this]() REQUIRES(mutex_) {
    return !maintenance_running_ ||
           (immutables_.empty() && !MergePendingLocked());
  });
}

void LsmIndex::Close() {
  {
    common::MutexLock lock(mutex_);
    stop_ = true;
    maintenance_cv_.NotifyAll();
    drained_cv_.NotifyAll();
  }
  if (maintenance_.joinable()) maintenance_.join();
}

void LsmIndex::MaintenanceMain() {
  mutex_.Lock();
  while (true) {
    maintenance_cv_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return stop_ || !immutables_.empty() || MergePendingLocked();
    });
    if (MergePendingLocked()) {
      // Merge before flushing the next memtable so run counts honor
      // max_runs even under a flush backlog — otherwise hundreds of runs
      // pile up and collapse in one degenerate end-of-stream merge. Only
      // this thread mutates runs_ in async mode, so the snapshot prefix
      // is stable while the merge runs off-lock.
      std::vector<std::shared_ptr<SortedRun>> to_merge = runs_;
      mutex_.Unlock();
      // Delay action = a long-running merge holding the backlog up.
      ASTERIX_FAILPOINT_HIT("storage.lsm.merge");
      // Merge working memory: charge the inputs' bytes for the merge's
      // duration; must-proceed, so exhaustion is a counted overdraft.
      size_t merge_input_bytes = 0;
      for (const auto& run : to_merge) {
        merge_input_bytes += run->approx_bytes();
      }
      if (merge_pool_ != nullptr &&
          !merge_pool_->TryReserve(merge_input_bytes).ok()) {
        merge_pool_->ForceReserve(merge_input_bytes);
      }
      // to_merge covers every run at snapshot time and the result is
      // re-inserted as the oldest, so tombstones can be retired here.
      common::Stopwatch merge_timer;
      std::shared_ptr<SortedRun> merged =
          MergeRuns(to_merge, /*drop_tombstones=*/true);
      metric_merge_duration_us_->Record(merge_timer.ElapsedMicros());
      metric_merges_->Add(1);
      metric_merge_bytes_->Add(static_cast<int64_t>(merged->approx_bytes()));
      if (merge_pool_ != nullptr) merge_pool_->Release(merge_input_bytes);
      mutex_.Lock();
      runs_.erase(runs_.begin(),
                  runs_.begin() + static_cast<ptrdiff_t>(to_merge.size()));
      runs_.insert(runs_.begin(), std::move(merged));
      ++stats_.merges;
      drained_cv_.NotifyAll();
      // Destroy the merged-away runs off-lock (a reader's snapshot may
      // still pin some), so inserts and Get never wait on a destructor.
      mutex_.Unlock();
      to_merge.clear();
      mutex_.Lock();
      continue;
    }
    if (!immutables_.empty()) {
      // Flush the oldest sealed memtable. The memtable stays visible to
      // readers (newer than every run) while the run is built off-lock;
      // the swap is a single atomic step under the lock.
      std::shared_ptr<const Memtable> imm = immutables_.front();
      mutex_.Unlock();
      // Delay action = a slow flush (grows the sealed-memtable backlog,
      // the window where a crash strands unflushed data behind the WAL).
      ASTERIX_FAILPOINT_HIT("storage.lsm.flush");
      common::Stopwatch flush_timer;
      std::shared_ptr<SortedRun> run = BuildRun(*imm);
      metric_flush_duration_us_->Record(flush_timer.ElapsedMicros());
      metric_flushes_->Add(1);
      metric_flush_bytes_->Add(static_cast<int64_t>(run->approx_bytes()));
      mutex_.Lock();
      runs_.push_back(std::move(run));
      immutables_.pop_front();
      if (memtable_pool_ != nullptr && immutable_bytes_.front() > 0) {
        memtable_pool_->Release(immutable_bytes_.front());
      }
      immutable_bytes_.pop_front();
      metric_flush_backlog_->Add(-1);
      drained_cv_.NotifyAll();
      // Destroy the flushed memtable off-lock, as with merged-away runs.
      mutex_.Unlock();
      imm.reset();
      mutex_.Lock();
      continue;
    }
    if (stop_) break;
  }
  maintenance_running_ = false;
  drained_cv_.NotifyAll();
  mutex_.Unlock();
}

LsmStats LsmIndex::stats() const {
  LsmStats stats;
  {
    common::MutexLock lock(mutex_);
    stats = stats_;
    stats.flush_backlog = static_cast<int64_t>(immutables_.size());
    stats.merge_backlog = MergePendingLocked() ? 1 : 0;
  }
  stats.live_keys = Size();
  return stats;
}

size_t LsmIndex::run_count() const {
  common::MutexLock lock(mutex_);
  return runs_.size();
}

size_t LsmIndex::flush_backlog() const {
  common::MutexLock lock(mutex_);
  return immutables_.size();
}

size_t LsmIndex::merge_backlog() const {
  common::MutexLock lock(mutex_);
  return MergePendingLocked() ? 1 : 0;
}

PartitionedLsmIndex::PartitionedLsmIndex(LsmOptions options) {
  size_t n = options.partitions;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  partitions_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    partitions_.push_back(std::make_unique<LsmIndex>(options));
  }
}

size_t PartitionedLsmIndex::PartitionOf(const std::string& key) const {
  if (partitions_.size() <= 1) return 0;
  return static_cast<size_t>(common::Fnv1a(key) % partitions_.size());
}

Status PartitionedLsmIndex::Insert(const std::string& key,
                                   adm::Value value) {
  return partitions_[PartitionOf(key)]->Insert(key, std::move(value));
}

Status PartitionedLsmIndex::Delete(const std::string& key) {
  return partitions_[PartitionOf(key)]->Delete(key);
}

std::optional<adm::Value> PartitionedLsmIndex::Get(
    const std::string& key) const {
  return partitions_[PartitionOf(key)]->Get(key);
}

void PartitionedLsmIndex::Scan(
    const std::function<void(const std::string&, const adm::Value&)>&
        visitor) const {
  // One merge over every partition's components. Keys are disjoint across
  // partitions, so equal keys only ever meet within one partition, whose
  // cursors keep their oldest-first order.
  std::vector<LsmIndex::Snapshot> snapshots;
  snapshots.reserve(partitions_.size());
  std::vector<LsmIndex::Cursor> cursors;
  for (const auto& p : partitions_) {
    snapshots.push_back(p->TakeSnapshot());
    snapshots.back().AppendCursors(&cursors);
  }
  LsmIndex::MergeCursors(
      std::move(cursors), /*drop_tombstones=*/true,
      [&visitor](const std::string& key, const SizedValue& value) {
        visitor(key, value.value);
      });
}

int64_t PartitionedLsmIndex::Size() const {
  int64_t total = 0;
  for (const auto& p : partitions_) total += p->Size();
  return total;
}

void PartitionedLsmIndex::Flush() {
  for (auto& p : partitions_) p->Flush();
}

void PartitionedLsmIndex::Drain() {
  for (auto& p : partitions_) p->Drain();
}

void PartitionedLsmIndex::Close() {
  for (auto& p : partitions_) p->Close();
}

LsmStats PartitionedLsmIndex::stats() const {
  LsmStats total;
  for (const auto& p : partitions_) {
    LsmStats s = p->stats();
    total.inserts += s.inserts;
    total.flushes += s.flushes;
    total.merges += s.merges;
    total.live_keys += s.live_keys;
    total.insert_stall_ms += s.insert_stall_ms;
    total.flush_backlog += s.flush_backlog;
    total.merge_backlog += s.merge_backlog;
  }
  return total;
}

size_t PartitionedLsmIndex::run_count() const {
  size_t total = 0;
  for (const auto& p : partitions_) total += p->run_count();
  return total;
}

size_t PartitionedLsmIndex::flush_backlog() const {
  size_t total = 0;
  for (const auto& p : partitions_) total += p->flush_backlog();
  return total;
}

size_t PartitionedLsmIndex::merge_backlog() const {
  size_t total = 0;
  for (const auto& p : partitions_) total += p->merge_backlog();
  return total;
}

}  // namespace storage
}  // namespace asterix
