#include "common/model_check.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

// Engine layout (see the header and DESIGN.md §6.3 for the model):
//
//   * Real std::threads, cooperative execution: a spawned thread runs
//     user code freely until it reaches a shim operation, announces the
//     op descriptor, and parks. The scheduler (the controlling thread,
//     inside Execution::Join) waits until every live thread is parked
//     or finished, picks one announced op — consulting the DFS trail —
//     executes ALL model bookkeeping itself (single-threaded, under the
//     engine mutex), deposits the result, and wakes exactly that
//     thread. Strict alternation: at most one thread touches user or
//     engine state at any instant, so the engine needs no fine-grained
//     synchronization and every execution is deterministic.
//
//   * The DFS trail is a vector of (chosen, num_options) decisions —
//     scheduling picks AND value picks (which store a load reads, CAS
//     outcome). Backtracking bumps the deepest non-exhausted decision
//     and replays the prefix; when no decision can be bumped the space
//     is exhausted. Decisions with one option are not recorded.
//
//   * Sleep sets prune equivalent interleavings: after exploring thread
//     t at a choice point, sibling branches put t to sleep until an op
//     DEPENDENT on t's pending op executes. Dependence is conservative
//     (shared object, or both seq_cst), so pruning never hides a bug.
//
//   * Weak memory: per-location modification-order store history (store
//     order = scheduler order — an intentional restriction, see the
//     DESIGN notes on what the model cannot prove). A load may read any
//     store at or above its coherence floor: the newest store already
//     happened-before the reader, the reader's own previous read
//     (read-read coherence), and — for seq_cst loads — the newest
//     seq_cst store to the location. A bounded staleness cap (a thread
//     may re-read the same stale store at most kMaxStaleReads times
//     before the floor rises) models "stores become visible eventually"
//     and keeps retry loops finite. Acquire loads join the store's
//     release clock into the reader's vector clock; relaxed loads bank
//     it for a later acquire fence. RMWs read the latest store and
//     inherit its release clock into their own store (release
//     sequences). seq_cst stores/RMWs/fences join bidirectionally with
//     a global SC clock; seq_cst loads deliberately do NOT (they
//     compile to plain loads on x86 — modelling the exact StoreLoad
//     hazard behind the EventCount lost-wakeup bug).
//
//   * Virtual time: SteadyNow() reads a clock that advances only when
//     every thread is blocked, jumping to the earliest timed-wait
//     deadline. All blocked with no deadline = deadlock, reported with
//     the full trace.

namespace asterix {
namespace mc {

namespace {

struct ExecutionAbort {};

constexpr int kMaxStaleReads = 2;

struct VClock {
  std::array<uint32_t, kMaxThreads> c{};
  void Join(const VClock& o) {
    for (int i = 0; i < kMaxThreads; ++i) c[i] = std::max(c[i], o.c[i]);
  }
  // True iff the event (tid, tick) happened-before a point with this
  // clock.
  bool Knows(int tid, uint32_t tick) const { return c[tid] >= tick; }
};

struct Store {
  uint64_t value = 0;
  int tid = 0;
  uint32_t tick = 0;
  VClock rel;  // release clock carried to acquirers
  bool sc = false;
};

struct Location {
  int label = 0;
  std::vector<Store> stores;
  struct PerThread {
    int floor = 0;          // read-read coherence floor (store index)
    int reads_at_floor = 0;  // staleness cap counter
  };
  std::array<PerThread, kMaxThreads> pt{};
  int last_sc = -1;  // index of newest seq_cst store
};

struct DataCellState {
  int label = 0;
  int last_writer = -1;
  uint32_t write_tick = 0;
  std::array<uint32_t, kMaxThreads> read_ticks{};
};

struct MutexState {
  int label = 0;
  int holder = -1;
  VClock rel;
};

enum class OpKind : uint8_t {
  kLoad,
  kStore,
  kRmw,
  kCas,
  kFence,
  kDataRead,
  kDataWrite,
  kMutexLock,
  kMutexUnlock,
  kCvWaitRelease,
  kCvReacquire,
  kCvNotify,
  kSpinBlock,
};

struct PendingOp {
  OpKind kind = OpKind::kFence;
  const void* obj = nullptr;   // atomic location / cell / mutex / cv
  const void* obj2 = nullptr;  // the mutex of a cv op
  std::memory_order mo = std::memory_order_seq_cst;
  std::memory_order fail_mo = std::memory_order_seq_cst;
  Rmw rmw = Rmw::kExchange;
  uint64_t arg = 0;    // store value / rmw operand / cas desired / spin observed
  uint64_t arg2 = 0;   // cas expected
  uint64_t init = 0;   // location's pre-model value for lazy registration
  bool weak = false;
  bool timed = false;
  int64_t deadline_ns = 0;
  uint64_t* plain = nullptr;  // pass-through mirror to keep coherent
  // Results (deposited by the scheduler before the grant):
  uint64_t result = 0;
  bool result_b = false;
};

struct TraceRec {
  int tid;
  PendingOp op;
  int64_t vtime_ns;
};

struct ThreadState {
  // Scheduler<->worker protocol (all fields under Engine::mu_).
  std::condition_variable cv;
  std::function<void()> fn;
  bool start = false;
  bool done = true;
  bool has_pending = false;
  bool granted = false;
  PendingOp op;
  // CondVar wait state (mutated by other threads' notify ops).
  const void* waiting_cv = nullptr;
  bool cv_signaled = false;
  bool cv_timed_out = false;
  bool cv_timed = false;
  int64_t cv_deadline_ns = 0;
  // Memory model state.
  VClock clock;
  VClock acq_pending;  // banked release clocks of relaxed loads
  VClock rel_fence;    // clock at the latest release fence
};

bool IsAcquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}
bool IsRelease(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

const char* KindName(OpKind k) {
  switch (k) {
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kRmw: return "rmw";
    case OpKind::kCas: return "cas";
    case OpKind::kFence: return "fence";
    case OpKind::kDataRead: return "data_read";
    case OpKind::kDataWrite: return "data_write";
    case OpKind::kMutexLock: return "mutex_lock";
    case OpKind::kMutexUnlock: return "mutex_unlock";
    case OpKind::kCvWaitRelease: return "cv_wait";
    case OpKind::kCvReacquire: return "cv_wake";
    case OpKind::kCvNotify: return "cv_notify";
    case OpKind::kSpinBlock: return "spin_park";
  }
  return "?";
}

const char* OrderName(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed: return "rlx";
    case std::memory_order_consume: return "cns";
    case std::memory_order_acquire: return "acq";
    case std::memory_order_release: return "rel";
    case std::memory_order_acq_rel: return "ar";
    case std::memory_order_seq_cst: return "sc";
  }
  return "?";
}

class Engine;
Engine* g_engine = nullptr;
thread_local int t_tid = -1;

class Engine {
 public:
  explicit Engine(const Options& opts) : opts_(opts) {}

  ~Engine() {
    {
      std::lock_guard<std::mutex> l(mu_);
      shutdown_ = true;
      for (auto& th : th_) th.cv.notify_all();
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- outer DFS loop ------------------------------------------------

  Result Run(const std::function<void(Execution&)>& body) {
    ParseReplay(opts_.replay);
    Result res;
    for (;;) {
      if (res.executions >= opts_.max_executions) {
        res.ok = failure_.empty();
        res.complete = false;
        break;
      }
      BeginExecution();
      try {
        Execution ex;
        body(ex);
        ex.Join();  // harmless if the body already joined
      } catch (ExecutionAbort&) {
      }
      ++res.executions;
      if (!failure_.empty()) {
        res.ok = false;
        res.failure = failure_;
        res.trace = RenderTrace();
        res.replay = RenderReplay();
        break;
      }
      if (!opts_.replay.empty()) {  // replay mode: exactly one execution
        res.ok = true;
        res.complete = false;
        break;
      }
      if (!Backtrack()) {
        res.ok = true;
        res.complete = true;
        break;
      }
    }
    return res;
  }

  // ---- per-execution lifecycle --------------------------------------

  void BeginExecution() {
    std::lock_guard<std::mutex> l(mu_);
    locs_.clear();
    cells_.clear();
    mutexes_.clear();
    labels_ = 0;
    sc_clock_ = VClock{};
    vtime_ns_ = 0;
    steps_ = 0;
    depth_ = 0;
    sleep_mask_ = 0;
    exec_over_ = false;
    failing_ = false;
    pruned_ = false;
    failure_.clear();
    trace_.clear();
    nthreads_ = 1;
    for (int i = 0; i < kMaxThreads; ++i) {
      th_[i].done = (i != 0);
      th_[i].has_pending = false;
      th_[i].granted = false;
      th_[i].start = false;
      th_[i].waiting_cv = nullptr;
      th_[i].cv_signaled = th_[i].cv_timed_out = th_[i].cv_timed = false;
      th_[i].clock = VClock{};
      th_[i].acq_pending = VClock{};
      th_[i].rel_fence = VClock{};
      // Thread ids double as vector-clock slots; tick 0 of every thread
      // is "before the beginning", so the initial pseudo-store of each
      // lazily registered location happens-before everything.
      th_[i].clock.c[i] = 1;
    }
  }

  void RunJoin(std::vector<std::function<void()>>* fns) {
    {
      std::unique_lock<std::mutex> l(mu_);
      if (static_cast<int>(fns->size()) + 1 > kMaxThreads) {
        FailLocked("Execution::Spawn: too many threads (max " +
                   std::to_string(kMaxThreads - 1) + ")");
        throw ExecutionAbort{};
      }
      nthreads_ = static_cast<int>(fns->size()) + 1;
      EnsureWorkersLocked(nthreads_ - 1);
      for (int i = 1; i < nthreads_; ++i) {
        // Thread start synchronizes-with the spawn: the child sees
        // everything the spawner did.
        th_[i].clock.Join(th_[0].clock);
        th_[i].fn = std::move((*fns)[i - 1]);
        th_[i].done = false;
        th_[i].start = true;
        th_[i].cv.notify_one();
      }
      fns->clear();
      Schedule(l);
      // std::thread::join analogue: the controlling thread observes
      // everything every worker did.
      for (int i = 1; i < nthreads_; ++i) {
        th_[0].clock.Join(th_[i].clock);
        th_[0].clock.Join(th_[i].acq_pending);
      }
    }
    if (failing_ || pruned_) throw ExecutionAbort{};
  }

  // ---- scheduler -----------------------------------------------------

  void Schedule(std::unique_lock<std::mutex>& l) {
    for (;;) {
      sched_cv_.wait(l, [&] {
        if (failing_) return true;
        for (int i = 1; i < nthreads_; ++i) {
          if (!th_[i].done && !th_[i].has_pending) return false;
        }
        return true;
      });
      if (failing_) {
        AbortWorkersLocked(l);
        return;
      }
      bool all_done = true;
      for (int i = 1; i < nthreads_; ++i) all_done &= th_[i].done;
      if (all_done) return;

      int enabled[kMaxThreads];
      int nenabled = 0;
      for (int i = 1; i < nthreads_; ++i) {
        if (!th_[i].done && th_[i].has_pending && EnabledLocked(i)) {
          enabled[nenabled++] = i;
        }
      }
      if (nenabled == 0) {
        if (AdvanceTimeLocked()) continue;
        FailDeadlockLocked();
        AbortWorkersLocked(l);
        return;
      }
      int options[kMaxThreads];
      int noptions = 0;
      for (int k = 0; k < nenabled; ++k) {
        if (!(sleep_mask_ & (1u << enabled[k]))) options[noptions++] = enabled[k];
      }
      if (noptions == 0) {
        // Every enabled thread is asleep: this interleaving is a
        // reordering of an already-explored one. Prune.
        pruned_ = true;
        exec_over_ = true;
        AbortWorkersLocked(l);
        return;
      }
      int choice = Choose(noptions);
      int t = options[choice];
      // Earlier siblings sleep inside this subtree until a dependent op
      // runs.
      for (int k = 0; k < choice; ++k) sleep_mask_ |= 1u << options[k];
      PendingOp executed = th_[t].op;
      ExecuteOp(t, &th_[t].op);
      if (failing_) {
        AbortWorkersLocked(l);
        return;
      }
      executed.result = th_[t].op.result;
      for (int u = 1; u < nthreads_; ++u) {
        if ((sleep_mask_ & (1u << u)) && th_[u].has_pending &&
            Conflicts(th_[u].op, executed)) {
          sleep_mask_ &= ~(1u << u);
        }
      }
      th_[t].has_pending = false;
      th_[t].granted = true;
      th_[t].cv.notify_one();
    }
  }

  // An op a worker announced; parks until the scheduler grants (or the
  // execution is being torn down).
  void AnnounceAndWait(PendingOp* op) {
    std::unique_lock<std::mutex> l(mu_);
    ThreadState& th = th_[t_tid];
    th.op = *op;
    th.has_pending = true;
    sched_cv_.notify_one();
    th.cv.wait(l, [&] { return th.granted || exec_over_; });
    if (th.granted) {
      th.granted = false;
      *op = th.op;
      return;
    }
    throw ExecutionAbort{};
  }

  // Thread-0 ops outside Join run single-threaded but still feed the
  // model (their coherence floor pins them to the latest store, so no
  // decision branches).
  void ExecuteInline(PendingOp* op) {
    std::lock_guard<std::mutex> l(mu_);
    ExecuteOp(0, op);
    if (failing_) throw ExecutionAbort{};
  }

  // ---- enabledness / time -------------------------------------------

  bool EnabledLocked(int tid) {
    const PendingOp& op = th_[tid].op;
    switch (op.kind) {
      case OpKind::kMutexLock:
        return MutexOf(op.obj).holder == -1;
      case OpKind::kCvReacquire:
        return (th_[tid].cv_signaled || th_[tid].cv_timed_out) &&
               MutexOf(op.obj2).holder == -1;
      case OpKind::kSpinBlock:
        return LocOf(op.obj, op.init).stores.back().value != op.arg;
      default:
        return true;
    }
  }

  bool AdvanceTimeLocked() {
    int64_t next = INT64_MAX;
    for (int i = 1; i < nthreads_; ++i) {
      ThreadState& th = th_[i];
      if (!th.done && th.has_pending && th.op.kind == OpKind::kCvReacquire &&
          th.cv_timed && !th.cv_signaled && !th.cv_timed_out) {
        next = std::min(next, th.cv_deadline_ns);
      }
    }
    if (next == INT64_MAX) return false;
    vtime_ns_ = std::max(vtime_ns_, next);
    for (int i = 1; i < nthreads_; ++i) {
      ThreadState& th = th_[i];
      if (!th.done && th.has_pending && th.op.kind == OpKind::kCvReacquire &&
          th.cv_timed && !th.cv_signaled && th.cv_deadline_ns <= vtime_ns_) {
        th.cv_timed_out = true;
      }
    }
    return true;
  }

  // ---- the model -----------------------------------------------------

  void ExecuteOp(int tid, PendingOp* op) {
    if (++steps_ > opts_.max_steps) {
      FailLocked("livelock: execution exceeded " +
                 std::to_string(opts_.max_steps) + " steps");
      return;
    }
    ThreadState& th = th_[tid];
    ++th.clock.c[tid];
    trace_.push_back(TraceRec{tid, *op, vtime_ns_});
    switch (op->kind) {
      case OpKind::kLoad: {
        Location& loc = LocOf(op->obj, op->init);
        int idx = PickReadable(loc, tid, op->mo);
        ApplyLoad(loc, tid, idx, op->mo);
        op->result = loc.stores[idx].value;
        break;
      }
      case OpKind::kStore: {
        Location& loc = LocOf(op->obj, op->init);
        DoStore(loc, tid, op->arg, op->mo, /*inherit=*/nullptr);
        if (op->plain != nullptr) *op->plain = op->arg;
        break;
      }
      case OpKind::kRmw: {
        Location& loc = LocOf(op->obj, op->init);
        const Store latest = loc.stores.back();
        uint64_t newv = 0;
        switch (op->rmw) {
          case Rmw::kExchange: newv = op->arg; break;
          case Rmw::kAdd: newv = latest.value + op->arg; break;
          case Rmw::kSub: newv = latest.value - op->arg; break;
        }
        ApplyLoad(loc, tid, static_cast<int>(loc.stores.size()) - 1, op->mo);
        DoStore(loc, tid, newv, op->mo, &latest.rel);
        if (op->plain != nullptr) *op->plain = newv;
        op->result = latest.value;
        break;
      }
      case OpKind::kCas: {
        Location& loc = LocOf(op->obj, op->init);
        const int n = static_cast<int>(loc.stores.size());
        const bool latest_match = loc.stores[n - 1].value == op->arg2;
        // Options, natural path first: [success if latest matches] then
        // failure reading each coherently-readable store whose value
        // differs from `expected`, newest first. (A weak CAS's spurious
        // failure re-reading `expected` is deliberately NOT explored:
        // it only re-runs the caller's retry loop and would make the
        // DFS infinite.)
        int lo = ReadFloor(loc, tid, op->fail_mo);
        int fails[64];
        int nfails = 0;
        for (int i = n - 1; i >= lo && nfails < 64; --i) {
          if (loc.stores[i].value != op->arg2) fails[nfails++] = i;
        }
        int total = (latest_match ? 1 : 0) + nfails;
        if (total == 0) {
          // Nothing readable differs and latest doesn't match: can only
          // happen when latest matches — guarded above. Defensive:
          FailLocked("internal: CAS with no outcome");
          return;
        }
        int choice = Choose(total);
        if (latest_match && choice == 0) {
          const Store latest = loc.stores[n - 1];
          ApplyLoad(loc, tid, n - 1, op->mo);
          DoStore(loc, tid, op->arg, op->mo, &latest.rel);
          if (op->plain != nullptr) *op->plain = op->arg;
          op->result_b = true;
        } else {
          int idx = fails[choice - (latest_match ? 1 : 0)];
          ApplyLoad(loc, tid, idx, op->fail_mo);
          op->arg2 = loc.stores[idx].value;
          op->result_b = false;
        }
        break;
      }
      case OpKind::kFence: {
        if (IsAcquire(op->mo)) th.clock.Join(th.acq_pending);
        if (op->mo == std::memory_order_seq_cst) {
          sc_clock_.Join(th.clock);
          th.clock.Join(sc_clock_);
        }
        if (IsRelease(op->mo)) th.rel_fence = th.clock;
        break;
      }
      case OpKind::kDataRead: {
        DataCellState& cell = CellOf(op->obj);
        if (cell.last_writer >= 0 &&
            !th.clock.Knows(cell.last_writer, cell.write_tick)) {
          FailLocked("data race: T" + std::to_string(tid) + " reads cell D" +
                     std::to_string(cell.label) +
                     " concurrently with T" +
                     std::to_string(cell.last_writer) + "'s write");
          return;
        }
        cell.read_ticks[tid] = th.clock.c[tid];
        break;
      }
      case OpKind::kDataWrite: {
        DataCellState& cell = CellOf(op->obj);
        if (cell.last_writer >= 0 &&
            !th.clock.Knows(cell.last_writer, cell.write_tick)) {
          FailLocked("data race: T" + std::to_string(tid) + " writes cell D" +
                     std::to_string(cell.label) +
                     " concurrently with T" +
                     std::to_string(cell.last_writer) + "'s write");
          return;
        }
        for (int u = 0; u < kMaxThreads; ++u) {
          if (u != tid && cell.read_ticks[u] != 0 &&
              !th.clock.Knows(u, cell.read_ticks[u])) {
            FailLocked("data race: T" + std::to_string(tid) +
                       " writes cell D" + std::to_string(cell.label) +
                       " concurrently with T" + std::to_string(u) +
                       "'s read");
            return;
          }
        }
        cell.last_writer = tid;
        cell.write_tick = th.clock.c[tid];
        break;
      }
      case OpKind::kMutexLock: {
        MutexState& mu = MutexOf(op->obj);
        if (mu.holder != -1) {
          FailLocked("internal: mutex lock granted while held");
          return;
        }
        mu.holder = tid;
        th.clock.Join(mu.rel);
        break;
      }
      case OpKind::kMutexUnlock: {
        MutexState& mu = MutexOf(op->obj);
        if (mu.holder != tid) {
          FailLocked("mutex unlock by T" + std::to_string(tid) +
                     " but held by T" + std::to_string(mu.holder));
          return;
        }
        mu.rel.Join(th.clock);
        mu.holder = -1;
        break;
      }
      case OpKind::kCvWaitRelease: {
        MutexState& mu = MutexOf(op->obj2);
        if (mu.holder != tid) {
          FailLocked("cv wait without holding its mutex (T" +
                     std::to_string(tid) + ")");
          return;
        }
        mu.rel.Join(th.clock);
        mu.holder = -1;
        th.waiting_cv = op->obj;
        th.cv_signaled = false;
        th.cv_timed_out = false;
        th.cv_timed = op->timed;
        th.cv_deadline_ns = op->deadline_ns;
        break;
      }
      case OpKind::kCvReacquire: {
        MutexState& mu = MutexOf(op->obj2);
        if (mu.holder != -1) {
          FailLocked("internal: cv reacquire granted while mutex held");
          return;
        }
        mu.holder = tid;
        th.clock.Join(mu.rel);
        op->result_b = th.cv_signaled || !th.cv_timed_out;
        th.waiting_cv = nullptr;
        break;
      }
      case OpKind::kCvNotify: {
        // No happens-before by itself (the mutex hand-off carries it):
        // condition variables only wake, they do not synchronize.
        for (int u = 0; u < nthreads_; ++u) {
          if (th_[u].waiting_cv == op->obj) th_[u].cv_signaled = true;
        }
        break;
      }
      case OpKind::kSpinBlock:
        break;  // the caller re-checks with its own ordering
    }
    // Refresh the trace copy so it carries the op's results (the record
    // is pushed pre-execution so a failing op still appears).
    trace_.back().op = *op;
  }

  int ReadFloor(Location& loc, int tid, std::memory_order mo) {
    const ThreadState& th = th_[tid];
    const int n = static_cast<int>(loc.stores.size());
    int floor = 0;
    for (int i = n - 1; i > 0; --i) {
      const Store& s = loc.stores[i];
      if (th.clock.Knows(s.tid, s.tick)) {
        floor = i;  // newest store that already happened-before us
        break;
      }
    }
    if (mo == std::memory_order_seq_cst && loc.last_sc > floor) {
      // [atomics.order]: a seq_cst load must not observe anything older
      // than the newest seq_cst store to the same location.
      floor = loc.last_sc;
    }
    const Location::PerThread& pt = loc.pt[tid];
    floor = std::max(floor, pt.floor);
    if (pt.reads_at_floor >= kMaxStaleReads && floor == pt.floor &&
        floor < n - 1) {
      ++floor;  // staleness cap: eventually the newer store shows up
    }
    return floor;
  }

  int PickReadable(Location& loc, int tid, std::memory_order mo) {
    const int n = static_cast<int>(loc.stores.size());
    int lo = ReadFloor(loc, tid, mo);
    int choice = Choose(n - lo);
    return (n - 1) - choice;  // newest first
  }

  void ApplyLoad(Location& loc, int tid, int idx, std::memory_order mo) {
    ThreadState& th = th_[tid];
    const Store& s = loc.stores[idx];
    Location::PerThread& pt = loc.pt[tid];
    if (idx == pt.floor) {
      ++pt.reads_at_floor;
    } else if (idx > pt.floor) {
      pt.floor = idx;
      pt.reads_at_floor = 1;
    }
    if (IsAcquire(mo)) {
      th.clock.Join(s.rel);
    } else {
      th.acq_pending.Join(s.rel);
    }
  }

  void DoStore(Location& loc, int tid, uint64_t value, std::memory_order mo,
               const VClock* inherit) {
    ThreadState& th = th_[tid];
    const bool sc = mo == std::memory_order_seq_cst;
    if (sc) {
      // Stronger than the abstract machine, faithful to the hardware
      // mappings: a seq_cst store behaves like store;fence.
      sc_clock_.Join(th.clock);
      th.clock.Join(sc_clock_);
    }
    Store s;
    s.value = value;
    s.tid = tid;
    s.tick = th.clock.c[tid];
    s.rel = IsRelease(mo) ? th.clock : th.rel_fence;
    if (inherit != nullptr) s.rel.Join(*inherit);  // release sequence
    s.sc = sc;
    if (sc) loc.last_sc = static_cast<int>(loc.stores.size());
    loc.stores.push_back(s);
    Location::PerThread& pt = loc.pt[tid];
    pt.floor = static_cast<int>(loc.stores.size()) - 1;
    pt.reads_at_floor = 0;
  }

  // ---- DFS trail -----------------------------------------------------

  int Choose(int num_options) {
    if (num_options <= 1) return 0;
    if (depth_ < trail_.size()) {
      Decision& d = trail_[depth_];
      if (d.num_options != num_options) {
        FailLocked("internal: nondeterministic replay (options " +
                   std::to_string(d.num_options) + " -> " +
                   std::to_string(num_options) + " at depth " +
                   std::to_string(depth_) + ")");
        return 0;
      }
      ++depth_;
      return d.chosen;
    }
    trail_.push_back(Decision{0, num_options});
    ++depth_;
    return 0;
  }

  bool Backtrack() {
    while (!trail_.empty()) {
      Decision& d = trail_.back();
      if (d.chosen + 1 < d.num_options) {
        ++d.chosen;
        return true;
      }
      trail_.pop_back();
    }
    return false;
  }

  // ---- failure plumbing ---------------------------------------------

  void FailLocked(const std::string& msg) {
    if (failure_.empty()) failure_ = msg;
    failing_ = true;
    exec_over_ = true;
  }

  void FailDeadlockLocked() {
    std::string msg = "deadlock: every thread blocked with no deadline —";
    for (int i = 1; i < nthreads_; ++i) {
      if (th_[i].done) continue;
      msg += " T" + std::to_string(i) + ":" + KindName(th_[i].op.kind) + "@" +
             LabelOf(th_[i].op);
    }
    FailLocked(msg);
  }

  void AbortWorkersLocked(std::unique_lock<std::mutex>& l) {
    exec_over_ = true;
    for (int i = 1; i < nthreads_; ++i) th_[i].cv.notify_all();
    sched_cv_.wait(l, [&] {
      for (int i = 1; i < nthreads_; ++i) {
        if (!th_[i].done) return false;
      }
      return true;
    });
  }

  // ---- workers -------------------------------------------------------

  void EnsureWorkersLocked(int n) {
    while (static_cast<int>(workers_.size()) < n) {
      int tid = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, tid] { WorkerMain(tid); });
    }
  }

  void WorkerMain(int tid) {
    t_tid = tid;
    std::unique_lock<std::mutex> l(mu_);
    for (;;) {
      th_[tid].cv.wait(l, [&] { return th_[tid].start || shutdown_; });
      if (shutdown_) return;
      th_[tid].start = false;
      std::function<void()> fn = std::move(th_[tid].fn);
      l.unlock();
      try {
        fn();
      } catch (ExecutionAbort&) {
      } catch (...) {
        std::lock_guard<std::mutex> g(mu_);
        FailLocked("uncaught exception in model thread T" +
                   std::to_string(tid));
      }
      // Drop the lambda (and its captures — whose destructors may call
      // HookForget, which takes mu_) before retaking the engine lock.
      fn = nullptr;
      l.lock();
      th_[tid].done = true;
      th_[tid].has_pending = false;
      sched_cv_.notify_one();
    }
  }

  // ---- registries ----------------------------------------------------

  Location& LocOf(const void* addr, uint64_t init) {
    auto it = locs_.find(addr);
    if (it == locs_.end()) {
      Location loc;
      loc.label = labels_++;
      Store s;
      s.value = init;
      s.tid = 0;
      s.tick = 0;  // tick 0: happened-before every thread's start
      loc.stores.push_back(s);
      it = locs_.emplace(addr, std::move(loc)).first;
    }
    return it->second;
  }
  DataCellState& CellOf(const void* addr) {
    auto it = cells_.find(addr);
    if (it == cells_.end()) {
      DataCellState cell;
      cell.label = labels_++;
      it = cells_.emplace(addr, cell).first;
    }
    return it->second;
  }
  MutexState& MutexOf(const void* addr) {
    auto it = mutexes_.find(addr);
    if (it == mutexes_.end()) {
      MutexState mu;
      mu.label = labels_++;
      it = mutexes_.emplace(addr, mu).first;
    }
    return it->second;
  }

  void Forget(const void* addr) {
    std::lock_guard<std::mutex> l(mu_);
    locs_.erase(addr);
    cells_.erase(addr);
    mutexes_.erase(addr);
  }

  std::string LabelOf(const PendingOp& op) {
    if (op.obj == nullptr) return "-";
    char buf[32];
    auto loc = locs_.find(op.obj);
    if (loc != locs_.end()) {
      std::snprintf(buf, sizeof(buf), "A%d", loc->second.label);
      return buf;
    }
    auto cell = cells_.find(op.obj);
    if (cell != cells_.end()) {
      std::snprintf(buf, sizeof(buf), "D%d", cell->second.label);
      return buf;
    }
    auto mu = mutexes_.find(op.obj);
    if (mu != mutexes_.end()) {
      std::snprintf(buf, sizeof(buf), "M%d", mu->second.label);
      return buf;
    }
    std::snprintf(buf, sizeof(buf), "%p", op.obj);
    return buf;
  }

  // ---- sleep-set independence ---------------------------------------

  static bool Conflicts(const PendingOp& a, const PendingOp& b) {
    auto is_sc_global = [](const PendingOp& op) {
      if (op.mo != std::memory_order_seq_cst) return false;
      return op.kind == OpKind::kStore || op.kind == OpKind::kRmw ||
             op.kind == OpKind::kCas || op.kind == OpKind::kFence;
    };
    if (is_sc_global(a) && is_sc_global(b)) return true;  // SC clock
    auto shares = [](const PendingOp& x, const PendingOp& y) {
      const void* xo[2] = {x.obj, x.obj2};
      const void* yo[2] = {y.obj, y.obj2};
      for (const void* p : xo) {
        if (p == nullptr) continue;
        for (const void* q : yo) {
          if (p == q) return true;
        }
      }
      return false;
    };
    if (!shares(a, b)) return false;
    // Same object: two pure reads commute, everything else conflicts.
    auto pure_read = [](const PendingOp& op) {
      return op.kind == OpKind::kLoad || op.kind == OpKind::kDataRead;
    };
    if (pure_read(a) && pure_read(b) && a.obj == b.obj &&
        a.obj2 == nullptr && b.obj2 == nullptr) {
      return false;
    }
    return true;
  }

  // ---- reporting -----------------------------------------------------

  std::string RenderTrace() const {
    std::ostringstream os;
    os << "interleaving (" << trace_.size() << " ops):\n";
    for (const TraceRec& r : trace_) {
      os << "  T" << r.tid << " " << KindName(r.op.kind);
      if (r.op.obj != nullptr) {
        os << " " << const_cast<Engine*>(this)->LabelOf(r.op);
      }
      switch (r.op.kind) {
        case OpKind::kLoad:
          os << " " << OrderName(r.op.mo) << " -> " << r.op.result;
          break;
        case OpKind::kStore:
          os << " " << OrderName(r.op.mo) << " = " << r.op.arg;
          break;
        case OpKind::kRmw:
          os << " " << OrderName(r.op.mo) << " arg=" << r.op.arg
             << " old=" << r.op.result;
          break;
        case OpKind::kCas:
          os << " " << OrderName(r.op.mo) << " want=" << r.op.arg2
             << " new=" << r.op.arg;
          break;
        case OpKind::kFence:
          os << " " << OrderName(r.op.mo);
          break;
        default:
          break;
      }
      if (r.vtime_ns != 0) os << " @" << r.vtime_ns << "ns";
      os << "\n";
    }
    return os.str();
  }

  std::string RenderReplay() const {
    std::ostringstream os;
    for (size_t i = 0; i < depth_ && i < trail_.size(); ++i) {
      if (i > 0) os << ",";
      os << trail_[i].chosen << "/" << trail_[i].num_options;
    }
    return os.str();
  }

  void ParseReplay(const std::string& replay) {
    trail_.clear();
    if (replay.empty()) return;
    std::istringstream is(replay);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      Decision d{0, 0};
      if (std::sscanf(tok.c_str(), "%d/%d", &d.chosen, &d.num_options) == 2) {
        trail_.push_back(d);
      }
    }
  }

  // ---- state ---------------------------------------------------------

  struct Decision {
    int chosen;
    int num_options;
  };

  const Options opts_;
  std::mutex mu_;
  std::condition_variable sched_cv_;
  std::array<ThreadState, kMaxThreads> th_;
  std::vector<std::thread> workers_;
  int nthreads_ = 1;
  bool shutdown_ = false;

  std::unordered_map<const void*, Location> locs_;
  std::unordered_map<const void*, DataCellState> cells_;
  std::unordered_map<const void*, MutexState> mutexes_;
  int labels_ = 0;
  VClock sc_clock_;
  int64_t vtime_ns_ = 0;
  long steps_ = 0;

  std::vector<Decision> trail_;
  size_t depth_ = 0;
  uint32_t sleep_mask_ = 0;

  bool exec_over_ = false;  // tearing down: hooks pass through
  bool failing_ = false;
  bool pruned_ = false;
  std::string failure_;
  std::vector<TraceRec> trace_;

  friend class ::asterix::mc::Execution;
  friend bool PassthroughNow();
  friend void DispatchFriend(PendingOp* op);
  friend Result(::asterix::mc::Check)(
      const Options&, const std::function<void(Execution&)>&);
  friend void(::asterix::mc::Fail)(const std::string&);
  friend std::chrono::steady_clock::time_point(::asterix::mc::HookSteadyNow)();
};

bool PassthroughNow() {
  Engine* e = g_engine;
  return e == nullptr || t_tid < 0 || e->exec_over_;
}

// Routes an op either through the scheduler (worker threads) or the
// inline single-threaded path (the controlling thread).
void Dispatch(PendingOp* op) {
  if (t_tid == 0) {
    g_engine->ExecuteInline(op);
  } else {
    g_engine->AnnounceAndWait(op);
  }
}

}  // namespace

// ---- public API ------------------------------------------------------

std::string Result::Summary() const {
  std::ostringstream os;
  os << "explored " << executions << " schedule"
     << (executions == 1 ? "" : "s") << " ("
     << (complete ? "complete" : "budget") << "): "
     << (ok ? "ok" : ("FAIL: " + failure));
  return os.str();
}

void Execution::Spawn(std::function<void()> fn) {
  pending_.push_back(std::move(fn));
}

void Execution::Join() { g_engine->RunJoin(&pending_); }

Result Check(const Options& opts,
             const std::function<void(Execution&)>& body) {
  if (g_engine != nullptr) {
    Result res;
    res.ok = false;
    res.failure = "nested mc::Check is not supported";
    return res;
  }
  Engine engine(opts);
  g_engine = &engine;
  t_tid = 0;
  Result res = engine.Run(body);
  g_engine = nullptr;
  t_tid = -1;
  return res;
}

void Fail(const std::string& message) {
  Engine* e = g_engine;
  if (e == nullptr || t_tid < 0) {
    // Outside the checker (e.g. an assert in teardown): nothing to
    // record; treat as a fatal test bug.
    std::fprintf(stderr, "mc::Fail outside Check: %s\n", message.c_str());
    std::abort();
  }
  {
    std::lock_guard<std::mutex> l(e->mu_);
    e->FailLocked(message);
    e->sched_cv_.notify_one();
  }
  throw ExecutionAbort{};
}

bool Active() { return !PassthroughNow(); }

// ---- hooks -----------------------------------------------------------

uint64_t HookLoad(const void* loc, std::memory_order mo, uint64_t plain) {
  if (PassthroughNow()) return plain;
  PendingOp op;
  op.kind = OpKind::kLoad;
  op.obj = loc;
  op.mo = mo;
  op.init = plain;
  Dispatch(&op);
  return op.result;
}

void HookStore(void* loc, uint64_t value, std::memory_order mo,
               uint64_t* plain) {
  if (PassthroughNow()) {
    *plain = value;
    return;
  }
  PendingOp op;
  op.kind = OpKind::kStore;
  op.obj = loc;
  op.mo = mo;
  op.arg = value;
  op.init = *plain;
  op.plain = plain;
  Dispatch(&op);
}

uint64_t HookRmw(void* loc, Rmw rmw, uint64_t operand, std::memory_order mo,
                 uint64_t* plain) {
  if (PassthroughNow()) {
    uint64_t old = *plain;
    switch (rmw) {
      case Rmw::kExchange: *plain = operand; break;
      case Rmw::kAdd: *plain = old + operand; break;
      case Rmw::kSub: *plain = old - operand; break;
    }
    return old;
  }
  PendingOp op;
  op.kind = OpKind::kRmw;
  op.obj = loc;
  op.mo = mo;
  op.rmw = rmw;
  op.arg = operand;
  op.init = *plain;
  op.plain = plain;
  Dispatch(&op);
  return op.result;
}

bool HookCas(void* loc, uint64_t* expected, uint64_t desired, bool weak,
             std::memory_order mo, std::memory_order fail_mo,
             uint64_t* plain) {
  if (PassthroughNow()) {
    if (*plain == *expected) {
      *plain = desired;
      return true;
    }
    *expected = *plain;
    return false;
  }
  PendingOp op;
  op.kind = OpKind::kCas;
  op.obj = loc;
  op.mo = mo;
  op.fail_mo = fail_mo;
  op.arg = desired;
  op.arg2 = *expected;
  op.weak = weak;
  op.init = *plain;
  op.plain = plain;
  Dispatch(&op);
  if (!op.result_b) *expected = op.arg2;
  return op.result_b;
}

void HookFence(std::memory_order mo) {
  if (PassthroughNow()) return;
  PendingOp op;
  op.kind = OpKind::kFence;
  op.mo = mo;
  Dispatch(&op);
}

void HookForget(const void* loc) {
  if (g_engine == nullptr) return;
  g_engine->Forget(loc);
}

void HookDataRead(const void* cell) {
  if (PassthroughNow()) return;
  PendingOp op;
  op.kind = OpKind::kDataRead;
  op.obj = cell;
  Dispatch(&op);
}

void HookDataWrite(void* cell) {
  if (PassthroughNow()) return;
  PendingOp op;
  op.kind = OpKind::kDataWrite;
  op.obj = cell;
  Dispatch(&op);
}

void HookDataForget(const void* cell) { HookForget(cell); }

void HookMutexLock(void* mu) {
  if (PassthroughNow()) return;
  PendingOp op;
  op.kind = OpKind::kMutexLock;
  op.obj = mu;
  Dispatch(&op);
}

void HookMutexUnlock(void* mu) {
  if (PassthroughNow()) return;
  PendingOp op;
  op.kind = OpKind::kMutexUnlock;
  op.obj = mu;
  Dispatch(&op);
}

bool HookCvWait(void* cv, void* mu, bool timed,
                std::chrono::nanoseconds rel_timeout) {
  if (PassthroughNow()) return true;
  if (t_tid == 0) {
    // The controlling thread cannot park (it IS the scheduler): a cv
    // wait here means the body would deadlock against its own workers.
    Fail("cv wait on the controlling thread");
  }
  PendingOp rel;
  rel.kind = OpKind::kCvWaitRelease;
  rel.obj = cv;
  rel.obj2 = mu;
  rel.timed = timed;
  {
    std::lock_guard<std::mutex> l(g_engine->mu_);
    rel.deadline_ns = g_engine->vtime_ns_ + rel_timeout.count();
  }
  Dispatch(&rel);
  PendingOp wake;
  wake.kind = OpKind::kCvReacquire;
  wake.obj = cv;
  wake.obj2 = mu;
  Dispatch(&wake);
  return wake.result_b;
}

void HookCvNotifyAll(void* cv) {
  if (PassthroughNow()) return;
  PendingOp op;
  op.kind = OpKind::kCvNotify;
  op.obj = cv;
  Dispatch(&op);
}

void HookBlockWhileValue(const void* loc, uint64_t observed) {
  if (PassthroughNow()) return;
  PendingOp op;
  op.kind = OpKind::kSpinBlock;
  op.obj = loc;
  op.arg = observed;
  // init: if the location is unregistered the caller just read the
  // observed value from it, so that is also its initial value.
  op.init = observed;
  Dispatch(&op);
}

std::chrono::steady_clock::time_point HookSteadyNow() {
  if (PassthroughNow()) return std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> l(g_engine->mu_);
  return std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(g_engine->vtime_ns_));
}

}  // namespace mc
}  // namespace asterix
