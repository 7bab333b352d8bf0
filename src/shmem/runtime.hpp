// An OpenSHMEM-like SPMD runtime with pluggable PE executors.
//
// This is the substrate the paper's language extensions compile onto.
// The paper uses a real OpenSHMEM library (ARL's Epiphany implementation
// on the Parallella; Cray SHMEM on the XC40); we reproduce the subset its
// backend needs, in-process:
//
//   * N processing elements (PEs) running the same function (SPMD), each
//     with a private *symmetric heap* arena. The arenas are slices of one
//     anonymous POSIX mapping, so heap pages cost memory only once
//     touched.
//     How PEs map onto OS threads is a PeExecutor strategy
//     (shmem/executor.hpp): thread-per-PE, a persistent pool, or fibers
//     multiplexing many virtual PEs per core
//   * collective, deterministic symmetric allocation: every PE performs
//     the same shmalloc sequence, so an object has the same offset on
//     every PE — exactly the property OpenSHMEM symmetric objects have —
//     and remote addressing works by (target_pe, offset)
//   * one-sided put/get between arenas. Transfers are performed with
//     relaxed word-atomic accesses: concurrent conflicting transfers can
//     tear (as on real hardware) but are not undefined behaviour, which
//     lets the Figure-2 "races without barriers" experiment run cleanly
//   * barrier_all, global exclusive locks (shmem_set/test/clear_lock),
//     64-bit fetch-add atomics, and allreduce/broadcast collectives.
//     Barriers and collectives cross a combining tree of configurable
//     radix (one crossing per collective, log-depth critical path),
//     with results byte-identical across executors and radices
//   * optional simulated time: when a noc::MachineModel is configured,
//     every remote operation charges the calling PE its modeled cost, so
//     benches can compare Epiphany-mesh vs XC40 behaviour deterministically
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "noc/model.hpp"
#include "obs/profile.hpp"
#include "shmem/executor.hpp"
#include "shmem/schedule_hook.hpp"
#include "support/error.hpp"
#include "support/string_util.hpp"

namespace lol::shmem {

/// Largest gang a Runtime launches: the paper's largest machine (the
/// 4,096-core Epiphany cluster). Counts beyond hardware threads want the
/// fiber executor.
inline constexpr int kMaxPes = 4096;

/// Runtime configuration.
struct Config {
  int n_pes = 1;
  /// Symmetric heap bound per PE (rounded up to 8 bytes). Reserved, not
  /// committed: a page of an arena costs memory only once a PE touches it.
  std::size_t heap_bytes = 1 << 20;
  int n_locks = 0;                   // global locks (IM SHARIN IT)
  noc::ModelPtr model;               // null => no simulated-time accounting
  ExecutorPtr executor;              // null => builtin thread-per-PE

  /// Fan-in of the combining-tree barrier (and of the tree collectives
  /// built on it). Values below 2 mean "auto" (a radix tuned for wide
  /// gangs). The radix changes contention and modeled tree depth, never
  /// results: collectives combine in a fixed canonical order.
  int barrier_radix = 0;

  /// Sample wall-clock wait times (barrier park, lock spin) into each
  /// PE's obs::PeProfile. Event counts are always collected; the clock
  /// reads are opt-in because they are not free at high PE counts.
  bool profile = false;

  /// Scheduling choice-point hook (shmem/schedule_hook.hpp). When set,
  /// the launch is serialized on an execution token the hook hands out —
  /// deterministic record/replay mode. Not owned; must outlive the
  /// launch. Null (the default) = free-running.
  ScheduleHook* schedule = nullptr;
};

class Runtime;

/// Per-PE handle: the view of the runtime a single SPMD thread uses.
/// Not thread-safe across PEs by design — each thread owns exactly one Pe.
class Pe {
 public:
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int n_pes() const;
  [[nodiscard]] Runtime& runtime() { return *rt_; }

  // -- symmetric allocation -------------------------------------------------

  /// Collective bump allocation: all PEs must call shmalloc in the same
  /// order with the same sizes; the returned offset is then identical on
  /// every PE. 8-byte aligned. Throws RuntimeError on heap exhaustion.
  std::size_t shmalloc(std::size_t bytes);

  /// Address of `offset` within this PE's own arena.
  [[nodiscard]] std::byte* local_addr(std::size_t offset);

  // -- one-sided remote memory access ---------------------------------------

  /// Writes `n` bytes from local `src` into PE `target`'s arena at
  /// `offset`. Charges modeled put cost to this PE.
  void put(int target, std::size_t offset, const void* src, std::size_t n);

  /// Reads `n` bytes from PE `target`'s arena at `offset` into `dst`.
  /// Charges modeled get cost to this PE.
  void get(void* dst, int target, std::size_t offset, std::size_t n);

  /// 64-bit scalar conveniences.
  void put_i64(int target, std::size_t offset, std::int64_t v);
  [[nodiscard]] std::int64_t get_i64(int target, std::size_t offset);
  void put_f64(int target, std::size_t offset, double v);
  [[nodiscard]] double get_f64(int target, std::size_t offset);

  /// Atomic fetch-add on a remote (or local) 64-bit symmetric word.
  std::int64_t atomic_fetch_add_i64(int target, std::size_t offset,
                                    std::int64_t delta);

  // -- synchronization -------------------------------------------------------

  /// Collective barrier over all PEs (shmem_barrier_all / HUGZ).
  void barrier_all();

  /// Blocking acquire of global lock `lock_id` (shmem_set_lock /
  /// IM SRSLY MESIN WIF). Non-recursive: re-acquiring a held lock throws.
  void set_lock(int lock_id);

  /// Non-blocking acquire (shmem_test_lock / IM MESIN WIF). Returns true
  /// when the lock was acquired.
  bool test_lock(int lock_id);

  /// Release (shmem_clear_lock / DUN MESIN WIF). Throws when this PE does
  /// not hold the lock.
  void clear_lock(int lock_id);

  // -- collectives ------------------------------------------------------------

  std::int64_t all_reduce_sum_i64(std::int64_t v);
  double all_reduce_sum_f64(double v);
  std::int64_t all_reduce_max_i64(std::int64_t v);
  double all_reduce_max_f64(double v);
  std::int64_t broadcast_i64(std::int64_t v, int root);

  // -- simulated time ----------------------------------------------------------

  /// Simulated nanoseconds accumulated by this PE (0 when no model).
  [[nodiscard]] double sim_ns() const { return sim_ns_; }

  /// Charges raw simulated time (used by backends to model compute).
  void charge_ns(double ns) { sim_ns_ += ns; }

  /// Charges the model's local-access cost for `bytes`.
  void charge_local(std::size_t bytes);

  // -- per-PE deterministic RNG seed support ------------------------------------

  /// An arbitrary per-launch, per-PE stable tag backends may use.
  [[nodiscard]] std::uint64_t launch_seed() const { return launch_seed_; }

  // -- per-PE profiling ---------------------------------------------------------

  /// Plain counters owned by the thread/fiber running this PE; backends
  /// bump them directly (steps, GIMMEH blocks) and the runtime adds
  /// barrier/lock events. Aggregated into LaunchResult after the gang
  /// joins — never read concurrently with the PE running.
  [[nodiscard]] obs::PeProfile& profile() { return prof_; }
  [[nodiscard]] const obs::PeProfile& profile() const { return prof_; }

 private:
  friend class Runtime;
  Runtime* rt_ = nullptr;
  int id_ = -1;
  std::size_t bump_ = 0;
  double sim_ns_ = 0.0;
  std::uint64_t launch_seed_ = 0;
  obs::PeProfile prof_;

  void check_target(int target) const;
  void check_range(std::size_t offset, std::size_t n) const;
};

/// Outcome of one SPMD launch.
struct LaunchResult {
  bool ok = true;
  /// Per-PE error message; empty string when that PE succeeded.
  std::vector<std::string> errors;
  /// Per-PE simulated time (ns); zeros when no machine model configured.
  std::vector<double> sim_ns;
  /// Per-PE runtime profiles (steps filled in by the backend; barrier
  /// and lock event counts always valid; *_wait_ns only populated when
  /// Config::profile was set).
  std::vector<obs::PeProfile> profiles;
  /// Milliseconds from launch() entry until the first PE body started
  /// (per-launch reset + executor claim), and from then until the gang
  /// joined.
  double claim_ms = 0.0;
  double exec_ms = 0.0;

  /// First non-empty error, preferring a root cause over the "SPMD
  /// aborted ..." collateral reported by peers the abort woke up.
  [[nodiscard]] std::string first_error() const {
    return support::first_root_error(errors);
  }
  /// Maximum simulated time across PEs — the modeled wall-clock.
  [[nodiscard]] double max_sim_ns() const {
    double m = 0.0;
    for (double v : sim_ns) m = v > m ? v : m;
    return m;
  }
};

/// The shared SPMD runtime: owns the arenas, the barrier, the locks and
/// the collective scratch space. One Runtime can perform many launches;
/// state is reset at the start of each launch.
class Runtime {
 public:
  /// Throws RuntimeError for an out-of-range n_pes and for a heap that
  /// overflows size_t or cannot be mapped.
  explicit Runtime(Config cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `fn` on n_pes PEs (SPMD) via the configured executor —
  /// thread-per-PE by default, a persistent pool or fiber carriers when
  /// Config::executor says so. Exceptions thrown by a PE are captured
  /// into the result; peers blocked in barriers/locks are woken and
  /// abort with "SPMD aborted" errors so a failing PE cannot deadlock
  /// the launch.
  LaunchResult launch(const std::function<void(Pe&)>& fn);

  [[nodiscard]] int n_pes() const { return cfg_.n_pes; }
  [[nodiscard]] std::size_t heap_bytes() const { return cfg_.heap_bytes; }
  [[nodiscard]] int n_locks() const { return cfg_.n_locks; }
  /// The resolved combining-tree fan-in (auto already applied).
  [[nodiscard]] int barrier_radix() const { return radix_; }
  /// Tree depth: how many combining levels one crossing climbs.
  [[nodiscard]] int barrier_levels() const {
    return static_cast<int>(level_off_.size());
  }
  [[nodiscard]] const noc::MachineModel* model() const {
    return cfg_.model.get();
  }

  /// The executor scheduling the current launch (the configured one, or
  /// the builtin thread-per-PE executor).
  [[nodiscard]] PeExecutor& scheduler() {
    PeExecutor* s = sched_.load(std::memory_order_acquire);
    return s != nullptr ? *s : thread_per_pe_executor();
  }

  // -- the cooperative blocking protocol ------------------------------------
  // Blocking primitives — the barrier, locks, and the abort-aware polls
  // in rt::ExecContext — wait through this runtime's own eventcount via
  // the executor, so virtual PEs yield their carrier instead of parking
  // the OS thread, and concurrent jobs sharing one executor never
  // contend on a process-global rendezvous.

  /// Epoch snapshot; take before re-checking the awaited condition.
  [[nodiscard]] std::uint64_t prepare_wait() const {
    return ec_.prepare_wait();
  }
  /// Blocks PE `pe` until notify_waiters() bumps the epoch past the
  /// snapshot (fiber executor: yields the carrier instead).
  void wait(int pe, std::uint64_t epoch) {
    scheduler().wait(ec_, pe, epoch);
  }
  /// Wakes every PE blocked in wait(). Also tells the schedule hook (if
  /// any) that an awaited condition may have changed, so parked PEs
  /// become schedulable again.
  void notify_waiters() {
    if (cfg_.schedule != nullptr) cfg_.schedule->on_notify();
    ec_.notify_all();
  }
  /// Plain eventcount wake without the schedule-hook signal — used by
  /// the hook itself to hand the token over (going through on_notify
  /// would re-ready PEs it just parked).
  void wake_waiters() { ec_.notify_all(); }
  /// True when PEs are cooperatively multiplexed (see
  /// PeExecutor::cooperative).
  [[nodiscard]] bool cooperative_pes() {
    return scheduler().cooperative();
  }
  /// Cooperative time-slice point for compute loops.
  void preempt(int pe) { scheduler().preempt(pe); }

  /// The scheduling hook driving this runtime, or null (free-running).
  [[nodiscard]] ScheduleHook* schedule_hook() const { return cfg_.schedule; }
  /// Choice point: under a schedule hook, offer the execution token back
  /// and block until scheduled again; free of cost when no hook is set.
  void schedule_yield(int pe) {
    if (cfg_.schedule != nullptr) cfg_.schedule->yield(*this, pe);
  }

  /// PE `pe`'s arena: heap_bytes() bytes of the shared mapping.
  [[nodiscard]] std::byte* arena(int pe) {
    return heap_ + static_cast<std::size_t>(pe) * cfg_.heap_bytes;
  }

  /// Requests cooperative abort: wakes barrier waiters and lock spinners.
  void abort();
  [[nodiscard]] bool aborted() const {
    return abort_.load(std::memory_order_acquire);
  }

 private:
  friend class Pe;

  /// A global lock is an atomic owner cell, not a mutex: a fiber
  /// holding a std::mutex while a sibling fiber on the same OS thread
  /// try_locks it would be undefined behavior, and the CAS wait-queue
  /// lets waiters block through the executor's eventcount.
  struct GlobalLock {
    std::atomic<int> owner{-1};  // PE id, -1 when free
  };

  // -- the combining-tree barrier ------------------------------------------
  // One crossing serves both barrier_all and the collectives. PEs arrive
  // at padded per-group leaf nodes; the last arrival of each group (the
  // "winner") combines its children and ascends, so only ceil(n/radix)
  // PEs touch level 1, and exactly one PE reaches the root per
  // generation. The root winner publishes the release timestamp (and any
  // reduction result) into generation-parity slots, bumps the global
  // generation, and fans the release out through the per-Runtime
  // eventcount — the same wake path fibers, aborts and deadlines already
  // use, so wedged PEs stay killable at every tree position.

  /// What a tree crossing carries besides the rendezvous itself.
  enum class CollOp { kNone, kSumI64, kMaxI64, kSumF64, kMaxF64 };

  /// One combining node, alone on its cache line so leaf groups arrive
  /// on private lines instead of a single shared counter.
  struct alignas(64) TreeNode {
    std::atomic<int> count{0};  // arrivals this generation; winner resets
    // Winner-written partials; ordered by the arrival counter's acq_rel
    // chain, so plain fields are race-free. Only exactly-associative
    // (integer) reductions carry a value partial — f64 reductions fold
    // at the root in canonical order (see Runtime::fire_root).
    double combined_ns = 0.0;
    std::int64_t combined_i64 = 0;
  };

  /// Per-PE slot on its own line (barrier arrivals write sim_ns here).
  struct alignas(64) PeSlot {
    double ns = 0.0;
  };

  void reset_for_launch();
  void barrier(Pe& pe);
  void build_tree();
  /// Children of node `node_i` at `level` (ragged last group).
  [[nodiscard]] int child_count(int level, int node_i) const;
  /// Full crossing: arrive, climb as winner or wait, sync sim_ns.
  /// Returns this crossing's generation (selects the result slot).
  std::uint64_t cross(Pe& pe, CollOp op);
  void combine_node(int level, int node_i, int width, TreeNode& node,
                    CollOp op);
  void fire_root(std::uint64_t my_gen, CollOp op);

  Config cfg_;
  // Every PE's arena in one anonymous private mapping (null when the heap
  // is empty). Fresh pages read as zero, so only relaunches re-zero.
  std::byte* heap_ = nullptr;
  std::size_t heap_map_bytes_ = 0;

  int radix_ = 0;                    // resolved fan-in (>= 2)
  std::vector<int> level_width_;     // nodes per level; level 0 = leaves
  std::vector<int> level_off_;       // level start offsets into tree_
  std::unique_ptr<TreeNode[]> tree_; // all levels, contiguous
  std::unique_ptr<PeSlot[]> pe_ns_;  // per-PE sim_ns contribution

  std::atomic<std::uint64_t> bar_gen_{0};
  // Generation-parity result slots: written by the root winner of
  // generation g before the release store, read by g's waiters after it;
  // generation g+2 cannot fire before every PE exited g, so two slots
  // suffice (same invariant the pre-tree barrier relied on).
  double bar_release_ns_[2] = {0.0, 0.0};
  std::int64_t red_i64_[2] = {0, 0};
  double red_f64_[2] = {0.0, 0.0};
  std::int64_t bcast_i64_[2] = {0, 0};

  std::deque<GlobalLock> locks_;

  // Collective inputs (one slot per PE). Safe to overwrite on the next
  // crossing without a trailing barrier: every read of these happens
  // tree-side, strictly before the release that lets any PE advance.
  std::vector<std::int64_t> scratch_i64_;
  std::vector<double> scratch_f64_;

  std::atomic<bool> abort_{false};
  std::atomic<PeExecutor*> sched_{nullptr};  // non-null while a launch runs
  EventCount ec_;  // this runtime's blocking rendezvous (per-job, not global)
  std::uint64_t launch_counter_ = 0;
};

}  // namespace lol::shmem
