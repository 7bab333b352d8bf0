#include "shmem/runtime.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "obs/metrics.hpp"

namespace lol::shmem {

using support::RuntimeError;

namespace {

constexpr std::size_t kAlign = 8;

#if LOL_OBS_RUNTIME_METRICS
/// Process-wide runtime counters, resolved once: after the first call an
/// update is a single relaxed fetch_add on a private cache line.
struct RtMetrics {
  obs::Counter& barrier_crossings;
  obs::Counter& lock_acquisitions;
  obs::Counter& lock_contended;
  obs::Gauge& tree_levels;
  RtMetrics()
      : barrier_crossings(obs::Registry::global().counter(
            "lol_barrier_crossings_total",
            "Whole-gang combining-tree crossings (barriers + collectives)")),
        lock_acquisitions(obs::Registry::global().counter(
            "lol_lock_acquisitions_total",
            "Global symmetric lock acquisitions (set_lock and won test_lock)")),
        lock_contended(obs::Registry::global().counter(
            "lol_lock_contended_total",
            "Lock acquisitions that found the lock held and had to wait")),
        tree_levels(obs::Registry::global().gauge(
            "lol_barrier_tree_levels",
            "Combining-tree depth of the most recently built runtime")) {}
};

RtMetrics& rt_metrics() {
  static RtMetrics m;
  return m;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

/// Relaxed word-atomic copy *into* an arena. Tears at word granularity
/// under races (like real one-sided hardware) but is never UB.
void arena_write(std::byte* dst, const void* src, std::size_t n) {
  const auto* s = static_cast<const std::byte*>(src);
  auto dst_addr = reinterpret_cast<std::uintptr_t>(dst);
  while (n >= 8 && (dst_addr % 8) == 0) {
    std::uint64_t word;
    std::memcpy(&word, s, 8);
    std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(dst))
        .store(word, std::memory_order_relaxed);
    dst += 8;
    dst_addr += 8;
    s += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::atomic_ref<std::uint8_t>(*reinterpret_cast<std::uint8_t*>(dst + i))
        .store(static_cast<std::uint8_t>(s[i]), std::memory_order_relaxed);
  }
}

/// Relaxed word-atomic copy *out of* an arena.
void arena_read(void* dst, const std::byte* src, std::size_t n) {
  auto* d = static_cast<std::byte*>(dst);
  auto src_addr = reinterpret_cast<std::uintptr_t>(src);
  while (n >= 8 && (src_addr % 8) == 0) {
    std::uint64_t word =
        std::atomic_ref<const std::uint64_t>(
            *reinterpret_cast<const std::uint64_t*>(src))
            .load(std::memory_order_relaxed);
    std::memcpy(d, &word, 8);
    src += 8;
    src_addr += 8;
    d += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = static_cast<std::byte>(
        std::atomic_ref<const std::uint8_t>(
            *reinterpret_cast<const std::uint8_t*>(src + i))
            .load(std::memory_order_relaxed));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Pe
// ---------------------------------------------------------------------------

int Pe::n_pes() const { return rt_->n_pes(); }

void Pe::check_target(int target) const {
  if (target < 0 || target >= rt_->n_pes()) {
    throw RuntimeError("remote PE " + std::to_string(target) +
                       " is out of range (MAH FRENZ = " +
                       std::to_string(rt_->n_pes()) + ")");
  }
}

void Pe::check_range(std::size_t offset, std::size_t n) const {
  if (offset + n > rt_->heap_bytes() || offset + n < offset) {
    throw RuntimeError("symmetric access [" + std::to_string(offset) + ", " +
                       std::to_string(offset + n) +
                       ") exceeds the symmetric heap (" +
                       std::to_string(rt_->heap_bytes()) + " bytes)");
  }
}

std::size_t Pe::shmalloc(std::size_t bytes) {
  std::size_t rounded = (bytes + kAlign - 1) & ~(kAlign - 1);
  if (bump_ + rounded > rt_->heap_bytes()) {
    throw RuntimeError(
        "symmetric heap exhausted: need " + std::to_string(rounded) +
        " more bytes, " + std::to_string(rt_->heap_bytes() - bump_) +
        " available (configure a larger heap)");
  }
  std::size_t off = bump_;
  bump_ += rounded;
  return off;
}

std::byte* Pe::local_addr(std::size_t offset) {
  return rt_->arena(id_) + offset;
}

void Pe::put(int target, std::size_t offset, const void* src, std::size_t n) {
  rt_->schedule_yield(id_);
  check_target(target);
  check_range(offset, n);
  arena_write(rt_->arena(target) + offset, src, n);
  if (const auto* m = rt_->model()) sim_ns_ += m->put_ns(id_, target, n);
}

void Pe::get(void* dst, int target, std::size_t offset, std::size_t n) {
  rt_->schedule_yield(id_);
  check_target(target);
  check_range(offset, n);
  arena_read(dst, rt_->arena(target) + offset, n);
  if (const auto* m = rt_->model()) sim_ns_ += m->get_ns(id_, target, n);
}

void Pe::put_i64(int target, std::size_t offset, std::int64_t v) {
  put(target, offset, &v, sizeof v);
}

std::int64_t Pe::get_i64(int target, std::size_t offset) {
  std::int64_t v;
  get(&v, target, offset, sizeof v);
  return v;
}

void Pe::put_f64(int target, std::size_t offset, double v) {
  put(target, offset, &v, sizeof v);
}

double Pe::get_f64(int target, std::size_t offset) {
  double v;
  get(&v, target, offset, sizeof v);
  return v;
}

std::int64_t Pe::atomic_fetch_add_i64(int target, std::size_t offset,
                                      std::int64_t delta) {
  rt_->schedule_yield(id_);
  check_target(target);
  check_range(offset, sizeof(std::int64_t));
  auto* word =
      reinterpret_cast<std::int64_t*>(rt_->arena(target) + offset);
  std::int64_t old = std::atomic_ref<std::int64_t>(*word).fetch_add(
      delta, std::memory_order_acq_rel);
  if (const auto* m = rt_->model()) sim_ns_ += m->get_ns(id_, target, 8);
  return old;
}

void Pe::barrier_all() { rt_->barrier(*this); }

void Pe::set_lock(int lock_id) {
  if (lock_id < 0 || lock_id >= rt_->n_locks()) {
    throw RuntimeError("lock id " + std::to_string(lock_id) +
                       " is out of range");
  }
  auto& lock = rt_->locks_[static_cast<std::size_t>(lock_id)];
  if (lock.owner.load(std::memory_order_acquire) == id_) {
    throw RuntimeError("PE " + std::to_string(id_) +
                       " already holds this lock (IM SRSLY MESIN WIF is not "
                       "recursive)");
  }
  rt_->schedule_yield(id_);
  // Eventcount-shaped acquire loop: block through the executor (a fiber
  // yields its carrier here) and stay abortable between attempts.
#if LOL_OBS_RUNTIME_METRICS
  ++prof_.lock_acquires;
  rt_metrics().lock_acquisitions.inc();
  bool contended = false;
  std::uint64_t t_wait0 = 0;
#endif
  for (;;) {
    std::uint64_t e = rt_->prepare_wait();
    int expected = -1;
    if (lock.owner.compare_exchange_strong(expected, id_,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      break;
    }
#if LOL_OBS_RUNTIME_METRICS
    if (!contended) {
      contended = true;
      ++prof_.lock_contended;
      rt_metrics().lock_contended.inc();
      if (rt_->cfg_.profile) t_wait0 = now_ns();
    }
#endif
    if (rt_->aborted()) {
      throw RuntimeError("SPMD aborted while waiting for lock");
    }
    if (auto* hook = rt_->schedule_hook()) {
      // Park until the owner's clear_lock() readies us, then retry the
      // CAS under the token — acquisition order follows the schedule.
      hook->blocked(*rt_, id_);
    } else {
      rt_->wait(id_, e);
    }
  }
#if LOL_OBS_RUNTIME_METRICS
  if (contended && rt_->cfg_.profile) {
    prof_.lock_wait_ns += now_ns() - t_wait0;
  }
#endif
  if (const auto* m = rt_->model()) {
    sim_ns_ += m->lock_ns(id_, lock_id % rt_->n_pes());
  }
}

bool Pe::test_lock(int lock_id) {
  if (lock_id < 0 || lock_id >= rt_->n_locks()) {
    throw RuntimeError("lock id " + std::to_string(lock_id) +
                       " is out of range");
  }
  auto& lock = rt_->locks_[static_cast<std::size_t>(lock_id)];
  if (lock.owner.load(std::memory_order_acquire) == id_) {
    throw RuntimeError("PE " + std::to_string(id_) +
                       " already holds this lock");
  }
  rt_->schedule_yield(id_);
  int expected = -1;
  bool got = lock.owner.compare_exchange_strong(expected, id_,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire);
#if LOL_OBS_RUNTIME_METRICS
  if (got) {
    ++prof_.lock_acquires;
    rt_metrics().lock_acquisitions.inc();
  }
#endif
  if (const auto* m = rt_->model()) {
    sim_ns_ += m->lock_ns(id_, lock_id % rt_->n_pes());
  }
  return got;
}

void Pe::clear_lock(int lock_id) {
  if (lock_id < 0 || lock_id >= rt_->n_locks()) {
    throw RuntimeError("lock id " + std::to_string(lock_id) +
                       " is out of range");
  }
  auto& lock = rt_->locks_[static_cast<std::size_t>(lock_id)];
  if (lock.owner.load(std::memory_order_acquire) != id_) {
    throw RuntimeError("PE " + std::to_string(id_) +
                       " releases a lock it does not hold (DUN MESIN WIF "
                       "without IM ... MESIN WIF)");
  }
  rt_->schedule_yield(id_);
  lock.owner.store(-1, std::memory_order_release);
  rt_->notify_waiters();
  if (const auto* m = rt_->model()) {
    sim_ns_ += m->lock_ns(id_, lock_id % rt_->n_pes());
  }
}

void Pe::charge_local(std::size_t bytes) {
  if (const auto* m = rt_->model()) sim_ns_ += m->local_ns(bytes);
}

// Collectives: one tree crossing each. The input goes into this PE's
// scratch slot before arrival; combining happens tree-side (winners
// only), and the result comes back through a generation-parity slot —
// no trailing barrier, half the rendezvous cost of the old
// barrier/scan/barrier shape, and a log-depth critical path.

std::int64_t Pe::all_reduce_sum_i64(std::int64_t v) {
  rt_->scratch_i64_[static_cast<std::size_t>(id_)] = v;
  std::uint64_t g = rt_->cross(*this, Runtime::CollOp::kSumI64);
  return rt_->red_i64_[g & 1];
}

double Pe::all_reduce_sum_f64(double v) {
  rt_->scratch_f64_[static_cast<std::size_t>(id_)] = v;
  std::uint64_t g = rt_->cross(*this, Runtime::CollOp::kSumF64);
  return rt_->red_f64_[g & 1];
}

std::int64_t Pe::all_reduce_max_i64(std::int64_t v) {
  rt_->scratch_i64_[static_cast<std::size_t>(id_)] = v;
  std::uint64_t g = rt_->cross(*this, Runtime::CollOp::kMaxI64);
  return rt_->red_i64_[g & 1];
}

double Pe::all_reduce_max_f64(double v) {
  rt_->scratch_f64_[static_cast<std::size_t>(id_)] = v;
  std::uint64_t g = rt_->cross(*this, Runtime::CollOp::kMaxF64);
  return rt_->red_f64_[g & 1];
}

std::int64_t Pe::broadcast_i64(std::int64_t v, int root) {
  check_target(root);
  if (id_ == root) {
    // Entering generation g is only possible after every PE exited g-2,
    // so the parity slot this writes cannot still be read by stragglers.
    std::uint64_t g = rt_->bar_gen_.load(std::memory_order_acquire);
    rt_->bcast_i64_[g & 1] = v;
  }
  std::uint64_t g = rt_->cross(*this, Runtime::CollOp::kNone);
  return rt_->bcast_i64_[g & 1];
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.n_pes < 1 || cfg_.n_pes > kMaxPes) {
    throw RuntimeError("n_pes must be in [1, " + std::to_string(kMaxPes) +
                       "], got " + std::to_string(cfg_.n_pes));
  }
  const std::size_t n = static_cast<std::size_t>(cfg_.n_pes);
  const std::size_t requested = cfg_.heap_bytes;
  auto heap_desc = [&] {
    return "symmetric heap of " + std::to_string(requested) +
           " bytes per PE x " + std::to_string(n) + " PEs";
  };
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const bool rounding_wraps = cfg_.heap_bytes > kMax - (kAlign - 1);
  cfg_.heap_bytes = (cfg_.heap_bytes + kAlign - 1) & ~(kAlign - 1);
  if (rounding_wraps || cfg_.heap_bytes > kMax / n) {
    throw RuntimeError(heap_desc() + " overflows the address space");
  }
  scratch_i64_.resize(n);
  scratch_f64_.resize(n);
  for (int i = 0; i < cfg_.n_locks; ++i) locks_.emplace_back();
  build_tree();
  // Mapped last, so no later throw can leak it. The kernel hands out
  // zero pages on first touch: a PE pays only for the heap it uses.
  heap_map_bytes_ = cfg_.heap_bytes * n;
  if (heap_map_bytes_ != 0) {
    void* base = ::mmap(nullptr, heap_map_bytes_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      throw RuntimeError("cannot map a " + heap_desc() + ": " +
                         std::strerror(errno));
    }
    heap_ = static_cast<std::byte*>(base);
  }
}

Runtime::~Runtime() {
  if (heap_ != nullptr) ::munmap(heap_, heap_map_bytes_);
}

void Runtime::build_tree() {
  // Auto radix 8: groups stay narrow enough that a leaf line is shared
  // by few arrivals, while 4096 PEs still cross in 4 levels. Any
  // explicit radix >= 2 is honored (a radix >= n_pes degenerates to one
  // flat lock-free node — the shape benches compare the tree against).
  constexpr int kAutoRadix = 8;
  radix_ = cfg_.barrier_radix >= 2 ? cfg_.barrier_radix : kAutoRadix;
  // Clamp at the layer every entry point shares: a fan-in beyond n_pes
  // is already the one-flat-node tree, and an unclamped hostile value
  // (INT_MAX from a CLI flag) would overflow the width arithmetic.
  radix_ = std::min(radix_, std::max(2, cfg_.n_pes));
  level_width_.clear();
  level_off_.clear();
  int total = 0;
  int width = cfg_.n_pes;
  do {
    width = (width + radix_ - 1) / radix_;
    level_off_.push_back(total);
    level_width_.push_back(width);
    total += width;
  } while (width > 1);
  tree_ = std::make_unique<TreeNode[]>(static_cast<std::size_t>(total));
  pe_ns_ = std::make_unique<PeSlot[]>(static_cast<std::size_t>(cfg_.n_pes));
#if LOL_OBS_RUNTIME_METRICS
  rt_metrics().tree_levels.set(static_cast<std::int64_t>(level_off_.size()));
#endif
}

int Runtime::child_count(int level, int node_i) const {
  const int children =
      level == 0 ? cfg_.n_pes
                 : level_width_[static_cast<std::size_t>(level - 1)];
  const int lo = node_i * radix_;
  return std::min(children, lo + radix_) - lo;
}

void Runtime::abort() {
  abort_.store(true, std::memory_order_release);
  // Wake everything parked in this runtime's eventcount (barrier
  // waiters, lock waiters, idle fiber carriers); the wait loops re-check
  // the abort flag and die.
  notify_waiters();
}

void Runtime::reset_for_launch() {
  abort_.store(false, std::memory_order_release);
  bar_gen_.store(0, std::memory_order_relaxed);
  bar_release_ns_[0] = bar_release_ns_[1] = 0.0;
  red_i64_[0] = red_i64_[1] = 0;
  red_f64_[0] = red_f64_[1] = 0.0;
  bcast_i64_[0] = bcast_i64_[1] = 0;
  // An aborted launch leaves partial arrivals in the tree; scrub them.
  const std::size_t nodes = static_cast<std::size_t>(
      level_off_.back() + level_width_.back());
  for (std::size_t i = 0; i < nodes; ++i) {
    tree_[i].count.store(0, std::memory_order_relaxed);
    tree_[i].combined_ns = 0.0;
    tree_[i].combined_i64 = 0;
  }
  for (int i = 0; i < cfg_.n_pes; ++i) pe_ns_[static_cast<std::size_t>(i)].ns = 0.0;
  // Owners are reset so a previous aborted launch cannot leave one held.
  for (auto& lock : locks_) lock.owner.store(-1, std::memory_order_relaxed);
  // The first launch finds the heap as mmap left it, all zero pages;
  // only a relaunch has to clear it.
  if (launch_counter_ > 0 && heap_ != nullptr) {
    std::memset(heap_, 0, heap_map_bytes_);
  }
  std::fill(scratch_i64_.begin(), scratch_i64_.end(), 0);
  std::fill(scratch_f64_.begin(), scratch_f64_.end(), 0.0);
  ++launch_counter_;
}

void Runtime::barrier(Pe& pe) { (void)cross(pe, CollOp::kNone); }

void Runtime::combine_node(int level, int node_i, int width, TreeNode& node,
                           CollOp op) {
  const int lo = node_i * radix_;
  // Child accessors: leaf children are PEs (scratch/pe_ns slots),
  // interior children are the nodes of the level below.
  const TreeNode* kids =
      level == 0 ? nullptr
                 : tree_.get() + level_off_[static_cast<std::size_t>(level - 1)];
  if (cfg_.model != nullptr) {
    double max_ns = 0.0;
    for (int c = lo; c < lo + width; ++c) {
      double v = level == 0 ? pe_ns_[static_cast<std::size_t>(c)].ns
                            : kids[c].combined_ns;
      max_ns = std::max(max_ns, v);
    }
    node.combined_ns = max_ns;
  }
  // Value combining happens in fixed left-to-right child order, so the
  // partials are deterministic for any arrival interleaving. Only the
  // integer ops combine up the tree: they are exactly associative, so
  // any bracketing — i.e. any radix — produces identical bytes. The
  // f64 ops are not (sum re-brackets rounding; max is order-sensitive
  // for NaN and ±0.0 inputs), so kSumF64/kMaxF64 skip the tree and the
  // root folds the scratch array in canonical index order instead —
  // byte-identical to the historical linear scan, whatever the radix.
  switch (op) {
    case CollOp::kSumI64: {
      std::int64_t acc = 0;
      for (int c = lo; c < lo + width; ++c) {
        acc += level == 0 ? scratch_i64_[static_cast<std::size_t>(c)]
                          : kids[c].combined_i64;
      }
      node.combined_i64 = acc;
      break;
    }
    case CollOp::kMaxI64: {
      std::int64_t acc = level == 0 ? scratch_i64_[static_cast<std::size_t>(lo)]
                                    : kids[lo].combined_i64;
      for (int c = lo + 1; c < lo + width; ++c) {
        std::int64_t v = level == 0 ? scratch_i64_[static_cast<std::size_t>(c)]
                                    : kids[c].combined_i64;
        acc = v > acc ? v : acc;
      }
      node.combined_i64 = acc;
      break;
    }
    case CollOp::kNone:
    case CollOp::kSumF64:
    case CollOp::kMaxF64:
      break;
  }
}

void Runtime::fire_root(std::uint64_t my_gen, CollOp op) {
  const TreeNode& root = tree_[static_cast<std::size_t>(level_off_.back())];
  double release = root.combined_ns;
  if (cfg_.model) {
    release += cfg_.model->tree_barrier_ns(cfg_.n_pes, radix_);
  }
  const std::size_t slot = my_gen & 1;
  switch (op) {
    case CollOp::kSumI64:
    case CollOp::kMaxI64:
      red_i64_[slot] = root.combined_i64;
      break;
    case CollOp::kSumF64: {
      // Canonical-order fold (see combine_node): O(n) loads once per
      // crossing, by the single PE that reached the root.
      double acc = scratch_f64_[0];
      for (int i = 1; i < cfg_.n_pes; ++i) {
        acc += scratch_f64_[static_cast<std::size_t>(i)];
      }
      red_f64_[slot] = acc;
      break;
    }
    case CollOp::kMaxF64: {
      // Same canonical fold: f64 max is order-sensitive for NaN and
      // ±0.0, so the tree must not re-bracket it either.
      double acc = scratch_f64_[0];
      for (int i = 1; i < cfg_.n_pes; ++i) {
        double v = scratch_f64_[static_cast<std::size_t>(i)];
        acc = v > acc ? v : acc;
      }
      red_f64_[slot] = acc;
      break;
    }
    case CollOp::kNone:
      break;
  }
  bar_release_ns_[slot] = release;
#if LOL_OBS_RUNTIME_METRICS
  // One increment per whole-gang crossing, by the single root winner —
  // the global counter costs nothing per PE.
  rt_metrics().barrier_crossings.inc();
#endif
  bar_gen_.store(my_gen + 1, std::memory_order_release);
  notify_waiters();
}

std::uint64_t Runtime::cross(Pe& pe, CollOp op) {
  // Barrier arrival is a recorded choice point: under a schedule hook
  // the token order fixes which PE climbs each tree node last (and so
  // which one wins the root and combines).
  schedule_yield(pe.id_);
  if (aborted()) throw RuntimeError("SPMD aborted while entering barrier");
  // Entering PEs always read their own crossing's generation: g cannot
  // advance to g+1 until every PE (this one included) has arrived.
  const std::uint64_t my_gen = bar_gen_.load(std::memory_order_acquire);
  // Simulated time is only accounted under a machine model; without one
  // the release timestamp stays 0 and PEs keep their own (zero) clocks,
  // so the hot path skips a padded store plus per-group scans per
  // crossing.
  const bool sim = cfg_.model != nullptr;
  if (sim) pe_ns_[static_cast<std::size_t>(pe.id_)].ns = pe.sim_ns_;
#if LOL_OBS_RUNTIME_METRICS
  ++pe.prof_.barrier_crossings;
#endif

  // Climb while this PE is the last arrival of each node. Winners never
  // block; losers fall through to the eventcount wait below. The
  // arrival fetch_add is acq_rel: it publishes this PE's scratch/ns
  // stores to the eventual winner and, for the winner, acquires every
  // sibling's stores — so the plain combined_* fields are ordered.
  int child = pe.id_;
  bool winner = true;
  const int levels = static_cast<int>(level_width_.size());
  for (int level = 0; level < levels; ++level) {
    const int node_i = child / radix_;
    TreeNode& node =
        tree_[static_cast<std::size_t>(level_off_[static_cast<std::size_t>(
                                           level)] +
                                       node_i)];
    const int width = child_count(level, node_i);
    if (node.count.fetch_add(1, std::memory_order_acq_rel) + 1 < width) {
      winner = false;
      break;
    }
    // Reset before ascending: the next use of this node is generation
    // g+1, which cannot start until g releases — after this store.
    node.count.store(0, std::memory_order_relaxed);
    combine_node(level, node_i, width, node, op);
    child = node_i;
  }

  if (winner) {
    fire_root(my_gen, op);
  } else {
    // Eventcount wait: fibers yield their carrier here, threads park;
    // abort()/deadline wakeups land on the same notify path as the
    // release, so a wedged PE dies whether it is a leaf waiter, a
    // mid-tree loser, or parked one arrival short of the root.
#if LOL_OBS_RUNTIME_METRICS
    const bool timed = cfg_.profile;
    const std::uint64_t t_wait0 = timed ? now_ns() : 0;
#endif
    for (;;) {
      std::uint64_t e = prepare_wait();
      if (bar_gen_.load(std::memory_order_acquire) != my_gen) break;
      if (aborted()) {
        throw RuntimeError("SPMD aborted while waiting in barrier (HUGZ)");
      }
      if (auto* hook = cfg_.schedule) {
        // Park: only the winner's release (notify_waiters -> on_notify)
        // makes losers schedulable again.
        hook->blocked(*this, pe.id_);
      } else {
        wait(pe.id_, e);
      }
    }
#if LOL_OBS_RUNTIME_METRICS
    if (timed) pe.prof_.barrier_wait_ns += now_ns() - t_wait0;
#endif
  }
  // Release timestamp broadcast: every PE leaves the crossing at the
  // same simulated instant (max across arrivals + modeled tree cost).
  if (sim) pe.sim_ns_ = bar_release_ns_[my_gen & 1];
  return my_gen;
}

LaunchResult Runtime::launch(const std::function<void(Pe&)>& fn) {
  const auto t_launch = std::chrono::steady_clock::now();
  reset_for_launch();
  const int n = cfg_.n_pes;
  std::vector<Pe> pes(static_cast<std::size_t>(n));
  LaunchResult result;
  result.errors.assign(static_cast<std::size_t>(n), "");
  result.sim_ns.assign(static_cast<std::size_t>(n), 0.0);

  for (int i = 0; i < n; ++i) {
    pes[static_cast<std::size_t>(i)].rt_ = this;
    pes[static_cast<std::size_t>(i)].id_ = i;
    pes[static_cast<std::size_t>(i)].launch_seed_ =
        launch_counter_ * 0x9E3779B97F4A7C15ULL;
  }

  // Executor-claim vs run split for job traces: the first PE body to
  // start stamps t_first (single writer via the exchange; read after the
  // gang joins, so the plain time_point is race-free).
  std::atomic<bool> first_started{false};
  std::chrono::steady_clock::time_point t_first{};

  auto body = [&](int i) {
    if (!first_started.exchange(true, std::memory_order_relaxed)) {
      t_first = std::chrono::steady_clock::now();
    }
    Pe& pe = pes[static_cast<std::size_t>(i)];
    try {
      if (cfg_.schedule != nullptr) cfg_.schedule->pe_start(*this, i);
      fn(pe);
    } catch (const std::exception& e) {
      result.errors[static_cast<std::size_t>(i)] =
          "PE " + std::to_string(i) + ": " + e.what();
      abort();
    } catch (...) {
      result.errors[static_cast<std::size_t>(i)] =
          "PE " + std::to_string(i) + ": unknown exception";
      abort();
    }
    // Every exit path (return, error, abort) retires the PE with the
    // hook so remaining PEs can be scheduled. Must not throw.
    if (cfg_.schedule != nullptr) cfg_.schedule->pe_exit(*this, i);
  };

  PeExecutor* ex =
      cfg_.executor != nullptr ? cfg_.executor.get() : &thread_per_pe_executor();
  sched_.store(ex, std::memory_order_release);
  try {
    ex->run_gang(n, body, ec_);
  } catch (...) {
    // Resource acquisition failed before any PE ran (fiber stacks);
    // clear the scheduler and let the caller report it.
    sched_.store(nullptr, std::memory_order_release);
    throw;
  }
  sched_.store(nullptr, std::memory_order_release);

  const auto t_done = std::chrono::steady_clock::now();
  auto ms = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  if (first_started.load(std::memory_order_relaxed)) {
    result.claim_ms = ms(t_first - t_launch);
    result.exec_ms = ms(t_done - t_first);
  } else {
    result.claim_ms = ms(t_done - t_launch);
  }

  result.profiles.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    result.sim_ns[static_cast<std::size_t>(i)] =
        pes[static_cast<std::size_t>(i)].sim_ns_;
    result.profiles[static_cast<std::size_t>(i)] =
        pes[static_cast<std::size_t>(i)].prof_;
    if (!result.errors[static_cast<std::size_t>(i)].empty()) {
      result.ok = false;
    }
  }
  return result;
}

}  // namespace lol::shmem
