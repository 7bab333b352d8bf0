#include "shmem/executor.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace lol::shmem {

#if LOL_OBS_RUNTIME_METRICS
namespace {
struct PoolMetrics {
  obs::Counter& worker_claims;
  obs::Counter& threads_created;
  PoolMetrics()
      : worker_claims(obs::Registry::global().counter(
            "lol_executor_worker_claims_total",
            "Workers claimed from persistent pools (PE workers and fiber "
            "carriers)")),
        threads_created(obs::Registry::global().counter(
            "lol_executor_threads_created_total",
            "OS threads ever created by persistent executor pools")) {}
};
PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}
}  // namespace
#endif

const char* to_string(ExecutorKind k) {
  switch (k) {
    case ExecutorKind::kThread: return "thread";
    case ExecutorKind::kPool: return "pool";
    case ExecutorKind::kFiber: return "fiber";
  }
  return "thread";
}

std::optional<ExecutorKind> executor_from_name(std::string_view name) {
  for (ExecutorKind k :
       {ExecutorKind::kThread, ExecutorKind::kPool, ExecutorKind::kFiber}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

void EventCount::wait_for_usec(std::uint64_t epoch, long usec) {
  std::unique_lock<std::mutex> g(m_);
  cv_.wait_for(g, std::chrono::microseconds(usec), [&] {
    return epoch_.load(std::memory_order_relaxed) != epoch;
  });
}

// ---------------------------------------------------------------------------
// Thread-per-PE
// ---------------------------------------------------------------------------

namespace {

class ThreadPerPeExecutor final : public PeExecutor {
 public:
  void run_gang(int n, const std::function<void(int)>& body,
                EventCount& /*ec*/) override {
    if (n == 1) {
      body(0);
      return;
    }
    StartGate gate;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n - 1));
    try {
      for (int i = 1; i < n; ++i) {
        threads.emplace_back([&gate, &body, i] {
          if (gate.wait_for_go()) body(i);
        });
      }
    } catch (const std::exception& e) {
      gate.release(2);
      for (auto& t : threads) t.join();
      throw support::RuntimeError(
          std::string("thread executor: cannot spawn a thread per PE (") +
          e.what() + "); lower n_pes or use --executor fiber");
    }
    gate.release(1);
    body(0);  // PE 0 rides the launching thread
    for (auto& t : threads) t.join();
  }

  [[nodiscard]] const char* name() const override { return "thread"; }
};

}  // namespace

PeExecutor& thread_per_pe_executor() {
  static ThreadPerPeExecutor exec;
  return exec;
}

// ---------------------------------------------------------------------------
// ThreadPoolExecutor — cached workers with gang semantics
// ---------------------------------------------------------------------------

/// One launch's completion latch: the launcher blocks until every
/// pooled PE has finished.
struct ThreadPoolExecutor::Gang {
  std::atomic<int> remaining{0};
  std::mutex m;
  std::condition_variable cv;
  bool done = false;

  void finish_one() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Notify under the lock: the gang lives on the launcher's stack,
      // and an after-unlock notify could race its destruction.
      std::lock_guard<std::mutex> g(m);
      done = true;
      cv.notify_all();
    }
  }

  void wait_all() {
    std::unique_lock<std::mutex> g(m);
    cv.wait(g, [&] { return done; });
  }
};

/// One cached worker: parks on its own mutex/cv between launches and is
/// handed (body, index, gang) assignments by run_gang.
struct ThreadPoolExecutor::Worker {
  std::mutex m;
  std::condition_variable cv;
  const std::function<void(int)>* body = nullptr;
  int index = -1;
  Gang* gang = nullptr;
  bool stop = false;
  std::thread thread;
};

ThreadPoolExecutor::ThreadPoolExecutor() = default;

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> g(pool_m_);
    stopping_ = true;
  }
  for (auto& w : all_) {
    {
      std::lock_guard<std::mutex> g(w->m);
      w->stop = true;
    }
    w->cv.notify_one();
  }
  for (auto& w : all_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ThreadPoolExecutor::worker_main(Worker* w) {
  for (;;) {
    const std::function<void(int)>* body = nullptr;
    int index = -1;
    Gang* gang = nullptr;
    {
      std::unique_lock<std::mutex> g(w->m);
      w->cv.wait(g, [&] { return w->body != nullptr || w->stop; });
      if (w->stop) return;
      body = w->body;
      index = w->index;
      gang = w->gang;
      w->body = nullptr;
      w->gang = nullptr;
    }
    (*body)(index);
    // Park before signaling completion: once finish_one releases the
    // launcher, a back-to-back launch must find this worker in the
    // idle stack, not still in flight (or the pool would grow by one
    // thread per race). A pending assignment that lands between the
    // park and the wait is picked up by the predicate re-check.
    bool keep = park(w);
    gang->finish_one();
    if (!keep) return;
  }
}

bool ThreadPoolExecutor::park(Worker* w) {
  std::lock_guard<std::mutex> g(pool_m_);
  if (stopping_) return false;
  idle_.push_back(w);
  return true;
}

void ThreadPoolExecutor::run_gang(int n,
                                  const std::function<void(int)>& body,
                                  EventCount& /*ec*/) {
  if (n == 1) {
    body(0);
    return;
  }
  Gang gang;
  gang.remaining.store(n - 1, std::memory_order_relaxed);
  std::vector<Worker*> claimed;
  claimed.reserve(static_cast<std::size_t>(n - 1));
  {
    std::lock_guard<std::mutex> g(pool_m_);
    try {
      for (int i = 1; i < n; ++i) {
        if (!idle_.empty()) {
          claimed.push_back(idle_.back());
          idle_.pop_back();
        } else {
          auto w = std::make_unique<Worker>();
          Worker* raw = w.get();
          raw->thread = std::thread([this, raw] { worker_main(raw); });
          ++threads_created_;
#if LOL_OBS_RUNTIME_METRICS
          pool_metrics().threads_created.inc();
#endif
          all_.push_back(std::move(w));
          claimed.push_back(raw);
        }
      }
    } catch (const std::exception& e) {
      // Growing the pool failed mid-claim (thread limits): hand the
      // already-claimed workers back — nothing was assigned yet — and
      // fail the launch instead of stranding them parked forever.
      for (Worker* w : claimed) idle_.push_back(w);
      throw support::RuntimeError(
          std::string("pool executor: cannot grow the worker pool (") +
          e.what() + "); lower n_pes or use --executor fiber");
    }
  }
#if LOL_OBS_RUNTIME_METRICS
  pool_metrics().worker_claims.inc(static_cast<std::uint64_t>(n - 1));
#endif
  for (int i = 1; i < n; ++i) {
    Worker* w = claimed[static_cast<std::size_t>(i - 1)];
    {
      std::lock_guard<std::mutex> g(w->m);
      w->body = &body;
      w->index = i;
      w->gang = &gang;
    }
    w->cv.notify_one();
  }
  body(0);  // PE 0 rides the launching thread (cache-warm for the caller)
  gang.wait_all();
}

std::uint64_t ThreadPoolExecutor::threads_created() const {
  std::lock_guard<std::mutex> g(pool_m_);
  return threads_created_;
}

std::size_t ThreadPoolExecutor::idle_count() const {
  std::lock_guard<std::mutex> g(pool_m_);
  return idle_.size();
}

ExecutorPtr process_thread_pool() {
  static ExecutorPtr pool = std::make_shared<ThreadPoolExecutor>();
  return pool;
}

ThreadPoolExecutor& fiber_carrier_pool() {
  static ThreadPoolExecutor pool;
  return pool;
}

ExecutorPtr make_fiber_executor(int pes_per_thread);  // fiber_executor.cpp

ExecutorPtr make_executor(ExecutorKind kind, int pes_per_thread) {
  switch (kind) {
    case ExecutorKind::kThread:
      // Share the stateless singleton; the no-op deleter keeps the
      // shared_ptr contract without owning it.
      return ExecutorPtr(&thread_per_pe_executor(), [](PeExecutor*) {});
    case ExecutorKind::kPool:
      return process_thread_pool();
    case ExecutorKind::kFiber:
      return make_fiber_executor(pes_per_thread);
  }
  return nullptr;
}

}  // namespace lol::shmem
