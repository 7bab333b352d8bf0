// Shmem substrate tests: symmetric allocation, one-sided put/get,
// barriers, global locks, atomics, collectives, abort behaviour, and
// simulated-time accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "noc/machines.hpp"
#include "noc/uniform.hpp"
#include "shmem/executor.hpp"
#include "shmem/runtime.hpp"

namespace {

using lol::shmem::Config;
using lol::shmem::LaunchResult;
using lol::shmem::Pe;
using lol::shmem::Runtime;
using lol::support::RuntimeError;

TEST(Shmem, LaunchRunsEveryPe) {
  Config cfg;
  cfg.n_pes = 4;
  Runtime rt(cfg);
  std::atomic<int> count{0};
  std::atomic<int> id_sum{0};
  auto r = rt.launch([&](Pe& pe) {
    count.fetch_add(1);
    id_sum.fetch_add(pe.id());
    EXPECT_EQ(pe.n_pes(), 4);
  });
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(id_sum.load(), 0 + 1 + 2 + 3);
}

TEST(Shmem, SymmetricAllocationGivesIdenticalOffsets) {
  Config cfg;
  cfg.n_pes = 4;
  Runtime rt(cfg);
  std::array<std::size_t, 4> first{}, second{};
  auto r = rt.launch([&](Pe& pe) {
    first[static_cast<std::size_t>(pe.id())] = pe.shmalloc(32);
    second[static_cast<std::size_t>(pe.id())] = pe.shmalloc(100);
  });
  ASSERT_TRUE(r.ok);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(first[static_cast<std::size_t>(i)], first[0]);
    EXPECT_EQ(second[static_cast<std::size_t>(i)], second[0]);
  }
  EXPECT_EQ(second[0] % 8, 0u);  // 8-byte aligned bump
  EXPECT_GE(second[0], first[0] + 32);
}

TEST(Shmem, HeapExhaustionThrows) {
  Config cfg;
  cfg.n_pes = 1;
  cfg.heap_bytes = 64;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    pe.shmalloc(32);
    pe.shmalloc(64);  // 32 + 64 > 64
  });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.first_error(),
            "PE 0: symmetric heap exhausted: need 64 more bytes, 32 "
            "available (configure a larger heap)");
}

TEST(Shmem, PutGetRoundTrip) {
  Config cfg;
  cfg.n_pes = 2;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    pe.put_i64(pe.id(), off, 100 + pe.id());
    pe.barrier_all();
    // Each PE reads its neighbour's value.
    int other = 1 - pe.id();
    EXPECT_EQ(pe.get_i64(other, off), 100 + other);
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

TEST(Shmem, RemotePutIsVisibleAfterBarrier) {
  Config cfg;
  cfg.n_pes = 4;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    int next = (pe.id() + 1) % pe.n_pes();
    pe.put_f64(next, off, 2.5 * pe.id());
    pe.barrier_all();
    int prev = (pe.id() + pe.n_pes() - 1) % pe.n_pes();
    EXPECT_DOUBLE_EQ(pe.get_f64(pe.id(), off), 2.5 * prev);
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

TEST(Shmem, BulkTransferSweep) {
  // Round-trip a range of payload sizes, including non-multiples of 8.
  Config cfg;
  cfg.n_pes = 2;
  cfg.heap_bytes = 1 << 20;
  Runtime rt(cfg);
  for (std::size_t n : {1u, 7u, 8u, 9u, 64u, 1000u, 4096u, 65536u}) {
    auto r = rt.launch([&](Pe& pe) {
      std::size_t off = pe.shmalloc(n);
      std::vector<std::byte> src(n);
      for (std::size_t i = 0; i < n; ++i) {
        src[i] = static_cast<std::byte>((i + pe.id() * 13) & 0xFF);
      }
      pe.put(1 - pe.id(), off, src.data(), n);
      pe.barrier_all();
      std::vector<std::byte> got(n);
      pe.get(got.data(), pe.id(), off, n);
      std::vector<std::byte> expect(n);
      for (std::size_t i = 0; i < n; ++i) {
        expect[i] =
            static_cast<std::byte>((i + (1 - pe.id()) * 13) & 0xFF);
      }
      EXPECT_EQ(got, expect);
    });
    EXPECT_TRUE(r.ok) << "n=" << n << ": " << r.first_error();
  }
}

TEST(Shmem, OutOfRangeTargetThrows) {
  Config cfg;
  cfg.n_pes = 2;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    if (pe.id() == 0) pe.put_i64(5, off, 1);
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("out of range"), std::string::npos);
}

TEST(Shmem, OutOfHeapAccessThrows) {
  Config cfg;
  cfg.n_pes = 1;
  cfg.heap_bytes = 64;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) { pe.put_i64(0, 1024, 1); });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.first_error(),
            "PE 0: symmetric access [1024, 1032) exceeds the symmetric heap "
            "(64 bytes)");
}

TEST(Shmem, BarrierOrdersPhases) {
  Config cfg;
  cfg.n_pes = 4;
  Runtime rt(cfg);
  // Classic Figure-2 pattern: put, barrier, read — must never see stale 0.
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    for (int round = 1; round <= 50; ++round) {
      int next = (pe.id() + 1) % pe.n_pes();
      pe.put_i64(next, off, round);
      pe.barrier_all();
      EXPECT_EQ(pe.get_i64(pe.id(), off), round);
      pe.barrier_all();
    }
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

TEST(Shmem, AtomicFetchAddIsLossless) {
  Config cfg;
  cfg.n_pes = 8;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    pe.barrier_all();
    for (int i = 0; i < 1000; ++i) pe.atomic_fetch_add_i64(0, off, 1);
    pe.barrier_all();
    if (pe.id() == 0) EXPECT_EQ(pe.get_i64(0, off), 8000);
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

TEST(Shmem, GlobalLockMutualExclusion) {
  Config cfg;
  cfg.n_pes = 8;
  cfg.n_locks = 1;
  Runtime rt(cfg);
  // Unprotected RMW would lose updates; the global lock must not.
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    pe.barrier_all();
    for (int i = 0; i < 200; ++i) {
      pe.set_lock(0);
      pe.put_i64(0, off, pe.get_i64(0, off) + 1);
      pe.clear_lock(0);
    }
    pe.barrier_all();
    if (pe.id() == 0) EXPECT_EQ(pe.get_i64(0, off), 1600);
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

TEST(Shmem, TestLockIsNonBlocking) {
  Config cfg;
  cfg.n_pes = 2;
  cfg.n_locks = 1;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    if (pe.id() == 0) {
      pe.set_lock(0);
      pe.barrier_all();  // 1: lock held by 0
      pe.barrier_all();  // 2: PE 1 tested
      pe.clear_lock(0);
      pe.barrier_all();  // 3: released
    } else {
      pe.barrier_all();  // 1
      EXPECT_FALSE(pe.test_lock(0));
      pe.barrier_all();  // 2
      pe.barrier_all();  // 3
      EXPECT_TRUE(pe.test_lock(0));
      pe.clear_lock(0);
    }
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

TEST(Shmem, LockMisuseDetected) {
  Config cfg;
  cfg.n_pes = 1;
  cfg.n_locks = 1;
  Runtime rt(cfg);
  // Releasing a lock you don't hold.
  auto r = rt.launch([&](Pe& pe) { pe.clear_lock(0); });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("does not hold"), std::string::npos);
  // Recursive acquisition.
  r = rt.launch([&](Pe& pe) {
    pe.set_lock(0);
    pe.set_lock(0);
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("already holds"), std::string::npos);
  // Bad lock id.
  r = rt.launch([&](Pe& pe) { pe.set_lock(7); });
  EXPECT_FALSE(r.ok);
}

TEST(Shmem, Collectives) {
  Config cfg;
  cfg.n_pes = 4;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    EXPECT_EQ(pe.all_reduce_sum_i64(pe.id() + 1), 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(pe.all_reduce_sum_f64(0.5), 2.0);
    EXPECT_EQ(pe.all_reduce_max_i64(pe.id() * 10), 30);
    EXPECT_DOUBLE_EQ(pe.all_reduce_max_f64(-1.0 * pe.id()), 0.0);
    EXPECT_EQ(pe.broadcast_i64(pe.id() == 2 ? 99 : -1, 2), 99);
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

TEST(Shmem, FailingPeAbortsPeersInBarrier) {
  Config cfg;
  cfg.n_pes = 4;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    if (pe.id() == 0) throw RuntimeError("deliberate failure");
    pe.barrier_all();  // would deadlock without abort propagation
  });
  EXPECT_FALSE(r.ok);
  int failures = 0;
  for (const auto& e : r.errors) {
    if (!e.empty()) ++failures;
  }
  EXPECT_EQ(failures, 4);  // the thrower plus three aborted peers
  EXPECT_NE(r.errors[0].find("deliberate failure"), std::string::npos);
}

TEST(Shmem, FailingPeAbortsPeersWaitingOnLock) {
  Config cfg;
  cfg.n_pes = 2;
  cfg.n_locks = 1;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    if (pe.id() == 0) {
      pe.set_lock(0);
      throw RuntimeError("dies holding the lock");
    }
    pe.barrier_all();  // never completes; abort wakes us
  });
  EXPECT_FALSE(r.ok);
}

TEST(Shmem, RuntimeIsReusableAcrossLaunches) {
  Config cfg;
  cfg.n_pes = 2;
  cfg.n_locks = 1;
  Runtime rt(cfg);
  for (int i = 0; i < 3; ++i) {
    auto r = rt.launch([&](Pe& pe) {
      std::size_t off = pe.shmalloc(8);
      EXPECT_EQ(pe.get_i64(pe.id(), off), 0);  // arena zeroed per launch
      pe.put_i64(pe.id(), off, 7);
      pe.set_lock(0);
      pe.clear_lock(0);
    });
    EXPECT_TRUE(r.ok) << r.first_error();
  }
}

TEST(Shmem, SimulatedTimeChargesRemoteOps) {
  Config cfg;
  cfg.n_pes = 4;
  cfg.model = lol::noc::epiphany3();
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    if (pe.id() == 0) {
      pe.put_i64(1, off, 42);     // 1 hop
      pe.get_i64(3, off);         // 3 hops, round trip
    }
    pe.barrier_all();
  });
  ASSERT_TRUE(r.ok) << r.first_error();
  // All PEs leave the final barrier at the same simulated instant.
  for (int i = 1; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.sim_ns[static_cast<std::size_t>(i)], r.sim_ns[0]);
  }
  EXPECT_GT(r.max_sim_ns(), 0.0);
}

TEST(Shmem, SimulatedBarrierAlignsClocks) {
  Config cfg;
  cfg.n_pes = 2;
  cfg.model = lol::noc::xc40_aries();
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    if (pe.id() == 0) {
      // PE 0 does ten expensive remote reads; PE 1 does nothing.
      for (int i = 0; i < 10; ++i) pe.get_i64(1, off);
    }
    pe.barrier_all();
    EXPECT_GT(pe.sim_ns(), 0.0);
  });
  ASSERT_TRUE(r.ok) << r.first_error();
  EXPECT_DOUBLE_EQ(r.sim_ns[0], r.sim_ns[1]);
  // The joint clock includes PE 0's reads plus the barrier.
  auto model = lol::noc::xc40_aries();
  EXPECT_GE(r.sim_ns[0], 10 * model->get_ns(0, 1, 8));
}

TEST(Shmem, NoModelMeansZeroSimTime) {
  Config cfg;
  cfg.n_pes = 2;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    pe.put_i64(1 - pe.id(), off, 1);
    pe.barrier_all();
  });
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.max_sim_ns(), 0.0);
}

TEST(Shmem, RejectsBadConfig) {
  Config cfg;
  cfg.n_pes = 0;
  EXPECT_THROW(Runtime{cfg}, RuntimeError);
  cfg.n_pes = 5000;
  EXPECT_THROW(Runtime{cfg}, RuntimeError);
  // A heap that cannot be laid out is an error naming its size, not a
  // wrapped-around tiny heap or an uncaught allocator exception.
  cfg.n_pes = 2;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (std::size_t bytes : {kMax, kMax - 15}) {  // rounding wraps, x 2 wraps
    try {
      cfg.heap_bytes = bytes;
      Runtime rt(cfg);
      ADD_FAILURE() << "a " << bytes << "-byte heap was accepted";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(bytes) +
                                           " bytes per PE x 2 PEs"),
                std::string::npos)
          << e.what();
    }
  }
}

// A relaunch must hand every PE all-zero arenas again, whatever the
// previous launch wrote into them remotely — on real threads and on
// fibers alike.
void expect_relaunch_reads_zero(lol::shmem::ExecutorPtr executor) {
  Config cfg;
  cfg.n_pes = 4;
  cfg.heap_bytes = 64 << 10;  // several pages per arena
  cfg.executor = std::move(executor);
  Runtime rt(cfg);
  const std::size_t bytes = rt.heap_bytes();
  auto dirty = rt.launch([&](Pe& pe) {
    std::vector<std::byte> pattern(bytes, std::byte{0xA5});
    pe.put((pe.id() + 1) % pe.n_pes(), 0, pattern.data(), bytes);
  });
  ASSERT_TRUE(dirty.ok) << dirty.first_error();
  ASSERT_EQ(rt.arena(0)[bytes - 1], std::byte{0xA5});
  for (int launch = 0; launch < 2; ++launch) {
    std::atomic<std::size_t> nonzero{0};
    auto clean = rt.launch([&](Pe& pe) {
      std::vector<std::byte> got(bytes, std::byte{0xFF});
      pe.get(got.data(), pe.id(), 0, bytes);
      nonzero += static_cast<std::size_t>(
          std::count_if(got.begin(), got.end(),
                        [](std::byte b) { return b != std::byte{0}; }));
      // Dirty the next launch's arenas again, once every PE has read.
      pe.barrier_all();
      pe.put_i64((pe.id() + 1) % pe.n_pes(), bytes - 8, -1);
    });
    ASSERT_TRUE(clean.ok) << clean.first_error();
    EXPECT_EQ(nonzero.load(), 0u) << "launch " << launch;
  }
}

TEST(Shmem, RelaunchReadsZeroedArenasThreads) {
  expect_relaunch_reads_zero(nullptr);  // builtin thread-per-PE
}

TEST(Shmem, RelaunchReadsZeroedArenasFibers) {
  if (!lol::shmem::fiber_executor_available()) GTEST_SKIP() << "no fibers";
  expect_relaunch_reads_zero(
      lol::shmem::make_executor(lol::shmem::ExecutorKind::kFiber, 2));
}

/// Resident set size in KiB from /proc/self/status; nullopt off Linux.
std::optional<long> vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return std::nullopt;
}

// heap_bytes is a bound, not a preallocation: 8 PEs x 64 MiB of heap
// where each PE touches one word must not make half a gigabyte resident.
TEST(Shmem, UntouchedHeapIsNotResident) {
  const std::optional<long> before = vm_rss_kib();
  if (!before) GTEST_SKIP() << "no /proc/self/status";
  Config cfg;
  cfg.n_pes = 8;
  cfg.heap_bytes = 64u << 20;
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    pe.put_i64(pe.id(), off, pe.id() + 1);
  });
  ASSERT_TRUE(r.ok) << r.first_error();
  const std::optional<long> after = vm_rss_kib();
  ASSERT_TRUE(after.has_value());
  EXPECT_LT(*after - *before, 16L << 10) << "VmRSS grew by "
                                          << *after - *before << " KiB";
}

// Parameterized: put/get round trips hold for every PE count we care
// about (the paper uses 16 on the Epiphany).
class ShmemPeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShmemPeSweep, RingExchange) {
  Config cfg;
  cfg.n_pes = GetParam();
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) {
    std::size_t off = pe.shmalloc(8);
    int next = (pe.id() + 1) % pe.n_pes();
    pe.put_i64(next, off, pe.id());
    pe.barrier_all();
    int prev = (pe.id() + pe.n_pes() - 1) % pe.n_pes();
    EXPECT_EQ(pe.get_i64(pe.id(), off), prev);
  });
  EXPECT_TRUE(r.ok) << r.first_error();
}

INSTANTIATE_TEST_SUITE_P(PeCounts, ShmemPeSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// ---------------------------------------------------------------------------
// Combining-tree barrier: the hierarchical synchronization core must be
// invisible to programs — any radix, any executor, same results — and
// stay abortable wherever in the tree a PE happens to be wedged.
// ---------------------------------------------------------------------------

TEST(TreeBarrier, ResolvesAutoRadixAndDepth) {
  Config cfg;
  cfg.n_pes = 4096;
  cfg.heap_bytes = 4096;  // accessor test; default arenas would be 4 GiB
  Runtime rt(cfg);
  EXPECT_EQ(rt.barrier_radix(), 8);  // auto
  EXPECT_EQ(rt.barrier_levels(), 4);  // 4096 -> 512 -> 64 -> 8 -> 1

  cfg.barrier_radix = 2;
  cfg.n_pes = 8;
  Runtime rt2(cfg);
  EXPECT_EQ(rt2.barrier_radix(), 2);
  EXPECT_EQ(rt2.barrier_levels(), 3);  // 8 -> 4 -> 2 -> 1

  // A fan-in wider than the gang degenerates to one flat node.
  cfg.barrier_radix = 4096;
  Runtime rt3(cfg);
  EXPECT_EQ(rt3.barrier_levels(), 1);
}

// Barriers, reductions and broadcast agree for every radix, including
// ragged trees (37 is not a power of anything) and the flat degenerate.
TEST(TreeBarrier, CollectivesAgreeAcrossRadices) {
  for (int radix : {0, 2, 3, 5, 8, 37, 64}) {
    Config cfg;
    cfg.n_pes = 37;
    cfg.barrier_radix = radix;
    Runtime rt(cfg);
    auto r = rt.launch([&](Pe& pe) {
      std::int64_t n = pe.n_pes();
      std::size_t off = pe.shmalloc(8);
      int next = (pe.id() + 1) % pe.n_pes();
      pe.put_i64(next, off, pe.id());
      pe.barrier_all();
      std::int64_t prev = (pe.id() + n - 1) % n;
      if (pe.get_i64(pe.id(), off) != prev) {
        throw RuntimeError("ring value lost at radix " +
                           std::to_string(radix));
      }
      if (pe.all_reduce_sum_i64(pe.id()) != n * (n - 1) / 2) {
        throw RuntimeError("allreduce sum wrong");
      }
      if (pe.all_reduce_max_i64(pe.id() * 3 - n) != 2 * n - 3) {
        throw RuntimeError("allreduce max wrong");
      }
      if (pe.all_reduce_max_f64(static_cast<double>(pe.id()) * 0.25) !=
          (n - 1) * 0.25) {
        throw RuntimeError("allreduce f64 max wrong");
      }
      if (pe.broadcast_i64(pe.id() * 7, 5) != 35) {
        throw RuntimeError("broadcast wrong");
      }
      // Back-to-back crossings reuse generation-parity slots; make the
      // double buffering earn its keep.
      if (pe.all_reduce_sum_i64(1) != n || pe.all_reduce_sum_i64(2) != 2 * n) {
        throw RuntimeError("consecutive reductions interfered");
      }
    });
    EXPECT_TRUE(r.ok) << "radix " << radix << ": " << r.first_error();
  }
}

/// One f64 allreduce over rounding-sensitive values; returns the bit
/// pattern every PE observed (asserting they all agree).
std::uint64_t f64_sum_bits(int n_pes, int radix, bool fiber) {
  Config cfg;
  cfg.n_pes = n_pes;
  cfg.barrier_radix = radix;
  if (fiber) {
    cfg.executor =
        lol::shmem::make_executor(lol::shmem::ExecutorKind::kFiber, 16);
  }
  Runtime rt(cfg);
  std::vector<double> results(static_cast<std::size_t>(n_pes));
  auto r = rt.launch([&](Pe& pe) {
    // Mixed magnitudes: any re-bracketing of the sum changes the bits.
    double v = 1.0 / (pe.id() + 1) + pe.id() * 1e-13;
    results[static_cast<std::size_t>(pe.id())] = pe.all_reduce_sum_f64(v);
  });
  EXPECT_TRUE(r.ok) << r.first_error();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &results[0], sizeof bits);
  for (int i = 1; i < n_pes; ++i) {
    std::uint64_t other = 0;
    std::memcpy(&other, &results[static_cast<std::size_t>(i)], sizeof other);
    EXPECT_EQ(other, bits) << "PE " << i << " saw a different f64 sum";
  }
  return bits;
}

// The determinism contract the differential suite leans on: f64 sums
// are byte-identical across executors AND radices, because the root
// folds the contributions in canonical index order regardless of tree
// shape. The expected bits are the plain sequential fold.
TEST(TreeBarrier, F64SumByteIdenticalAcrossExecutorsAndRadices) {
  const int n = 48;
  double expect = 0.0;
  for (int i = 0; i < n; ++i) expect += 1.0 / (i + 1) + i * 1e-13;
  std::uint64_t expect_bits = 0;
  std::memcpy(&expect_bits, &expect, sizeof expect_bits);

  for (int radix : {0, 2, 7, 48}) {
    EXPECT_EQ(f64_sum_bits(n, radix, /*fiber=*/false), expect_bits)
        << "thread executor, radix " << radix;
    EXPECT_EQ(f64_sum_bits(n, radix, /*fiber=*/true), expect_bits)
        << "fiber executor, radix " << radix;
  }
}

// Abort lands on PEs wedged at every position in the tree. With radix 2
// and PE 7 never arriving: groups (0,1), (2,3), (4,5) completed (their
// winners climbed and are parked mid-tree or one arrival short of the
// root), PE 6 is a leaf waiter. All of them must die promptly.
void abort_wedged_tree(bool fiber) {
  Config cfg;
  cfg.n_pes = 8;
  cfg.barrier_radix = 2;
  if (fiber) {
    cfg.executor =
        lol::shmem::make_executor(lol::shmem::ExecutorKind::kFiber, 8);
  }
  Runtime rt(cfg);
  auto t0 = std::chrono::steady_clock::now();
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rt.abort();
  });
  auto r = rt.launch([&](Pe& pe) {
    if (pe.id() == 7) {
      while (!pe.runtime().aborted()) pe.runtime().preempt(pe.id());
      throw RuntimeError("aborted while spinning");
    }
    pe.barrier_all();
  });
  killer.join();
  EXPECT_FALSE(r.ok);
  int aborted = 0;
  for (const auto& e : r.errors) {
    if (e.find("abort") != std::string::npos) ++aborted;
  }
  EXPECT_EQ(aborted, 8) << r.first_error();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_LT(wall_ms, 5000.0);
}

TEST(TreeBarrier, AbortWakesEveryTreePositionThreads) {
  abort_wedged_tree(/*fiber=*/false);
}
TEST(TreeBarrier, AbortWakesEveryTreePositionFibers) {
  abort_wedged_tree(/*fiber=*/true);
}

// The modeled barrier cost understands tree depth: radix 4 over 16 PEs
// is exactly two combining rounds of the uniform fabric.
TEST(TreeBarrier, SimChargesTreeDepth) {
  lol::noc::UniformParams p;
  Config cfg;
  cfg.n_pes = 16;
  cfg.barrier_radix = 4;
  cfg.model = std::make_shared<lol::noc::UniformModel>(p);
  Runtime rt(cfg);
  auto r = rt.launch([&](Pe& pe) { pe.barrier_all(); });
  ASSERT_TRUE(r.ok) << r.first_error();
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(r.sim_ns[static_cast<std::size_t>(i)],
                     2.0 * p.barrier_round_ns);
  }
}

// Whatever the radix, all PEs leave a crossing at one simulated instant
// and the reduction results match — the radix only moves the modeled
// depth, never the data.
TEST(TreeBarrier, SimClocksAlignForEveryRadix) {
  for (int radix : {0, 2, 16}) {
    Config cfg;
    cfg.n_pes = 16;
    cfg.barrier_radix = radix;
    cfg.model = lol::noc::epiphany3();
    Runtime rt(cfg);
    auto r = rt.launch([&](Pe& pe) {
      std::size_t off = pe.shmalloc(8);
      if (pe.id() == 0) pe.put_i64(5, off, 1);  // skew PE 0's clock
      pe.barrier_all();
    });
    ASSERT_TRUE(r.ok) << r.first_error();
    for (int i = 1; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(r.sim_ns[static_cast<std::size_t>(i)], r.sim_ns[0])
          << "radix " << radix;
    }
    EXPECT_GT(r.max_sim_ns(), 0.0);
  }
}

}  // namespace
