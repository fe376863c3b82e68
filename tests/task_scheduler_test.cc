#include "util/task_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rudolf {
namespace {

TEST(ResolveNumThreads, DefaultsAndClamps) {
  // The suite may run under an external RUDOLF_THREADS (e.g. the TSan
  // invocation documented in README); only assert env-free semantics when
  // the variable is absent.
  if (std::getenv("RUDOLF_THREADS") != nullptr) {
    GTEST_SKIP() << "RUDOLF_THREADS overrides requested counts";
  }
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(4), 4);
  EXPECT_EQ(ResolveNumThreads(-3), 1);  // degenerate requests go serial
  EXPECT_GE(ResolveNumThreads(0), 1);   // 0 = hardware concurrency
}

TEST(ResolveNumThreads, InvalidEnvFallsBackToTheRequest) {
  // Saved and restored: CI runs this suite under RUDOLF_THREADS=8.
  const char* outer = std::getenv("RUDOLF_THREADS");
  const std::string saved = outer != nullptr ? outer : "";
  setenv("RUDOLF_THREADS", "8x", 1);  // trailing garbage
  EXPECT_EQ(ResolveNumThreads(2), 2);
  setenv("RUDOLF_THREADS", "0", 1);  // below the range
  EXPECT_EQ(ResolveNumThreads(2), 2);
  setenv("RUDOLF_THREADS", "6", 1);
  EXPECT_EQ(ResolveNumThreads(2), 6);
  setenv("RUDOLF_THREADS", "5000", 1);  // accepted, clamped as before
  EXPECT_EQ(ResolveNumThreads(2), 1024);
  if (outer != nullptr) {
    setenv("RUDOLF_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("RUDOLF_THREADS");
  }
}

TEST(TaskScheduler, ConstructionAndTeardown) {
  for (int n : {1, 2, 3, 4, 8}) {
    TaskScheduler sched(n);
    EXPECT_EQ(sched.num_threads(), std::max(n, 1));
  }
  TaskScheduler degenerate(0);
  EXPECT_EQ(degenerate.num_threads(), 1);
}

TEST(TaskScheduler, EveryIndexCoveredExactlyOnce) {
  const size_t n = 100000;
  for (int threads : {1, 2, 4, 8}) {
    TaskScheduler sched(threads);
    std::vector<std::atomic<uint32_t>> hits(n);
    sched.ParallelFor(0, n, 64, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << ", " << threads
                                    << " threads";
    }
  }
}

TEST(TaskScheduler, ChunkBoundariesAreDeterministic) {
  // The determinism contract: chunk boundaries depend only on
  // (begin, end, grain, num_threads) — never on which worker claims what.
  // Same-sized schedulers must hand out identical [lo, hi) multisets.
  const size_t n = 12345;
  auto boundaries = [&](TaskScheduler& sched) {
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> out;
    sched.ParallelFor(64, 64 + n, 128, [&](size_t lo, size_t hi) {
      std::lock_guard<std::mutex> g(mu);
      out.emplace_back(lo, hi);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  TaskScheduler a(4), b(4);
  auto ba = boundaries(a);
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(boundaries(b), ba) << "run " << run;
  }
  // Boundaries are begin + k*chunk with a short tail.
  ASSERT_FALSE(ba.empty());
  EXPECT_EQ(ba.front().first, 64u);
  EXPECT_EQ(ba.back().second, 64u + n);
  for (size_t i = 1; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].first, ba[i - 1].second);
  }
}

TEST(TaskScheduler, NestedEpisodesRunParallelAndCover) {
  TaskScheduler sched(4);
  const size_t outer = 16, inner = 1024;
  std::vector<std::atomic<uint32_t>> hits(outer * inner);
  sched.ParallelFor(0, outer, 1, [&](size_t olo, size_t ohi) {
    for (size_t o = olo; o < ohi; ++o) {
      sched.ParallelFor(0, inner, 64, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          hits[o * inner + i].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "slot " << i;
  }
}

// Runs a `units`-chunk episode of one-unit chunks on `sched` whose first
// chunk waits, for at most 10 s, until a second thread has entered one of
// the episode's chunks; every chunk then calls `then(lo)`. Returns how many
// distinct threads ran the episode's chunks.
size_t ThreadsInHeldEpisode(TaskScheduler& sched, size_t units,
                            const std::function<void(size_t)>& then) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> threads;
  sched.ParallelFor(0, units, 1, [&](size_t lo, size_t) {
    {
      std::unique_lock<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
      cv.notify_all();
      if (lo == 0) {
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return threads.size() >= 2; });
      }
    }
    then(lo);
  });
  return threads.size();
}

TEST(TaskScheduler, HelpersJoinExternalAndNestedEpisodes) {
  // Idle workers must join open episodes. Each episode below holds its
  // first chunk until another thread has entered the episode, so an
  // episode that no worker joins runs on its submitter alone (after the
  // bounded wait) and the test fails instead of hanging.
  TaskScheduler sched(4);
  EXPECT_GE(ThreadsInHeldEpisode(sched, 8, [](size_t) {}), 2u);

  // Two outer chunks on two threads, at least one of them a worker, each
  // submitting a nested episode.
  size_t nested_threads[2] = {0, 0};
  auto submit_nested = [&](size_t outer) {
    nested_threads[outer] = ThreadsInHeldEpisode(sched, 8, [](size_t) {});
  };
  EXPECT_GE(ThreadsInHeldEpisode(sched, 2, submit_nested), 2u);
  EXPECT_GE(nested_threads[0], 2u);
  EXPECT_GE(nested_threads[1], 2u);
}

TEST(TaskScheduler, ExceptionPropagatesAndSchedulerSurvives) {
  TaskScheduler sched(4);
  try {
    sched.ParallelFor(0, 256, 1, [&](size_t lo, size_t) {
      if (lo == 128) throw std::runtime_error("chunk boom");
    });
    FAIL() << "expected the chunk exception on the submitting thread";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk boom");
  }
  // The episode wound down cleanly: the scheduler still works.
  std::atomic<size_t> covered{0};
  sched.ParallelFor(0, 512, 16, [&](size_t lo, size_t hi) {
    covered.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 512u);
}

TEST(TaskScheduler, InRegionTaggedTracksNesting) {
  TaskScheduler sched(4);
  int tag_a = 0, tag_b = 0;
  EXPECT_FALSE(TaskScheduler::InRegionTagged(&tag_a));
  std::atomic<int> wrong{0};
  sched.ParallelFor(0, 32, 1, [&](size_t, size_t) {
    if (!TaskScheduler::InRegionTagged(&tag_a)) wrong.fetch_add(1);
    if (TaskScheduler::InRegionTagged(&tag_b)) wrong.fetch_add(1);
    sched.ParallelFor(0, 8, 1, [&](size_t, size_t) {
      // Inner chunks see both the inner tag and the enclosing one.
      if (!TaskScheduler::InRegionTagged(&tag_b)) wrong.fetch_add(1);
      if (!TaskScheduler::InRegionTagged(&tag_a)) wrong.fetch_add(1);
    }, &tag_b);
  }, &tag_a);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_FALSE(TaskScheduler::InRegionTagged(&tag_a));
  EXPECT_FALSE(TaskScheduler::InRegionTagged(&tag_b));
}

TEST(TaskScheduler, ConcurrentExternalSubmitters) {
  // The gangless core claim: many external threads issue episodes on the
  // same scheduler at once; each gets full coverage of its own range.
  TaskScheduler sched(4);
  const int submitters = 8;
  const size_t n = 20000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(submitters);
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<uint32_t>> local(n);
        sched.ParallelFor(0, n, 64, [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            local[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (size_t i = 0; i < n; ++i) {
          if (local[i].load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TaskScheduler, TenantScopeTagsAndRestores) {
  EXPECT_EQ(TaskScheduler::CurrentTenant(), 0u);
  {
    TenantScope outer(7);
    EXPECT_EQ(TaskScheduler::CurrentTenant(), 7u);
    {
      TenantScope inner(9);
      EXPECT_EQ(TaskScheduler::CurrentTenant(), 9u);
    }
    EXPECT_EQ(TaskScheduler::CurrentTenant(), 7u);
  }
  EXPECT_EQ(TaskScheduler::CurrentTenant(), 0u);
}

TEST(TaskScheduler, ChunksInheritSubmittersTenant) {
  TaskScheduler sched(4);
  std::atomic<int> wrong{0};
  {
    TenantScope scope(42);
    sched.ParallelFor(0, 64, 1, [&](size_t, size_t) {
      if (TaskScheduler::CurrentTenant() != 42u) wrong.fetch_add(1);
      // Nested episodes inherit the chunk's tenant in turn.
      sched.ParallelFor(0, 4, 1, [&](size_t, size_t) {
        if (TaskScheduler::CurrentTenant() != 42u) wrong.fetch_add(1);
      });
    });
  }
  EXPECT_EQ(wrong.load(), 0);
}

TEST(TaskScheduler, FairnessAcrossTenantsUnderLoad) {
  // Two tenants issue rounds concurrently; both must make progress (the
  // tenant round-robin forbids starvation). This is a liveness smoke
  // test, not a strict-share assertion.
  TaskScheduler sched(4);
  std::atomic<int> rounds_a{0}, rounds_b{0};
  std::atomic<int> bad_coverage{0};
  auto tenant_loop = [&](TenantId id, std::atomic<int>* rounds) {
    TenantScope scope(id);
    for (int r = 0; r < 20; ++r) {
      std::atomic<size_t> covered{0};
      sched.ParallelFor(0, 4096, 64, [&](size_t lo, size_t hi) {
        covered.fetch_add(hi - lo, std::memory_order_relaxed);
      });
      if (covered.load() != 4096u) bad_coverage.fetch_add(1);
      rounds->fetch_add(1);
    }
  };
  std::thread ta([&] { tenant_loop(1, &rounds_a); });
  std::thread tb([&] { tenant_loop(2, &rounds_b); });
  ta.join();
  tb.join();
  EXPECT_EQ(bad_coverage.load(), 0);
  EXPECT_EQ(rounds_a.load(), 20);
  EXPECT_EQ(rounds_b.load(), 20);
}

TEST(TaskScheduler, SharedReturnsOneInstance) {
  TaskScheduler* a = TaskScheduler::Shared(2);
  TaskScheduler* b = TaskScheduler::Shared(4);
  TaskScheduler* c = TaskScheduler::Shared();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // Sized at least to the hardware (modulo RUDOLF_THREADS).
  EXPECT_GE(a->num_threads(), 1);
}

// --- randomized determinism stress ----------------------------------------
//
// The scheduler's promise to every consumer: a ParallelFor writing
// chunk-indexed state produces bit-identical results to the serial loop, at
// any thread count, under any steal interleaving, with any number of
// concurrent tenants. The stress runs a deterministic PRNG workload per
// (tenant, round) on schedulers of several widths — concurrently across
// tenant threads — and compares every buffer against the single-threaded
// reference.

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::vector<uint64_t> RunWorkload(TaskScheduler* sched, uint64_t seed,
                                  size_t n) {
  std::vector<uint64_t> out(n, 0);
  // Irregular per-index cost (the Mix chain length varies) provokes steals.
  sched->ParallelFor(0, n, 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t v = seed ^ i;
      int hops = 1 + static_cast<int>(v % 7);
      for (int h = 0; h < hops; ++h) v = Mix(v);
      out[i] = v;
    }
  });
  return out;
}

TEST(TaskSchedulerStress, RandomizedTenantThreadInterleavings) {
  const size_t n = 8192;
  const int tenants = 4;
  const int rounds = 6;
  // Serial reference, per (tenant, round).
  TaskScheduler serial(1);
  std::vector<std::vector<uint64_t>> reference;
  for (int t = 0; t < tenants; ++t) {
    for (int r = 0; r < rounds; ++r) {
      reference.push_back(
          RunWorkload(&serial, Mix(uint64_t(t) << 32 | uint64_t(r)), n));
    }
  }
  for (int threads : {2, 4, 8}) {
    TaskScheduler sched(threads);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(tenants);
    for (int t = 0; t < tenants; ++t) {
      workers.emplace_back([&, t] {
        TenantScope scope(static_cast<TenantId>(t + 1));
        for (int r = 0; r < rounds; ++r) {
          std::vector<uint64_t> got = RunWorkload(
              &sched, Mix(uint64_t(t) << 32 | uint64_t(r)), n);
          if (got != reference[static_cast<size_t>(t) * rounds + r]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0) << threads << " threads";
  }
}

}  // namespace
}  // namespace rudolf
