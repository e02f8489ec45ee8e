// The exec engine's determinism contract, pinned.
//
// Mechanics first (pool lifecycle, backpressure, nested submission,
// chunk plans, seed splitting, job-graph ordering), then the two
// end-to-end pins the rest of the repo builds on:
//   - sharded capture produces BYTE-identical merged archives at 1, 2,
//     and 7 workers (and with no pool at all);
//   - the parallel all-component attack returns results identical to
//     the serial loop at every worker count, in memory and off the
//     archive.
// Worker count must never leak into results; only the shard count (a
// config value, part of the experiment's identity) may.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/key_recovery.h"
#include "attack/parallel_attack.h"
#include "common/rng.h"
#include "exec/job_graph.h"
#include "exec/parallel_for.h"
#include "exec/seed_split.h"
#include "exec/thread_pool.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"

using namespace fd;

namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// --- ThreadPool mechanics --------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4U);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, BoundedQueueBackpressureDoesNotDeadlock) {
  exec::ThreadPool pool(2, /*queue_capacity=*/2);
  EXPECT_EQ(pool.queue_capacity(), 2U);
  std::atomic<int> count{0};
  // Far more tasks than capacity: submit must block-and-drain, not drop.
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedSubmitRunsInlineOnWorkers) {
  exec::ThreadPool pool(1, /*queue_capacity=*/1);
  std::atomic<bool> inner_ran{false};
  std::atomic<bool> was_on_worker{false};
  pool.submit([&] {
    was_on_worker.store(exec::ThreadPool::on_worker_thread());
    // With capacity 1 and the only worker busy right here, a queued
    // nested submit could never drain -- inline execution is the
    // deadlock-freedom guarantee.
    pool.submit([&] { inner_ran.store(true); });
  });
  pool.wait_idle();
  EXPECT_TRUE(was_on_worker.load());
  EXPECT_TRUE(inner_ran.load());
  EXPECT_FALSE(exec::ThreadPool::on_worker_thread());
}

// --- static chunk plans ----------------------------------------------------

TEST(StaticChunks, CoversRangeContiguouslyLeadingHeavy) {
  const auto plan = exec::static_chunks(10, 4);  // 3,3,2,2
  ASSERT_EQ(plan.size(), 4U);
  EXPECT_EQ(plan[0].size(), 3U);
  EXPECT_EQ(plan[1].size(), 3U);
  EXPECT_EQ(plan[2].size(), 2U);
  EXPECT_EQ(plan[3].size(), 2U);
  std::size_t next = 0;
  for (const auto& c : plan) {
    EXPECT_EQ(c.begin, next);
    next = c.end;
  }
  EXPECT_EQ(next, 10U);
}

TEST(StaticChunks, NeverMakesEmptyChunks) {
  EXPECT_EQ(exec::static_chunks(3, 8).size(), 3U);
  EXPECT_EQ(exec::static_chunks(0, 4).size(), 0U);
  EXPECT_EQ(exec::static_chunks(5, 0).size(), 1U);  // hint 0 -> one chunk
}

TEST(ParallelFor, VisitsEveryIndexOnceAtAnyWorkerCount) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    std::unique_ptr<exec::ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<exec::ThreadPool>(workers);
    std::vector<std::atomic<int>> hits(257);
    exec::parallel_for(pool.get(), hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, FirstExceptionInChunkOrderIsRethrown) {
  exec::ThreadPool pool(3);
  try {
    exec::parallel_for_chunks(&pool, 8, 8, [&](exec::ChunkRange r, std::size_t) {
      if (r.begin >= 2) throw std::runtime_error("chunk " + std::to_string(r.begin));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");  // index order, not completion order
  }
}

// --- seed splitting --------------------------------------------------------

TEST(SeedSplit, LanesAreDistinctAndStable) {
  const std::uint64_t root = 0xDE40;
  EXPECT_EQ(exec::split_seed(root, 0), exec::split_seed(root, 0));
  std::vector<std::uint64_t> seen;
  for (std::uint64_t lane = 0; lane < 64; ++lane) {
    const std::uint64_t s = exec::split_seed(root, lane);
    EXPECT_NE(s, root) << "lane " << lane;  // lane 0 must not alias the root
    for (const auto prev : seen) EXPECT_NE(s, prev);
    seen.push_back(s);
  }
  // Different roots give different lane streams.
  EXPECT_NE(exec::split_seed(1, 0), exec::split_seed(2, 0));
}

// --- JobGraph --------------------------------------------------------------

TEST(JobGraph, RespectsDependenciesAndReportsInInsertionOrder) {
  exec::ThreadPool pool(2);
  exec::JobGraph graph;
  std::vector<int> order;
  std::mutex mu;
  const auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  const auto a = graph.add("a", [&] { record(0); });
  const auto b = graph.add("b", [&] { record(1); }, {a});
  const auto c = graph.add("c", [&] { record(2); }, {a});
  graph.add("d", [&] { record(3); }, {b, c});
  const auto reports = graph.run(&pool);
  ASSERT_EQ(reports.size(), 4U);
  EXPECT_EQ(reports[0].name, "a");
  EXPECT_EQ(reports[3].name, "d");
  for (const auto& r : reports) EXPECT_TRUE(r.ran);
  ASSERT_EQ(order.size(), 4U);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

TEST(JobGraph, FailureSkipsDownstreamAndRethrows) {
  exec::JobGraph graph;
  bool downstream_ran = false;
  const auto a = graph.add("boom", [] { throw std::runtime_error("boom"); });
  graph.add("after", [&] { downstream_ran = true; }, {a});
  EXPECT_THROW((void)graph.run(nullptr), std::runtime_error);
  EXPECT_FALSE(downstream_ran);
}

TEST(JobGraph, RejectsForwardDependencies) {
  exec::JobGraph graph;
  EXPECT_THROW(graph.add("bad", [] {}, {7}), std::invalid_argument);
}

// --- the determinism pins --------------------------------------------------

sca::ShardedCampaignConfig sharded_config(std::size_t shards) {
  sca::ShardedCampaignConfig cfg;
  cfg.base.num_traces = 90;
  cfg.base.device.noise_sigma = 2.0;
  cfg.base.seed = 0x5EED;
  cfg.num_shards = shards;
  return cfg;
}

TEST(ExecDeterminism, ShardedCaptureIsByteIdenticalAtAnyWorkerCount) {
  ChaCha20Prng rng("exec pin key");
  const auto kp = falcon::keygen(4, rng);

  // Serial reference: the same 3-shard plan, no pool.
  TempFile ref("exec_capture_ref.fdtrace");
  const auto ref_res = sca::run_campaign_sharded(kp.sk, sharded_config(3), ref.path, nullptr);
  ASSERT_TRUE(ref_res.ok) << ref_res.error;
  EXPECT_EQ(ref_res.queries, 90U);
  EXPECT_EQ(ref_res.shards, 3U);
  const std::string ref_bytes = read_file(ref.path);
  ASSERT_FALSE(ref_bytes.empty());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    exec::ThreadPool pool(workers);
    TempFile out("exec_capture_w" + std::to_string(workers) + ".fdtrace");
    const auto res = sca::run_campaign_sharded(kp.sk, sharded_config(3), out.path, &pool);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(read_file(out.path), ref_bytes) << workers << " workers";
  }
}

TEST(ExecDeterminism, ShardCountIsPartOfTheExperimentIdentity) {
  ChaCha20Prng rng("exec pin key");
  const auto kp = falcon::keygen(4, rng);
  TempFile a("exec_shards3.fdtrace");
  TempFile b("exec_shards5.fdtrace");
  ASSERT_TRUE(sca::run_campaign_sharded(kp.sk, sharded_config(3), a.path, nullptr).ok);
  ASSERT_TRUE(sca::run_campaign_sharded(kp.sk, sharded_config(5), b.path, nullptr).ok);
  // Different shard plans are different RNG trees: the data must differ.
  EXPECT_NE(read_file(a.path), read_file(b.path));
}

TEST(ExecDeterminism, ParallelComponentAttackMatchesSerialExactly) {
  ChaCha20Prng rng("exec attack pin");
  const auto kp = falcon::keygen(3, rng);

  sca::CampaignConfig camp;
  camp.num_traces = 350;
  camp.device.noise_sigma = 2.0;
  camp.seed = 0xA77;
  const auto sets = sca::run_full_campaign(kp.sk, camp);

  attack::KeyRecoveryConfig cfg;
  cfg.seed = 0xA77;
  cfg.adversarial_random = 40;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(kp.sk, cfg, /*row=*/0, ci.slot, ci.imag);
  };

  const auto serial = attack::attack_all_components_parallel(sets, config_for, nullptr);
  ASSERT_EQ(serial.size(), kp.sk.params.n);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    exec::ThreadPool pool(workers);
    const auto parallel = attack::attack_all_components_parallel(sets, config_for, &pool);
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    for (std::size_t idx = 0; idx < serial.size(); ++idx) {
      EXPECT_EQ(parallel[idx].bits, serial[idx].bits)
          << workers << " workers, component " << idx;
      EXPECT_EQ(parallel[idx].sign, serial[idx].sign);
      EXPECT_EQ(parallel[idx].exponent, serial[idx].exponent);
      EXPECT_EQ(parallel[idx].x0, serial[idx].x0);
      EXPECT_EQ(parallel[idx].x1, serial[idx].x1);
    }
  }
}

TEST(ExecDeterminism, ArchiveAttackAndStreamingManyMatchSerial) {
  ChaCha20Prng rng("exec archive pin");
  const auto kp = falcon::keygen(3, rng);
  const std::size_t n = kp.sk.params.n;

  TempFile archive("exec_archive_pin.fdtrace");
  sca::CampaignConfig camp;
  camp.num_traces = 350;
  camp.device.noise_sigma = 2.0;
  camp.seed = 0xA78;
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, camp, archive.path).ok);

  attack::KeyRecoveryConfig cfg;
  cfg.seed = 0xA78;
  cfg.adversarial_random = 40;
  const auto config_for = [&](const attack::ComponentIndex& ci) {
    return attack::component_attack_config(kp.sk, cfg, /*row=*/0, ci.slot, ci.imag);
  };

  // The archive attack (gate off) at 1 and 2 workers equals the serial
  // in-memory attack over the same campaign.
  const auto serial = attack::attack_all_components_parallel(
      sca::run_full_campaign(kp.sk, camp), config_for, nullptr);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  exec::ThreadPool pool(2);
  for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    std::vector<attack::ComponentResult> from_archive;
    std::vector<std::size_t> accepted;
    std::string error;
    ASSERT_TRUE(attack::attack_components_gated(archive.path, attack::QualityConfig{},
                                                config_for, p, all, from_archive, accepted,
                                                nullptr, &error))
        << error;
    ASSERT_EQ(from_archive.size(), serial.size());
    for (std::size_t idx = 0; idx < serial.size(); ++idx) {
      EXPECT_EQ(from_archive[idx].bits, serial[idx].bits) << "component " << idx;
      EXPECT_EQ(accepted[idx], camp.num_traces) << "component " << idx;
    }
  }
}

}  // namespace
