// Many concurrent clients against ONE resident disk-backed ground set: the
// acceptance gate of the serving subsystem (and a TSan target in CI). N
// client threads hammer the daemon with overlapping deadline-carrying
// requests; every response must be complete or degraded (never an error,
// never a lost callback), identical requests must return bit-identical
// selections even when their solves interleaved on the shared block cache,
// and the per-request DiskCacheStats deltas must stay physically plausible.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset_io.h"
#include "data/datasets.h"
#include "serve/server.h"

namespace subsel::serve {
namespace {

constexpr std::size_t kClientThreads = 8;
constexpr std::size_t kRequestsPerThread = 6;

class ServeConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "subsel_serve_conc_test";
    std::filesystem::create_directories(dir_);
    const auto dataset = data::toy_dataset(3000, 10, 77);
    prefix_ = (dir_ / "toy").string();
    data::save_dataset(dataset, prefix_);
  }

  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  std::unique_ptr<SelectionServer> make_disk_server() {
    ServerConfig config;
    DatasetSpec spec;
    spec.name = "toy";
    spec.path = prefix_;
    spec.disk = true;
    // A cache far smaller than the graph so concurrent solves genuinely
    // contend: evictions, demand misses, and prefetch races all happen.
    spec.cache.block_edges = 512;
    spec.cache.max_cached_blocks = 8;
    spec.cache.num_shards = 4;
    config.datasets.push_back(spec);
    config.max_concurrent = 4;
    config.queue_capacity = 256;
    return std::make_unique<SelectionServer>(config);
  }

  std::filesystem::path dir_;
  std::string prefix_;
};

TEST_F(ServeConcurrencyTest, EightClientsOneResidentDiskGroundSet) {
  auto server = make_disk_server();

  std::mutex mutex;
  std::vector<ServeResponse> responses;
  std::vector<ServeResponse> canonical;  // the identical-request cohort
  std::atomic<std::size_t> callbacks{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
        ServeRequest request;
        request.id = std::string("c") + std::to_string(t) + "-" + std::to_string(r);
        request.dataset = "toy";
        request.priority =
            (t + r) % 2 == 0 ? Priority::kInteractive : Priority::kBatch;
        const bool is_canonical = r % 3 == 0;
        if (is_canonical) {
          // Every thread's canonical request is IDENTICAL (same k, seed,
          // solver, no deadline): selections must match bit-for-bit no
          // matter how the solves interleaved.
          request.k = 120;
          request.seed = 23;
        } else {
          request.k = 60 + 10 * ((t + r) % 4);
          request.seed = 23 + r;
          // Tight-but-feasible budgets: some degrade, none may error.
          request.deadline_ms = 40 + 30 * (r % 3);
        }
        auto response = server->submit(request).get();
        ++callbacks;
        std::lock_guard lock(mutex);
        if (is_canonical) canonical.push_back(response);
        responses.push_back(std::move(response));
      }
    });
  }
  for (auto& client : clients) client.join();

  // Every request was answered exactly once.
  ASSERT_EQ(callbacks.load(), kClientThreads * kRequestsPerThread);
  ASSERT_EQ(responses.size(), kClientThreads * kRequestsPerThread);

  for (const ServeResponse& response : responses) {
    // Complete or degraded — an error under pure concurrency is a bug.
    ASSERT_TRUE(response.status == ServeResponse::Status::kComplete ||
                response.status == ServeResponse::Status::kDegraded)
        << response.id << ": " << response.status_name() << " / "
        << response.reason << " / " << response.detail;
    EXPECT_EQ(response.selected.size(), response.selected_count);

    // Requests that expired waiting in the queue never solved, so they
    // carry no cache delta; everything that reached a solver slot must.
    if (response.reason == "queued_past_deadline") {
      EXPECT_FALSE(response.disk_cache.has_value()) << response.id;
      continue;
    }
    ASSERT_TRUE(response.disk_cache.has_value()) << response.id;
    const api::DiskCacheSummary& cache = *response.disk_cache;
    if (response.status == ServeResponse::Status::kComplete) {
      EXPECT_GT(cache.hits + cache.misses, 0u) << response.id;
    }
    EXPECT_LE(cache.resident_blocks_high_water, cache.max_cached_blocks)
        << response.id;
    EXPECT_LE(cache.prefetch_loaded, cache.prefetch_issued) << response.id;
  }

  // The identical-request cohort: no deadline, so all complete, and the
  // shared mutable block cache must not have leaked into the results.
  ASSERT_GE(canonical.size(), kClientThreads * (kRequestsPerThread / 3));
  for (const ServeResponse& response : canonical) {
    ASSERT_EQ(response.status, ServeResponse::Status::kComplete)
        << response.id << ": " << response.reason;
    EXPECT_EQ(response.selected, canonical.front().selected)
        << response.id << " diverged from " << canonical.front().id;
    EXPECT_DOUBLE_EQ(response.objective, canonical.front().objective);
  }

  // Counter audit: every accepted request resolved to exactly one outcome.
  const ServerCounters counters = server->counters();
  EXPECT_EQ(counters.accepted, kClientThreads * kRequestsPerThread);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.errors, 0u);
  EXPECT_EQ(counters.completed + counters.degraded, counters.accepted);
  EXPECT_EQ(counters.queue_depth, 0u);
  EXPECT_EQ(counters.inflight, 0u);
  EXPECT_LE(counters.queue_depth_high_water, 256u);

  server->shutdown();

  // The resident DiskGroundSet's absolute stats stay sane after the storm.
  const auto* disk = dynamic_cast<const graph::DiskGroundSet*>(
      server->ground_set("toy"));
  ASSERT_NE(disk, nullptr);
  const graph::DiskCacheStats stats = disk->stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.resident_blocks_high_water, 8u);
}

TEST_F(ServeConcurrencyTest, DrainUnderConcurrentSubmitters) {
  auto server = make_disk_server();

  // Threads submit while another thread pivots into drain: every submit
  // must resolve (completed, degraded, or a typed "draining" reject) — no
  // hangs, no drops.
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = 0; r < 4; ++r) {
        ServeRequest request;
        request.id = "d" + std::to_string(t) + "-" + std::to_string(r);
        request.dataset = "toy";
        request.k = 80;
        const auto response = server->submit(request).get();
        ++answered;
        if (response.status == ServeResponse::Status::kRejected) {
          EXPECT_EQ(response.reason, "draining");
          ++rejected;
        }
      }
    });
  }
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server->begin_drain();
  });
  for (auto& client : clients) client.join();
  drainer.join();
  server->shutdown();

  EXPECT_EQ(answered.load(), 16u);
  const ServerCounters counters = server->counters();
  EXPECT_EQ(counters.accepted + counters.rejected, 16u);
  EXPECT_EQ(counters.completed + counters.degraded + counters.errors,
            counters.accepted);
  EXPECT_EQ(counters.errors, 0u);
}

}  // namespace
}  // namespace subsel::serve
