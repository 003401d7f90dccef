// serve-mixed: the 100k input resident out of core (a block cache that holds
// the whole adjacency) in an in-process SelectionServer behind SocketServer,
// max_concurrent 2, driven over Unix-socket connections by an open-loop
// Poisson generator at a fixed, pre-calibrated rate.
//
//   70% interactive: distributed-greedy, pairwise α=0.9, k=500, no bounding,
//                    8 machines, 4 rounds, 250 ms deadline
//   30% batch:       distributed-greedy, facility-location, fraction 0.05,
//                    no bounding, 8 machines, 4 rounds, 2000 ms deadline
//
// Each request is timed from its SCHEDULED send time to the moment its
// response line is read back, so generator stalls and transport count. The
// generator's own lateness is reported, and a run where it exceeds a tenth
// of the interactive median is flagged invalid.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>

#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "bench.h"
#include "common/stats.h"
#include "data/dataset_io.h"
#include "graph/disk_ground_set.h"
#include "inputs.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/socket_server.h"
#include "serve/wire.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace api = subsel::api;
namespace core = subsel::core;
namespace data = subsel::data;
namespace graph = subsel::graph;
namespace serve = subsel::serve;
using subsel::percentile;

constexpr std::size_t kPoints = 100'000;
constexpr const char* kDataset = "cifar";
constexpr std::size_t kClassBlock = 10;
constexpr std::size_t kInteractivePerBlock = 7;
constexpr std::size_t kMaxConcurrent = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSetupReps = 15;
constexpr double kResponseTimeoutSeconds = 60.0;

graph::DiskGroundSetConfig cache_config() {
  graph::DiskGroundSetConfig config;
  config.block_edges = 4096;
  config.max_cached_blocks = 512;  // ~1.6M edges = ~390 blocks: all resident
  config.num_shards = 16;
  return config;
}

serve::ServeRequest request_of(serve::Priority priority) {
  serve::ServeRequest request;
  request.dataset = kDataset;
  request.priority = priority;
  request.solver = "distributed-greedy";
  request.bounding = "none";
  request.machines = 8;
  request.rounds = 4;
  if (priority == serve::Priority::kInteractive) {
    request.k = 500;
    request.objective = "pairwise";
    request.alpha = 0.9;
    request.deadline_ms = 250;
  } else {
    request.fraction = 0.05;
    request.objective = "facility-location";
    request.deadline_ms = 2000;
  }
  return request;
}

/// The library request the server builds for `wire` (see
/// SelectionServer::serve_select).
api::SelectionRequest library_form(const serve::ServeRequest& wire,
                                   const graph::GroundSet* ground_set) {
  api::SelectionRequest request;
  request.ground_set = ground_set;
  request.k = wire.k;
  request.fraction = wire.fraction;
  request.objective_name = wire.objective;
  request.objective = core::ObjectiveParams::from_alpha(wire.alpha);
  request.facility_location.self_similarity = wire.self_similarity;
  request.facility_location.utility_weighted = wire.utility_weighted;
  request.seed = wire.seed;
  request.solver = wire.solver;
  request.distributed.num_machines = wire.machines;
  request.distributed.num_rounds = wire.rounds;
  request.bounding.enabled = wire.bounding != "none";
  return request;
}

/// One client connection: the generator writes request lines, a reader
/// thread timestamps every response line the moment it is read.
class Connection {
 public:
  struct Received {
    double at = 0.0;
    std::string line;
  };

  explicit Connection(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, socket_path.c_str(),
                 sizeof(address.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect(" + socket_path + "): " + why);
    }
    reader_ = std::thread([this] { read_loop(); });
  }

  ~Connection() {
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
    ::close(fd_);
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& line) {
    const std::string payload = line + "\n";
    std::size_t written = 0;
    while (written < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + written,
                               payload.size() - written, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send on a closed connection");
      written += static_cast<std::size_t>(n);
    }
  }

  /// Blocks until `count` lines arrived in total; false on timeout.
  bool wait_for(std::size_t count, double timeout_seconds) {
    std::unique_lock lock(mutex_);
    return arrived_.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds),
        [&] { return lines_.size() >= count; });
  }

  std::vector<Received> take() {
    std::lock_guard lock(mutex_);
    return std::move(lines_);
  }

 private:
  void read_loop() {
    std::string pending;
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      const double at = now_seconds();
      pending.append(buffer, static_cast<std::size_t>(n));
      std::size_t newline;
      while ((newline = pending.find('\n')) != std::string::npos) {
        {
          std::lock_guard lock(mutex_);
          lines_.push_back({at, pending.substr(0, newline)});
        }
        arrived_.notify_all();
        pending.erase(0, newline + 1);
      }
    }
  }

  int fd_ = -1;
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<Received> lines_;
  std::thread reader_;
};

/// Server, socket front end and client connections, torn down in order.
class ServingStack {
 public:
  ServingStack(const std::string& input_path, const std::string& socket_path,
               std::size_t pool_threads, Tracer* tracer) {
    const Span setup(tracer, "setup", 0, 0);
    serve::ServerConfig config;
    serve::DatasetSpec dataset;
    dataset.name = kDataset;
    dataset.path = input_path;
    dataset.disk = true;
    dataset.cache = cache_config();
    config.datasets.push_back(dataset);
    config.max_concurrent = kMaxConcurrent;
    config.pool_threads = pool_threads;
    config.queue_capacity = 256;
    {
      const Span span(tracer, "serve.server_start", setup.id(), 0);
      server_ = std::make_unique<serve::SelectionServer>(config);
    }
    {
      const Span span(tracer, "serve.socket_start", setup.id(), 0);
      socket_ = std::make_unique<serve::SocketServer>(*server_, socket_path);
      acceptor_ = std::thread([this] { socket_->run(); });
      for (std::size_t c = 0; c < kConnections; ++c) {
        connections_.push_back(std::make_unique<Connection>(socket_path));
      }
    }
    // Ready once a stats request round-trips.
    const Span span(tracer, "serve.first_stats", setup.id(), 0);
    serve::ServeRequest stats;
    stats.kind = serve::ServeRequest::Kind::kStats;
    stats.id = "ready";
    connections_[0]->send(stats.to_json());
    if (!connections_[0]->wait_for(1, kResponseTimeoutSeconds)) {
      throw std::runtime_error("server never answered the readiness probe");
    }
    connections_[0]->take();
  }

  ~ServingStack() {
    socket_->stop();
    acceptor_.join();
    connections_.clear();
    socket_.reset();
    server_.reset();
  }

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  serve::SelectionServer& server() { return *server_; }
  Connection& connection(std::size_t i) { return *connections_[i]; }

 private:
  std::unique_ptr<serve::SelectionServer> server_;
  std::unique_ptr<serve::SocketServer> socket_;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

struct Sent {
  std::string id;
  serve::Priority priority;
  std::string line;
  double scheduled = 0.0;
  double actual = 0.0;
};

struct Answer {
  serve::ParsedResponse response;
  double received = 0.0;
};

/// Sends `requests` at once on connection 0 and returns their responses in
/// arrival order.
std::vector<serve::ParsedResponse> call_all(
    ServingStack& stack, const std::vector<serve::ServeRequest>& requests) {
  Connection& connection = stack.connection(0);
  for (const serve::ServeRequest& request : requests) {
    connection.send(request.to_json());
  }
  if (!connection.wait_for(requests.size(), kResponseTimeoutSeconds)) {
    throw std::runtime_error("no response to " + requests.front().id);
  }
  std::vector<serve::ParsedResponse> responses;
  for (const Connection::Received& line : connection.take()) {
    responses.push_back(serve::parse_response(line.line));
  }
  return responses;
}

/// Collects every response line of every connection, keyed by id.
std::map<std::string, Answer> collect(ServingStack& stack, Result& result) {
  std::map<std::string, Answer> answers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (Connection::Received& line : stack.connection(c).take()) {
      Answer answer{serve::parse_response(line.line), line.at};
      const std::string id = answer.response.id;
      result.check(!id.empty() && answers.count(id) == 0,
                   "response id \"" + id + "\" matches one request once");
      answers.emplace(id, std::move(answer));
    }
  }
  return answers;
}

double number_in(const serve::JsonValue& object, const char* key) {
  const serve::JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

/// Request classes in seeded shuffles of blocks of 10 (7 interactive, 3
/// batch), so every run offers the same mix.
class ClassSequence {
 public:
  explicit ClassSequence(std::uint64_t seed) : rng_(seed) {}

  serve::Priority next() {
    if (block_.empty()) {
      block_.assign(kInteractivePerBlock, serve::Priority::kInteractive);
      block_.resize(kClassBlock, serve::Priority::kBatch);
      std::shuffle(block_.begin(), block_.end(), rng_);
    }
    const serve::Priority priority = block_.back();
    block_.pop_back();
    return priority;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<serve::Priority> block_;
};

struct ClassSamples {
  std::vector<double> latency_ms, queue_ms, solve_ms;
  std::size_t sent = 0;
  std::size_t complete = 0;
};

/// Closed-loop saturation: keeps 2 x max_concurrent requests in flight on
/// one connection for the run's seconds and prints the throughput.
void calibrate(ServingStack& stack, const Options& options) {
  ClassSequence classes(options.seed);
  Connection& connection = stack.connection(0);
  std::size_t sent = 0;
  const auto send_one = [&] {
    serve::ServeRequest request = request_of(classes.next());
    request.id = "c" + std::to_string(sent++);
    request.deadline_ms = 0;  // measure service capacity, not deadlines
    connection.send(request.to_json());
  };
  const std::size_t in_flight = 2 * kMaxConcurrent;
  for (std::size_t i = 0; i < in_flight; ++i) send_one();
  const double start = now_seconds();
  std::size_t done = 0;
  while (now_seconds() - start < options.seconds) {
    if (!connection.wait_for(done + 1, kResponseTimeoutSeconds)) {
      throw std::runtime_error("calibration stalled");
    }
    ++done;
    send_one();
  }
  const double elapsed = now_seconds() - start;
  connection.wait_for(sent, kResponseTimeoutSeconds);
  connection.take();
  const double capacity = static_cast<double>(done) / elapsed;
  std::printf("capacity: %.2f req/s closed-loop (%zu responses in %.1f s);"
              " half capacity = %.2f req/s\n",
              capacity, done, elapsed, capacity / 2.0);
}

}  // namespace

void prepare_serve_workload(const Options& options) {
  prepare_input(options.work_dir, kPoints, options.seed);
  reference_objective(
      input_path(options.work_dir, kPoints, options.seed), kPoints,
      library_form(request_of(serve::Priority::kInteractive), nullptr),
      /*compute=*/true);
}

void run_serve_workload(const Options& options, Result& result) {
  if (!options.calibrate && !(options.serve_rate_hz > 0.0)) {
    throw std::invalid_argument("serve-mixed needs --serve-rate-hz");
  }
  const InputInfo input = describe_input(options.work_dir, kPoints, options.seed);
  print_input(input);
  const serve::ServeRequest interactive_shape =
      request_of(serve::Priority::kInteractive);
  const double reference = reference_objective(
      input.path, kPoints, library_form(interactive_shape, nullptr), false);

  Tracer tracer;
  Tracer* const traced = options.trace ? &tracer : nullptr;
  const std::string socket_path = options.work_dir + "/serve-" +
                                  std::to_string(::getpid()) + ".sock";
  // Each dispatcher joins its solve's parallel_for, and the load generator
  // runs on the benchmark's main thread: both count against the budget.
  if (options.threads < kMaxConcurrent + 2) {
    throw std::invalid_argument("serve-mixed needs --threads >= 4");
  }
  const std::size_t pool_threads = options.threads - kMaxConcurrent - 1;

  // Setup: repeated full stack start-ups; the last one serves.
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  std::unique_ptr<ServingStack> stack;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    const double start = now_seconds();
    const double cpu_start = process_cpu_seconds();
    stack = std::make_unique<ServingStack>(input.path, socket_path,
                                           pool_threads, traced);
    setup_cpu.push_back(process_cpu_seconds() - cpu_start);
    setup_wall.push_back(now_seconds() - start);
  }
  if (options.calibrate) {
    calibrate(*stack, options);
    result.attempted = 1;
    return;
  }

  // Untimed warm-up: fills the block cache and grows each slot's arenas to
  // their peak (both slots solve a batch request at once).
  std::size_t warmup_selects = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    std::vector<serve::ServeRequest> burst;
    for (const serve::Priority priority :
         {serve::Priority::kBatch, serve::Priority::kBatch,
          serve::Priority::kInteractive, serve::Priority::kInteractive}) {
      burst.push_back(request_of(priority));
      burst.back().id = "warm" + std::to_string(warmup_selects++);
      burst.back().deadline_ms = 0;
    }
    for (const serve::ParsedResponse& response : call_all(*stack, burst)) {
      result.check(response.complete(), "warm-up request completes");
    }
  }

  // The open-loop window: Poisson arrivals at the fixed rate over the
  // connections in turn.
  std::mt19937_64 rng(options.seed);
  std::exponential_distribution<double> gap(options.serve_rate_hz);
  ClassSequence sequence(options.seed + 1);
  std::vector<Sent> sent;
  const CpuTicks window_ticks = cpu_ticks();
  const double window_cpu = process_cpu_seconds();
  const double window_start = now_seconds() + 0.05;
  double scheduled = window_start + gap(rng);
  while (scheduled < window_start + options.seconds) {
    const serve::Priority priority = sequence.next();
    serve::ServeRequest request = request_of(priority);
    request.id = "r" + std::to_string(sent.size());
    Sent record{request.id, priority, request.to_json(), scheduled, 0.0};
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(scheduled))));
    record.actual = now_seconds();
    stack->connection(sent.size() % kConnections).send(record.line);
    sent.push_back(std::move(record));
    scheduled += gap(rng);
  }
  std::vector<std::size_t> per_connection(kConnections, 0);
  for (std::size_t i = 0; i < sent.size(); ++i) ++per_connection[i % kConnections];
  for (std::size_t c = 0; c < kConnections; ++c) {
    result.check(stack->connection(c).wait_for(per_connection[c],
                                                kResponseTimeoutSeconds),
                 "every request is answered");
  }
  const double steal = steal_fraction_since(window_ticks);
  const double cpu_seconds = process_cpu_seconds() - window_cpu;
  std::map<std::string, Answer> answers = collect(*stack, result);
  result.check(answers.size() == sent.size(),
               "every response answers a request that was sent");

  serve::ServeRequest stats;
  stats.kind = serve::ServeRequest::Kind::kStats;
  stats.id = "final-stats";
  const serve::ParsedResponse final_stats = call_all(*stack, {stats}).front();
  result.check(final_stats.id == stats.id, "stats response id matches");
  const serve::JsonValue* counters = final_stats.document.find("server");
  if (counters == nullptr) throw std::runtime_error("stats carry no counters");

  // --- Output checks -------------------------------------------------------
  const graph::GroundSet* ground_set = stack->server().ground_set(kDataset);
  subsel::ThreadPool check_pool(pool_threads);
  std::map<serve::Priority, const serve::ParsedResponse*> first_complete;
  ClassSamples classes[serve::kNumPriorities];
  std::vector<double> send_late_ms, report_ms, transport_ms;
  std::vector<DiskDelta> disk;
  std::size_t request_index = 0;
  for (const Sent& request : sent) {
    ClassSamples& samples = classes[static_cast<std::size_t>(request.priority)];
    ++samples.sent;
    send_late_ms.push_back((request.actual - request.scheduled) * 1e3);
    const auto it = answers.find(request.id);
    result.check(it != answers.end(), "request " + request.id + " answered");
    if (it == answers.end()) continue;
    const Answer& answer = it->second;
    const serve::ParsedResponse& response = answer.response;
    const double latency_s = answer.received - request.scheduled;
    samples.latency_ms.push_back(latency_s * 1e3);
    samples.queue_ms.push_back(response.latency.queue_seconds * 1e3);
    samples.solve_ms.push_back(response.latency.solve_seconds * 1e3);
    report_ms.push_back(response.latency.report_seconds * 1e3);
    transport_ms.push_back(
        (answer.received - request.actual - response.latency.total_seconds) *
        1e3);
    if (const serve::JsonValue* cache = response.document.find("disk_cache")) {
      disk.push_back({number_in(*cache, "hits"), number_in(*cache, "misses"),
                      number_in(*cache, "prefetch_issued"),
                      number_in(*cache, "prefetch_loaded"),
                      number_in(*cache, "read_retries"),
                      number_in(*cache, "resident_blocks_high_water")});
    }
    if (traced != nullptr) {
      // Server-side phases come from the response's breakdown, placed so
      // the server's work ends when the response line was read.
      const std::uint64_t op = ++request_index;
      const std::uint64_t root = tracer.add(
          std::string("serve.request.") + serve::priority_name(request.priority),
          0, op, request.scheduled, answer.received);
      tracer.add("bench.send_late", root, op, request.scheduled, request.actual);
      const double server_start = std::max(
          request.actual, answer.received - response.latency.total_seconds);
      tracer.add("serve.transport", root, op, request.actual, server_start);
      const double solve_start = server_start + response.latency.queue_seconds;
      const double report_start = solve_start + response.latency.solve_seconds;
      tracer.add("serve.queue", root, op, server_start, solve_start);
      tracer.add("serve.solve", root, op, solve_start, report_start);
      tracer.add("serve.report", root, op, report_start,
                 report_start + response.latency.report_seconds);
    }
    if (!response.has_selection()) continue;
    const serve::ServeRequest shape = request_of(request.priority);
    const std::size_t k =
        shape.k > 0 ? shape.k
                    : static_cast<std::size_t>(shape.fraction * kPoints);
    std::vector<core::NodeId> ids(response.selected.begin(),
                                  response.selected.end());
    check_ids(result, ids, k, kPoints, "response " + request.id);
    result.check(response.selected_count == response.selected.size(),
                 "selected_count matches the echoed ids");
    if (!response.complete()) continue;
    ++samples.complete;
    auto [first, inserted] = first_complete.emplace(request.priority, &response);
    if (inserted) {
      const api::SelectionRequest library = library_form(shape, ground_set);
      const auto kernel = api::ObjectiveRegistry::instance().make(library);
      const double recomputed = kernel->evaluate(
          std::span<const core::NodeId>(ids), &check_pool);
      result.check(recomputed == response.objective,
                   "benchmark-recomputed objective equals the served one");
    } else {
      result.check(response.selected == first->second->selected &&
                       response.objective == first->second->objective,
                   "identical requests get identical selections");
    }
  }

  const auto count = [&](const char* key) {
    return static_cast<std::uint64_t>(number_in(*counters, key));
  };
  const std::uint64_t accepted = count("accepted");
  result.check(accepted == count("completed") + count("degraded") +
                               count("errors"),
               "ServerCounters: accepted == completed + degraded + errors");
  result.check(accepted == sent.size() + warmup_selects,
               "ServerCounters: every sent select was admitted");

  ClassSamples& inter = classes[static_cast<std::size_t>(serve::Priority::kInteractive)];
  ClassSamples& batch = classes[static_cast<std::size_t>(serve::Priority::kBatch)];
  result.attempted = sent.size();
  result.failed = sent.size() - inter.complete - batch.complete;
  const double interactive_p50 = percentile(inter.latency_ms, 50);
  const double late_p99 = percentile(send_late_ms, 99);
  std::printf("offered %.2f req/s for %.0f s: %zu requests (%zu interactive,"
              " %zu batch), %zu complete\n",
              options.serve_rate_hz, options.seconds, sent.size(), inter.sent,
              batch.sent, inter.complete + batch.complete);
  std::printf("interactive_p50_ms %.3f  interactive_p90_ms %.3f  (n=%zu)\n",
              interactive_p50, percentile(inter.latency_ms, 90),
              inter.latency_ms.size());
  std::printf("batch_p50_ms %.3f  batch_p90_ms %.3f  (n=%zu%s)\n",
              percentile(batch.latency_ms, 50), percentile(batch.latency_ms, 90),
              batch.latency_ms.size(),
              batch.latency_ms.size() < 100 ? ", fewer than 10 beyond p90" : "");
  std::printf("host steal during the window: %.1f%% of vCPU time\n",
              steal * 100.0);
  std::printf("process cpu during the window: %.4f s, %.3f ms per request\n",
              cpu_seconds, cpu_seconds * 1e3 / static_cast<double>(sent.size()));
  print_samples("setup wall", setup_wall);
  print_samples("setup cpu", setup_cpu);
  std::printf("generator lateness p50 %.3f p90 %.3f p99 %.3f max %.3f ms\n",
              percentile(send_late_ms, 50), percentile(send_late_ms, 90),
              late_p99, percentile(send_late_ms, 100));
  // A flag, not an output check: latencies are timed from the schedule, so
  // a late generator still shows in them; the flag marks runs whose offered
  // load was bunched by generator stalls.
  std::printf("run validity: %s (generator lateness p99 %.3f ms vs a tenth of"
              " interactive p50 %.3f ms)\n",
              late_p99 <= 0.1 * interactive_p50 ? "valid" : "INVALID", late_p99,
              0.1 * interactive_p50);
  result.check(inter.complete > 0, "some interactive request completed");

  if (!options.trace) {
    result.metric("setup_s", median(setup_cpu), "s");
    result.metric("cpu_ms_per_op",
                  cpu_seconds * 1e3 / static_cast<double>(sent.size()), "ms");
    result.metric("objective_ratio",
                  first_complete.count(serve::Priority::kInteractive) != 0
                      ? first_complete[serve::Priority::kInteractive]->objective /
                            reference
                      : 0.0,
                  "ratio");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    result.metric("success_frac",
                  static_cast<double>(inter.complete + batch.complete) /
                      static_cast<double>(sent.size()),
                  "ratio");
    return;
  }

  // --- Per-layer split from the traced run ---------------------------------
  LayerMetrics layers;
  std::vector<std::string> lines;
  for (const Sent& request : sent) lines.push_back(request.line);
  layers.set_parse(lines);
  layers.set("serve.interactive.queue_ms_p50", percentile(inter.queue_ms, 50));
  layers.set("serve.interactive.queue_ms_p90", percentile(inter.queue_ms, 90));
  layers.set("serve.batch.queue_ms_p50", percentile(batch.queue_ms, 50));
  layers.set("serve.interactive.solve_ms_p50", percentile(inter.solve_ms, 50));
  layers.set("serve.interactive.solve_ms_p90", percentile(inter.solve_ms, 90));
  layers.set("serve.batch.solve_ms_p50", percentile(batch.solve_ms, 50));
  layers.set("serve.batch.solve_ms_p90", percentile(batch.solve_ms, 90));
  layers.set("serve.report_ms_p50", percentile(report_ms, 50));
  layers.set("serve.transport_ms_p50", percentile(transport_ms, 50));
  layers.set("serve.queue_depth_high_water",
             number_in(*counters, "queue_depth_high_water"));
  layers.set("serve.expired_in_queue", number_in(*counters, "expired_in_queue"));
  layers.set("serve.degraded", number_in(*counters, "degraded"));
  layers.set("serve.rejected", number_in(*counters, "rejected"));
  layers.set("serve.errors", number_in(*counters, "errors"));
  layers.set_disk(disk);
  {
    double hits = 0.0;
    double misses = 0.0;
    for (const DiskDelta& delta : disk) {
      hits += delta.hits;
      misses += delta.misses;
    }
    layers.set("serve.disk_hit_ratio",
               hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  }
  layers.set("bench.send_late_ms_p99", late_p99);
  layers.set("bench.host_steal_frac", steal);
  layers.set("bench.wall_p50_ms", interactive_p50);

  // data and graph set-up costs, measured apart from the server start-up.
  std::vector<double> load_s, open_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    double start = now_seconds();
    data::DatasetScalars scalars = data::load_dataset_scalars(input.path);
    load_s.push_back(now_seconds() - start);
    start = now_seconds();
    const graph::DiskGroundSet probe(input.path + ".graph",
                                     std::move(scalars.utilities),
                                     cache_config());
    open_s.push_back(now_seconds() - start);
  }
  layers.set("data.load_s", median(load_s));
  layers.set("graph.disk_open_s", median(open_s));
  {
    data::DatasetScalars scalars = data::load_dataset_scalars(input.path);
    const graph::DiskGroundSet fresh(input.path + ".graph",
                                     std::move(scalars.utilities),
                                     cache_config());
    std::vector<graph::Edge> scratch;
    const double start = now_seconds();
    for (std::size_t v = 0; v < fresh.num_points(); ++v) {
      fresh.neighbors_span(static_cast<core::NodeId>(v), scratch);
    }
    layers.set("graph.block_fetch_us",
               (now_seconds() - start) * 1e6 /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, fresh.stats().misses)));
  }

  // core and api: the interactive request's selection replayed through the
  // layers on the server's resident ground set, beside untraced registry
  // runs of the same request.
  api::SolverContext context(&check_pool);
  const api::SelectionRequest library = library_form(interactive_shape, ground_set);
  std::vector<double> untraced_s;
  api::SelectionReport last;
  std::vector<core::BoundingResult> no_bounds;
  for (std::size_t rep = 0; rep < 7; ++rep) {
    const double start = now_seconds();
    const api::SelectionReport report =
        api::SolverRegistry::instance().run(library, context);
    const std::string json = report.to_json();
    untraced_s.push_back(now_seconds() - start);
    std::optional<core::BoundingResult> bounding;
    DiskDelta delta;
    last = traced_select(library, check_pool, context.arenas(), tracer,
                         1'000'000 + rep, &bounding, &delta);
    result.check(last.selected == report.selected &&
                     last.objective == report.objective && !json.empty(),
                 "traced decomposition selects bit-identically to the registry");
    if (const auto it = first_complete.find(serve::Priority::kInteractive);
        it != first_complete.end()) {
      std::vector<core::NodeId> served(it->second->selected.begin(),
                                       it->second->selected.end());
      result.check(served == last.selected,
                   "served interactive selection equals the direct one");
    }
  }
  layers.set_select_layers(tracer, no_bounds, last, kPoints);
  const double traced_s = median(tracer.durations("api.select"));
  layers.set("bench.trace_overhead_frac", traced_s / median(untraced_s) - 1.0);
  layers.print_accounting(tracer, median(untraced_s));
  layers.emit(result);
  write_trace(tracer, options);
}

}  // namespace perfbench
