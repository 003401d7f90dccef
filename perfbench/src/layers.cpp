#include "layers.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <span>

#include "api/objective_registry.h"
#include "core/distributed_greedy.h"
#include "graph/disk_ground_set.h"
#include "serve/wire.h"

namespace perfbench {
namespace {

namespace api = subsel::api;
namespace core = subsel::core;
namespace graph = subsel::graph;

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order. BENCHMARK.json lists the same
/// names and units.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"data.load_s", "s"},
    {"graph.disk_open_s", "s"},
    {"graph.disk_hits", "count"},
    {"graph.disk_misses", "count"},
    {"graph.disk_hit_ratio", "ratio"},
    {"graph.block_fetch_us", "us"},
    {"graph.prefetch_issued", "count"},
    {"graph.prefetch_loaded", "count"},
    {"graph.read_retries", "count"},
    {"graph.resident_blocks_high_water", "count"},
    {"graph.prefetch_drain_s", "s"},
    {"core.bound_s", "s"},
    {"core.bound_passes", "count"},
    {"core.bound_ms_per_pass", "ms"},
    {"core.bound_decided_frac", "ratio"},
    {"core.greedy_s", "s"},
    {"core.rounds_run", "count"},
    {"core.round_s_mean", "s"},
    {"core.round_s_max", "s"},
    {"core.peak_partition_bytes", "bytes"},
    {"core.peak_state_bytes", "bytes"},
    {"api.kernel_build_s", "s"},
    {"api.objective_eval_s", "s"},
    {"api.report_json_s", "s"},
    {"api.unattributed_s", "s"},
    {"serve.parse_us_p50", "us"},
    {"serve.interactive.queue_ms_p50", "ms"},
    {"serve.interactive.queue_ms_p90", "ms"},
    {"serve.batch.queue_ms_p50", "ms"},
    {"serve.interactive.solve_ms_p50", "ms"},
    {"serve.interactive.solve_ms_p90", "ms"},
    {"serve.batch.solve_ms_p50", "ms"},
    {"serve.batch.solve_ms_p90", "ms"},
    {"serve.report_ms_p50", "ms"},
    {"serve.transport_ms_p50", "ms"},
    {"serve.queue_depth_high_water", "count"},
    {"serve.expired_in_queue", "count"},
    {"serve.degraded", "count"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"serve.disk_hit_ratio", "ratio"},
    {"bench.send_late_ms_p99", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.host_steal_frac", "ratio"},
    {"bench.wall_p50_ms", "ms"},
};

/// The spans traced_select records under "api.select", paired with the
/// per-layer metric that reports their median.
constexpr std::pair<const char*, const char*> kSelectChildren[] = {
    {"api.kernel", "api.kernel_build_s"},
    {"core.bound", "core.bound_s"},
    {"core.distributed_greedy", "core.greedy_s"},
    {"graph.drain_prefetch", "graph.prefetch_drain_s"},
    {"api.objective_eval", "api.objective_eval_s"},
    {"api.report_json", "api.report_json_s"},
};

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : median(values);
}

}  // namespace

void print_input(const InputInfo& input) {
  std::printf("input: %s, %zu points, %zu edges, graph fnv1a64 %016" PRIx64
              "\n",
              input.path.c_str(), input.points, input.edges,
              input.graph_checksum);
}

void check_ids(Result& result, std::vector<core::NodeId> ids, std::size_t k,
               std::size_t n, const std::string& what) {
  std::sort(ids.begin(), ids.end());
  const bool unique = std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  const bool in_range =
      ids.empty() ||
      (ids.front() >= 0 && static_cast<std::size_t>(ids.back()) < n);
  result.check(!ids.empty() && ids.size() <= k && unique && in_range,
               what + ": selection has 1..k unique in-range ids");
}

api::SelectionReport traced_select(const api::SelectionRequest& request,
                                   subsel::ThreadPool& pool,
                                   core::SubproblemArenaPool& arenas,
                                   Tracer& tracer, std::uint64_t request_id,
                                   std::optional<core::BoundingResult>* bounding,
                                   DiskDelta* disk) {
  const Span select(&tracer, "api.select", 0, request_id);
  const graph::GroundSet& ground_set = *request.ground_set;
  const std::size_t k = request.resolved_k();

  std::unique_ptr<core::ObjectiveKernel> kernel;
  {
    const Span span(&tracer, "api.kernel", select.id(), request_id);
    kernel = api::ObjectiveRegistry::instance().make(request);
  }
  const auto* disk_set = dynamic_cast<const graph::DiskGroundSet*>(&ground_set);
  const graph::DiskCacheStats before =
      disk_set != nullptr ? disk_set->stats() : graph::DiskCacheStats{};

  // Same stage configs the registry's pipeline_config/greedy_config build.
  core::ObjectiveParams params = request.objective;
  if (const core::ObjectiveParams* pairwise = kernel->pairwise_params()) {
    params = *pairwise;
  }
  bounding->reset();
  if (request.bounding.enabled) {
    const Span span(&tracer, "core.bound", select.id(), request_id);
    core::BoundingConfig config;
    config.objective = params;
    config.sampling = request.bounding.sampling;
    config.sample_fraction = request.bounding.sample_fraction;
    config.prefetch_depth = request.bounding.prefetch_depth;
    config.seed = request.seed;
    config.pool = &pool;
    *bounding = core::bound(ground_set, k, config);
  }

  core::DistributedGreedyResult greedy;
  {
    const Span span(&tracer, "core.distributed_greedy", select.id(),
                    request_id);
    core::DistributedGreedyConfig config;
    config.objective = params;
    config.kernel = kernel.get();
    config.num_machines = request.distributed.num_machines;
    config.num_rounds = request.distributed.num_rounds;
    config.adaptive_partitioning = request.distributed.adaptive_partitioning;
    config.partition_solver = request.distributed.partition_solver;
    config.stochastic_epsilon = request.distributed.stochastic_epsilon;
    config.prefetch_depth = request.distributed.prefetch_depth;
    config.seed = request.seed;
    config.pool = &pool;
    config.arena_pool = &arenas;
    double round_start = now_seconds();
    const std::uint64_t parent = span.id();
    config.progress = [&](const subsel::ProgressEvent& event) {
      if (event.stage != "round") return;
      const double now = now_seconds();
      tracer.add("core.round", parent, request_id, round_start, now);
      round_start = now;
    };
    greedy = core::distributed_greedy(ground_set, k, config,
                                      bounding->has_value()
                                          ? &(*bounding)->state
                                          : nullptr);
  }

  api::SelectionReport report;
  report.solver = request.solver;
  report.objective_name = request.objective_name;
  report.num_points = ground_set.num_points();
  report.k_requested = k;
  report.objective_params = request.objective;
  report.seed = request.seed;
  report.selected = std::move(greedy.selected);
  report.solver_objective = greedy.objective;
  report.degraded = greedy.degraded;
  report.preempted = greedy.preempted;
  report.rounds = std::move(greedy.rounds);
  if (bounding->has_value()) {
    report.bounding = api::BoundingSummary{
        (*bounding)->included, (*bounding)->excluded,
        (*bounding)->grow_rounds, (*bounding)->shrink_rounds};
  }
  if (disk_set != nullptr) {
    {
      const Span span(&tracer, "graph.drain_prefetch", select.id(),
                      request_id);
      disk_set->drain_prefetch();
    }
    const graph::DiskCacheStats after = disk_set->stats();
    const auto delta = [](std::uint64_t now, std::uint64_t then) {
      return static_cast<double>(now >= then ? now - then : 0);
    };
    disk->hits = delta(after.hits, before.hits);
    disk->misses = delta(after.misses, before.misses);
    disk->prefetch_issued = delta(after.prefetch_issued, before.prefetch_issued);
    disk->prefetch_loaded = delta(after.prefetch_loaded, before.prefetch_loaded);
    disk->read_retries = delta(after.read_retries, before.read_retries);
    disk->resident_blocks_high_water =
        static_cast<double>(after.resident_blocks_high_water);
  }
  {
    const Span span(&tracer, "api.objective_eval", select.id(), request_id);
    report.objective = kernel->evaluate(
        std::span<const core::NodeId>(report.selected), &pool);
  }
  {
    const Span span(&tracer, "api.report_json", select.id(), request_id);
    const std::string json = report.to_json();
    if (json.empty()) throw std::runtime_error("empty report JSON");
  }
  return report;
}

void LayerMetrics::set(const std::string& name, double value) {
  values_[name] = value;
}

void LayerMetrics::set_disk(const std::vector<DiskDelta>& deltas) {
  std::vector<double> hits, misses, issued, loaded, retries;
  double total_hits = 0.0;
  double total_misses = 0.0;
  double high_water = 0.0;
  for (const DiskDelta& delta : deltas) {
    hits.push_back(delta.hits);
    misses.push_back(delta.misses);
    issued.push_back(delta.prefetch_issued);
    loaded.push_back(delta.prefetch_loaded);
    retries.push_back(delta.read_retries);
    total_hits += delta.hits;
    total_misses += delta.misses;
    high_water = std::max(high_water, delta.resident_blocks_high_water);
  }
  set("graph.disk_hits", median_or_zero(hits));
  set("graph.disk_misses", median_or_zero(misses));
  set("graph.disk_hit_ratio", total_hits + total_misses > 0.0
                                  ? total_hits / (total_hits + total_misses)
                                  : 0.0);
  set("graph.prefetch_issued", median_or_zero(issued));
  set("graph.prefetch_loaded", median_or_zero(loaded));
  set("graph.read_retries", median_or_zero(retries));
  set("graph.resident_blocks_high_water", high_water);
}

void LayerMetrics::set_select_layers(
    const Tracer& tracer, const std::vector<core::BoundingResult>& bounds,
    const api::SelectionReport& last, std::size_t num_points) {
  for (const auto& [span, metric] : kSelectChildren) {
    set(metric, median_or_zero(tracer.durations(span)));
  }
  set("api.unattributed_s", median_or_zero(tracer.self_times("api.select")));

  if (!bounds.empty()) {
    const core::BoundingResult& bound = bounds.back();
    const double passes =
        static_cast<double>(bound.grow_rounds + bound.shrink_rounds);
    set("core.bound_passes", passes);
    set("core.bound_ms_per_pass",
        passes > 0.0 ? values_["core.bound_s"] * 1e3 / passes : 0.0);
    set("core.bound_decided_frac",
        static_cast<double>(bound.included + bound.excluded) /
            static_cast<double>(num_points));
  }

  // Round means and maxima per operation, then the median over operations.
  std::map<std::uint64_t, std::vector<double>> rounds_by_op;
  for (const SpanRecord& round : tracer.spans("core.round")) {
    rounds_by_op[round.request].push_back(round.seconds());
  }
  std::vector<double> means, maxima;
  for (const auto& [op, rounds] : rounds_by_op) {
    means.push_back(std::accumulate(rounds.begin(), rounds.end(), 0.0) /
                    static_cast<double>(rounds.size()));
    maxima.push_back(*std::max_element(rounds.begin(), rounds.end()));
  }
  set("core.rounds_run", static_cast<double>(last.rounds.size()));
  set("core.round_s_mean", median_or_zero(means));
  set("core.round_s_max", median_or_zero(maxima));
  double partition_bytes = 0.0;
  double state_bytes = 0.0;
  for (const core::RoundStats& round : last.rounds) {
    partition_bytes = std::max(partition_bytes,
                               static_cast<double>(round.peak_partition_bytes));
    state_bytes =
        std::max(state_bytes, static_cast<double>(round.peak_state_bytes));
  }
  set("core.peak_partition_bytes", partition_bytes);
  set("core.peak_state_bytes", state_bytes);
}

void LayerMetrics::set_parse(const std::vector<std::string>& lines) {
  const subsel::serve::ParseLimits limits;
  std::vector<double> micros;
  // At least 2000 parses, cycling through the lines.
  const std::size_t total = std::max<std::size_t>(2000, lines.size());
  for (std::size_t i = 0; i < total; ++i) {
    const std::string& line = lines[i % lines.size()];
    const double start = now_seconds();
    const subsel::serve::ServeRequest parsed =
        subsel::serve::parse_request(line, limits);
    micros.push_back((now_seconds() - start) * 1e6);
    if (parsed.id.empty()) throw std::runtime_error("parsed request lost its id");
  }
  set("serve.parse_us_p50", median(micros));
}

void LayerMetrics::print_accounting(const Tracer& tracer,
                                    double untraced_seconds) const {
  double spans = 0.0;
  std::printf("layer split of one traced selection (medians):\n");
  for (const auto& [span, metric] : kSelectChildren) {
    const auto it = values_.find(metric);
    const double seconds = it == values_.end() ? 0.0 : it->second;
    spans += seconds;
    std::printf("  %-26s %10.4f s\n", span, seconds);
  }
  const double unattributed = values_.at("api.unattributed_s");
  const double traced = median_or_zero(tracer.durations("api.select"));
  std::printf("  %-26s %10.4f s\n", "unattributed", unattributed);
  std::printf("  spans + unattributed = %.4f s; traced select %.4f s;"
              " untraced select %.4f s (%+.1f%%)\n",
              spans + unattributed, traced, untraced_seconds,
              ((spans + unattributed) / untraced_seconds - 1.0) * 100.0);
  if (std::abs(spans + unattributed - untraced_seconds) >
      0.1 * untraced_seconds) {
    std::printf("WARNING: traced layers differ from the untraced select by"
                " more than a tenth\n");
  }
}

void LayerMetrics::emit(Result& result) const {
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    const auto it = values_.find(spec.name);
    result.metric(spec.name, it == values_.end() ? 0.0 : it->second,
                  spec.unit);
  }
  for (const auto& [name, value] : values_) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&name](const LayerMetricSpec& spec) { return name == spec.name; });
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
}

void write_trace(const Tracer& tracer, const Options& options) {
  const std::string dir = options.work_dir + "/traces";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + options.workload + "-s" +
                           std::to_string(options.seed) + ".trace.json";
  if (!tracer.write_chrome_trace(path)) {
    throw std::runtime_error("cannot write trace " + path);
  }
  std::printf("trace: %s (open in https://ui.perfetto.dev)\n", path.c_str());
}

}  // namespace perfbench
