// The two batch workloads: one api::SolverRegistry::run per operation.
//
//   select-bounding  100k points in memory, `pipeline` with its defaults
//                    (uniform approximate bounding p=0.3, pairwise α=0.9),
//                    fraction 0.1, 8 machines, 4 rounds.
//   select-ooc-fl    200k points out of core (64 blocks x 4096 edges, 16
//                    shards, prefetch depth 2), `distributed-greedy` with the
//                    facility-location objective, fraction 0.1, 8 machines,
//                    4 rounds, no bounding.
//
// The untraced run measures setup_s and cpu_ms_per_op with tracing off. The
// traced run replays the registry's work as direct calls into the layers
// (core::bound, core::distributed_greedy, the kernel's exact evaluate,
// SelectionReport::to_json) under spans, asserts that it selects exactly
// what the registry selects, and reports the per-layer split.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "api/objective_registry.h"
#include "api/solver_registry.h"
#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/bounding.h"
#include "core/distributed_greedy.h"
#include "data/dataset_io.h"
#include "graph/disk_ground_set.h"
#include "inputs.h"
#include "layers.h"
#include "serve/wire.h"
#include "trace.h"

namespace perfbench {
namespace {

using subsel::ThreadPool;
using subsel::core::NodeId;
namespace api = subsel::api;
namespace core = subsel::core;
namespace data = subsel::data;
namespace graph = subsel::graph;

struct SelectSpec {
  std::size_t points = 0;
  bool out_of_core = false;
  graph::DiskGroundSetConfig cache;
  /// The request every operation sends; ground_set is filled in at run time.
  api::SelectionRequest request;
  /// Setup repetitions whose median is setup_s.
  std::size_t setup_reps = 0;
  /// Seed of the dataset every run uses, or 0 when --seed picks it.
  std::uint64_t fixed_data_seed = 0;
  /// Operation i sends the (i mod n)-th of n request seeds drawn from --seed.
  std::size_t request_seeds = 1;
};

SelectSpec select_spec(const std::string& workload) {
  SelectSpec spec;
  spec.request.fraction = 0.1;
  spec.request.distributed.num_machines = 8;
  spec.request.distributed.num_rounds = 4;
  if (workload == "select-bounding") {
    spec.points = 100'000;
    spec.request.solver = "pipeline";
    spec.setup_reps = 11;
    // Bounding's work depends on the dataset: 306-464 passes over 17
    // datasets. One fixed dataset with several request seeds per run (the
    // approximate-bounding sample and the partition shuffles) keeps a run's
    // mean steady while --seed still changes what is computed.
    spec.fixed_data_seed = 1;
    spec.request_seeds = 4;
  } else if (workload == "select-ooc-fl") {
    spec.points = 200'000;
    spec.out_of_core = true;
    spec.cache.block_edges = 4096;
    spec.cache.max_cached_blocks = 64;
    spec.cache.num_shards = 16;
    spec.request.solver = "distributed-greedy";
    spec.request.objective_name = "facility-location";
    spec.request.bounding.enabled = false;
    spec.setup_reps = 41;
  } else {
    throw std::invalid_argument("unknown select workload " + workload);
  }
  return spec;
}

/// The ground set of one setup: in memory (dataset + CSR view) or out of
/// core (resident scalars + DiskGroundSet).
struct LoadedSet {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<graph::InMemoryGroundSet> memory;
  std::unique_ptr<graph::DiskGroundSet> disk;

  const graph::GroundSet& get() const {
    return disk != nullptr ? static_cast<const graph::GroundSet&>(*disk)
                           : *memory;
  }
};

LoadedSet load_set(const SelectSpec& spec, const std::string& path,
                   Tracer* tracer, std::uint64_t request) {
  const Span setup(tracer, "setup", 0, request);
  LoadedSet set;
  if (spec.out_of_core) {
    data::DatasetScalars scalars;
    {
      const Span span(tracer, "data.load", setup.id(), request);
      scalars = data::load_dataset_scalars(path);
    }
    const Span span(tracer, "graph.disk_open", setup.id(), request);
    set.disk = std::make_unique<graph::DiskGroundSet>(
        path + ".graph", std::move(scalars.utilities), spec.cache);
  } else {
    {
      const Span span(tracer, "data.load", setup.id(), request);
      set.dataset = std::make_unique<data::Dataset>(data::load_dataset(path));
    }
    const Span span(tracer, "graph.memory_open", setup.id(), request);
    set.memory = std::make_unique<graph::InMemoryGroundSet>(
        set.dataset->graph, set.dataset->utilities);
  }
  return set;
}

/// Per-operation observations of the traced run.
struct TracedOp {
  api::SelectionReport report;
  std::optional<core::BoundingResult> bounding;
  DiskDelta disk;
};

/// Cold sequential neighbors_span scan on a fresh set with the workload's
/// cache geometry: microseconds per block miss.
double block_fetch_us(const std::string& path, const SelectSpec& spec) {
  data::DatasetScalars scalars = data::load_dataset_scalars(path);
  const graph::DiskGroundSet fresh(path + ".graph",
                                   std::move(scalars.utilities), spec.cache);
  std::vector<graph::Edge> scratch;
  std::size_t edges = 0;
  const double start = now_seconds();
  for (std::size_t v = 0; v < fresh.num_points(); ++v) {
    edges += fresh.neighbors_span(static_cast<NodeId>(v), scratch).size();
  }
  const double seconds = now_seconds() - start;
  const std::uint64_t misses = fresh.stats().misses;
  if (edges != fresh.num_edges() || misses == 0) {
    throw std::runtime_error("block fetch probe read an inconsistent graph");
  }
  return seconds * 1e6 / static_cast<double>(misses);
}

std::uint64_t data_seed(const SelectSpec& spec, const Options& options) {
  return spec.fixed_data_seed != 0 ? spec.fixed_data_seed : options.seed;
}

/// The same selection as one serve wire request line.
std::string wire_form(const api::SelectionRequest& request,
                      const std::string& dataset) {
  subsel::serve::ServeRequest wire;
  wire.id = "probe";
  wire.dataset = dataset;
  wire.fraction = request.fraction;
  wire.solver = request.solver;
  wire.objective = request.objective_name;
  wire.machines = request.distributed.num_machines;
  wire.rounds = request.distributed.num_rounds;
  wire.bounding = request.bounding.enabled ? "uniform" : "none";
  return wire.to_json();
}

}  // namespace

bool is_select_workload(const std::string& name) {
  return name == "select-bounding" || name == "select-ooc-fl";
}

void prepare_select_workload(const Options& options) {
  const SelectSpec spec = select_spec(options.workload);
  const std::uint64_t seed = data_seed(spec, options);
  prepare_input(options.work_dir, spec.points, seed);
  reference_objective(input_path(options.work_dir, spec.points, seed),
                      spec.points, spec.request, /*compute=*/true);
}

void run_select_workload(const Options& options, Result& result) {
  const SelectSpec spec = select_spec(options.workload);
  const InputInfo input =
      describe_input(options.work_dir, spec.points, data_seed(spec, options));
  print_input(input);
  const double reference =
      reference_objective(input.path, spec.points, spec.request, false);

  Tracer tracer;
  Tracer* const traced = options.trace ? &tracer : nullptr;

  // Setup: repeated loads (page cache warm). Each set is released before
  // the next load so peak RSS sees one.
  std::vector<double> setup_wall;
  std::vector<double> setup_cpu;
  LoadedSet loaded;
  for (std::size_t rep = 0; rep < spec.setup_reps; ++rep) {
    loaded = LoadedSet();
    const double start = now_seconds();
    const double cpu_start = process_cpu_seconds();
    loaded = load_set(spec, input.path, traced, 0);
    setup_cpu.push_back(process_cpu_seconds() - cpu_start);
    setup_wall.push_back(now_seconds() - start);
  }
  const graph::GroundSet& ground_set = loaded.get();

  // parallel_for runs on the pool's workers and on the calling thread.
  ThreadPool pool(options.threads - 1);
  api::SolverContext context(&pool);
  api::SelectionRequest request = spec.request;
  request.ground_set = &ground_set;
  const std::size_t k = request.resolved_k();
  const std::unique_ptr<core::ObjectiveKernel> kernel =
      api::ObjectiveRegistry::instance().make(request);

  std::vector<std::uint64_t> seeds;
  for (std::size_t j = 0; j < spec.request_seeds; ++j) {
    seeds.push_back(subsel::hash_combine(options.seed, j));
  }

  // The first selection for a request seed is the one every later operation
  // with that seed must reproduce; its objective is recomputed here.
  std::map<std::uint64_t, api::SelectionReport> firsts;
  const auto check_op = [&](const api::SelectionReport& report,
                            const std::string& what) {
    check_ids(result, report.selected, k, spec.points, what);
    const auto [first, inserted] = firsts.emplace(report.seed, report);
    if (inserted) {
      const double recomputed =
          kernel->evaluate(std::span<const NodeId>(report.selected), &pool);
      result.check(recomputed == report.objective,
                   "benchmark-recomputed objective equals the reported one");
      return true;
    }
    const bool same = report.selected == first->second.selected &&
                      report.objective == first->second.objective;
    result.check(same, what + " selection is identical to the first with"
                              " its request seed");
    return same;
  };

  // Untimed warm-up: page cache, block cache, first arena growth.
  request.seed = seeds.front();
  check_op(api::SolverRegistry::instance().run(request, context), "warm-up");

  std::vector<double> untraced_seconds;
  std::map<std::uint64_t, std::vector<double>> cpu_by_seed;
  std::vector<double> objective_ratios;
  std::vector<TracedOp> traced_ops;
  std::size_t successes = 0;
  std::uint64_t op_id = 0;
  const CpuTicks window_ticks = cpu_ticks();
  const double window_start = now_seconds();
  while (now_seconds() - window_start < options.seconds ||
         untraced_seconds.size() < std::max<std::size_t>(3, seeds.size())) {
    request.seed = seeds[untraced_seconds.size() % seeds.size()];
    const double start = now_seconds();
    const double cpu_start = process_cpu_seconds();
    const api::SelectionReport report =
        api::SolverRegistry::instance().run(request, context);
    const std::string json = report.to_json();
    untraced_seconds.push_back(now_seconds() - start);
    cpu_by_seed[request.seed].push_back(process_cpu_seconds() - cpu_start);
    ++result.attempted;
    objective_ratios.push_back(report.objective / reference);
    const bool same = check_op(report, "repeated");
    if (same && !report.degraded && !report.preempted && !json.empty()) {
      ++successes;
    }

    if (traced != nullptr) {
      TracedOp op;
      op.report = traced_select(request, pool, context.arenas(), tracer,
                                ++op_id, &op.bounding, &op.disk);
      check_op(op.report, "traced");
      traced_ops.push_back(std::move(op));
    }
  }
  result.failed = result.attempted - successes;
  const double steal = steal_fraction_since(window_ticks);
  std::printf("host steal during the window: %.1f%% of vCPU time\n",
              steal * 100.0);

  const double select_s = median(untraced_seconds);
  // CPU per operation: the mean over request seeds of each seed's mean, so
  // a seed that ran once more does not tilt it.
  std::vector<double> cpu_seconds;
  std::vector<double> seed_means;
  for (const auto& [seed, samples] : cpu_by_seed) {
    cpu_seconds.insert(cpu_seconds.end(), samples.begin(), samples.end());
    seed_means.push_back(mean(samples));
  }
  print_samples("select wall", untraced_seconds);
  print_samples("select cpu", cpu_seconds);
  print_samples("setup wall", setup_wall);
  print_samples("setup cpu", setup_cpu);
  std::printf("objective: median f(S) / f(S_ref) = %.6f, lazy-greedy"
              " f(S_ref) = %.6f\n",
              median(objective_ratios), reference);

  if (!options.trace) {
    result.metric("setup_s", median(setup_cpu), "s");
    result.metric("cpu_ms_per_op", mean(seed_means) * 1e3, "ms");
    result.metric("objective_ratio", median(objective_ratios), "ratio");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    result.metric("success_frac",
                  static_cast<double>(successes) /
                      static_cast<double>(result.attempted),
                  "ratio");
    return;
  }

  // --- Per-layer split from the traced run ------------------------------
  LayerMetrics layers;
  layers.set("data.load_s", median(tracer.durations("data.load")));
  layers.set("graph.disk_open_s",
             spec.out_of_core ? median(tracer.durations("graph.disk_open"))
                              : 0.0);
  if (spec.out_of_core) {
    std::vector<DiskDelta> deltas;
    for (const TracedOp& op : traced_ops) deltas.push_back(op.disk);
    layers.set_disk(deltas);
    layers.set("graph.block_fetch_us", block_fetch_us(input.path, spec));
  }
  std::vector<core::BoundingResult> bounds;
  for (const TracedOp& op : traced_ops) {
    if (op.bounding.has_value()) bounds.push_back(*op.bounding);
  }
  layers.set_select_layers(tracer, bounds, traced_ops.back().report,
                           spec.points);
  layers.set_parse({wire_form(request, options.workload)});
  const double traced_s = median(tracer.durations("api.select"));
  layers.set("bench.trace_overhead_frac", traced_s / select_s - 1.0);
  layers.set("bench.host_steal_frac", steal);
  layers.set("bench.wall_p50_ms", select_s * 1e3);
  layers.print_accounting(tracer, select_s);
  layers.emit(result);
  write_trace(tracer, options);
}

}  // namespace perfbench
