// Per-layer instrumentation shared by the workloads: the traced selection
// (the registry's work replayed as direct calls into core/ and api/ under
// spans), output checks on selections, and the per-layer metric table every
// traced run prints.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/selection_api.h"
#include "bench.h"
#include "core/bounding.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

/// DiskCacheStats movement over one selection.
struct DiskDelta {
  double hits = 0.0;
  double misses = 0.0;
  double prefetch_issued = 0.0;
  double prefetch_loaded = 0.0;
  double read_retries = 0.0;
  double resident_blocks_high_water = 0.0;
};

/// Prints the input's point and edge counts and graph checksum, so two runs
/// can show they measured the same input.
void print_input(const InputInfo& input);

/// Checks that `ids` holds at most k unique, in-range ids of an n-point set.
void check_ids(Result& result, std::vector<subsel::core::NodeId> ids,
               std::size_t k, std::size_t n, const std::string& what);

/// One selection through direct layer calls, mirroring what
/// api::SolverRegistry::run does for the `pipeline` and
/// `distributed-greedy` solvers: kernel build, optional core::bound,
/// core::distributed_greedy conditioned on the bounding state, prefetch
/// drain, the kernel's exact evaluate, and SelectionReport::to_json. Every
/// call is a child span of one "api.select" span tagged `request_id`;
/// rounds are recorded from the round progress events.
subsel::api::SelectionReport traced_select(
    const subsel::api::SelectionRequest& request, subsel::ThreadPool& pool,
    subsel::core::SubproblemArenaPool& arenas, Tracer& tracer,
    std::uint64_t request_id,
    std::optional<subsel::core::BoundingResult>* bounding, DiskDelta* disk);

/// The per-layer metric table. Every name in it is printed by every traced
/// run; a layer the workload does not exercise reads 0.
class LayerMetrics {
 public:
  void set(const std::string& name, double value);
  /// graph.disk_* / prefetch / retry / high-water from per-op deltas.
  void set_disk(const std::vector<DiskDelta>& deltas);
  /// core.* and api.* from the spans of traced_select calls.
  void set_select_layers(const Tracer& tracer,
                         const std::vector<subsel::core::BoundingResult>& bounds,
                         const subsel::api::SelectionReport& last,
                         std::size_t num_points);
  /// serve.parse_us_p50: median serve::parse_request time over `lines`.
  void set_parse(const std::vector<std::string>& lines);

  /// Prints how the traced layer spans add up against the untraced median.
  void print_accounting(const Tracer& tracer, double untraced_seconds) const;
  void emit(Result& result) const;

 private:
  std::map<std::string, double> values_;
};

/// Writes the traced run's spans to <work_dir>/traces/ and prints the path.
void write_trace(const Tracer& tracer, const Options& options);

}  // namespace perfbench
