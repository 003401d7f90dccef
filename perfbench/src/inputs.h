// Seeded, cached benchmark inputs.
//
// Every input is a cifar-proxy dataset (clustered 64-d embeddings, margin
// utilities, symmetrized 10-NN graph) generated from the workload seed and
// saved once per (points, seed) in the data/dataset_io.h format under the
// work directory. Generation (7-20 s) and the lazy-greedy reference solve
// run in a separate `--prepare` process, so they are never timed and never
// count toward the measured process's peak RSS.
#pragma once

#include <cstdint>
#include <string>

#include "api/selection_api.h"

namespace perfbench {

struct InputInfo {
  std::string path;  // dataset prefix: PATH and PATH.graph
  std::size_t points = 0;
  std::size_t edges = 0;  // directed CSR entries of PATH.graph
  std::uint64_t graph_checksum = 0;  // FNV-1a 64 of the PATH.graph bytes
};

/// Path of the cached input for (points, seed); it may not exist yet.
std::string input_path(const std::string& work_dir, std::size_t points,
                       std::uint64_t seed);

/// Generates the input for (points, seed) unless it is already cached.
void prepare_input(const std::string& work_dir, std::size_t points,
                   std::uint64_t seed);

/// Describes a cached input (counts + checksum); throws if it is missing.
InputInfo describe_input(const std::string& work_dir, std::size_t points,
                         std::uint64_t seed);

/// f(S_ref) of the lazy-greedy selection for `shape`'s objective and budget
/// over the in-memory form of the `points`-point input at `path`. Computed
/// on first use and cached beside the input; `compute` = false throws when
/// it is not cached.
double reference_objective(const std::string& path, std::size_t points,
                           const subsel::api::SelectionRequest& shape,
                           bool compute);

}  // namespace perfbench
