#include "inputs.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "api/solver_registry.h"
#include "data/dataset_io.h"
#include "data/datasets.h"
#include "graph/disk_ground_set.h"

namespace perfbench {
namespace fs = std::filesystem;

namespace {

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = in.gcount();
    for (std::streamsize i = 0; i < got; ++i) {
      hash = (hash ^ static_cast<unsigned char>(buffer[i])) * 0x100000001b3ULL;
    }
  }
  return hash;
}

}  // namespace

std::string input_path(const std::string& work_dir, std::size_t points,
                       std::uint64_t seed) {
  return work_dir + "/inputs/cifar-" + std::to_string(points) + "-s" +
         std::to_string(seed);
}

void prepare_input(const std::string& work_dir, std::size_t points,
                   std::uint64_t seed) {
  const std::string path = input_path(work_dir, points, seed);
  if (fs::exists(path) && fs::exists(path + ".graph")) return;
  fs::create_directories(fs::path(path).parent_path());
  // The library's own dataset cache defaults to a directory outside the
  // checkout; the benchmark keeps its inputs under the work directory only.
  setenv("SUBSEL_CACHE_DIR", "", 1);
  const double scale = static_cast<double>(points) / 50'000.0;
  const subsel::data::Dataset dataset = subsel::data::cifar_proxy(scale, seed);
  if (dataset.size() != points) {
    throw std::runtime_error("cifar_proxy produced " +
                             std::to_string(dataset.size()) + " points, not " +
                             std::to_string(points));
  }
  // Written under a staging name and renamed into place, so a reader never
  // sees a torn file; the graph goes first because PATH marks completion.
  const std::string staging = path + ".tmp";
  subsel::data::save_dataset(dataset, staging);
  fs::rename(staging + ".graph", path + ".graph");
  fs::rename(staging, path);
}

InputInfo describe_input(const std::string& work_dir, std::size_t points,
                         std::uint64_t seed) {
  InputInfo info;
  info.path = input_path(work_dir, points, seed);
  if (!fs::exists(info.path) || !fs::exists(info.path + ".graph")) {
    throw std::runtime_error("input " + info.path +
                             " is missing; run with --prepare first");
  }
  subsel::data::DatasetScalars scalars =
      subsel::data::load_dataset_scalars(info.path);
  info.points = scalars.utilities.size();
  const subsel::graph::DiskGroundSet graph(info.path + ".graph",
                                           std::move(scalars.utilities));
  info.edges = graph.num_edges();
  info.graph_checksum = fnv1a_file(info.path + ".graph");
  return info;
}

double reference_objective(const std::string& path, std::size_t points,
                           const subsel::api::SelectionRequest& shape,
                           bool compute) {
  subsel::api::SelectionRequest request = shape;
  const std::size_t k =
      request.k > 0 ? request.k
                    : static_cast<std::size_t>(request.fraction *
                                               static_cast<double>(points));
  const std::string key = path + ".ref." + request.objective_name + ".k" +
                          std::to_string(k);
  if (std::ifstream in(key); in) {
    std::string text;
    in >> text;
    return std::strtod(text.c_str(), nullptr);
  }
  if (!compute) {
    throw std::runtime_error("reference " + key +
                             " is missing; run with --prepare first");
  }
  const subsel::data::Dataset dataset = subsel::data::load_dataset(path);
  const subsel::graph::InMemoryGroundSet ground_set = dataset.ground_set();
  request.ground_set = &ground_set;
  request.solver = "lazy-greedy";
  request.deadline_ms = 0;
  const subsel::api::SelectionReport report = subsel::api::select(request);
  char text[64];
  std::snprintf(text, sizeof(text), "%a\n", report.objective);
  {
    std::ofstream out(key + ".tmp", std::ios::trunc);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + key);
  }
  fs::rename(key + ".tmp", key);
  return report.objective;
}

}  // namespace perfbench
