// End-to-end benchmark program: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--serve-rate-hz R] [--work-dir DIR]
//             [--prepare] [--calibrate]
//
// `--prepare` generates the seeded input and the lazy-greedy reference
// objectives into the work directory and exits; the measuring run reads
// them from there, so generation is never timed. The last stdout line of a
// measuring run is the result JSON; the exit code is 0 only when every
// output check passed. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/json.h"

namespace perfbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

std::string Result::to_json() const {
  subsel::JsonWriter json;
  json.begin_object();
  json.key("correct").value(correct());
  json.key("attempted").value(attempted);
  json.key("failed").value(failed);
  json.key("metrics").begin_object();
  for (const Metric& metric : metrics_) {
    json.key(metric.name).begin_object();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

void Result::print_metrics() const {
  for (const Metric& metric : metrics_) {
    std::printf("  %-34s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

void print_samples(const char* what, const std::vector<double>& seconds) {
  std::printf("%s: %zu samples, median %.6f s, mean %.6f s; samples:", what,
              seconds.size(), median(seconds), mean(seconds));
  for (const double value : seconds) std::printf(" %.6f", value);
  std::printf("\n");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  double value = 0.0;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_fraction_since(const CpuTicks& since) {
  const CpuTicks now = cpu_ticks();
  const double total = now.total - since.total;
  return total > 0.0 ? (now.steal - since.steal) / total : 0.0;
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N"
               " --seconds S --trace 0|1 [--threads T] [--serve-rate-hz R]"
               " [--work-dir DIR] [--prepare] [--calibrate]\n",
               why);
  std::exit(2);
}

double number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    usage(("bad value for " + flag).c_str());
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      options.prepare = true;
      continue;
    }
    if (flag == "--calibrate") {
      options.calibrate = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(number(flag, value));
    } else if (flag == "--seconds") {
      options.seconds = number(flag, value);
    } else if (flag == "--trace") {
      options.trace = number(flag, value) != 0.0;
    } else if (flag == "--threads") {
      options.threads = static_cast<std::size_t>(number(flag, value));
    } else if (flag == "--serve-rate-hz") {
      options.serve_rate_hz = number(flag, value);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.threads < 2) usage("--threads must be at least 2");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  const bool select = is_select_workload(options.workload);
  if (!select && options.workload != "serve-mixed") {
    usage(("unknown workload " + options.workload).c_str());
  }
  try {
    if (options.prepare) {
      select ? prepare_select_workload(options)
             : prepare_serve_workload(options);
      return 0;
    }
    std::printf("workload %s, seed %llu, %.0f s, trace %d, %zu threads\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.threads);
    Result result;
    select ? run_select_workload(options, result)
           : run_serve_workload(options, result);
    std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
    result.print_metrics();
    std::printf("%s\n", result.to_json().c_str());
    std::fflush(stdout);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
