// Shared pieces of the end-to-end benchmark: command-line options, the run
// result (metrics + output checks), and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Total thread budget of the run: pool workers, every thread that joins
  /// a solve, and the load generator on serve-mixed.
  std::size_t threads = 4;
  /// Fixed open-loop arrival rate of serve-mixed (calibrated once, see
  /// README.md).
  double serve_rate_hz = 0.0;
  /// Generate the inputs and lazy-greedy references, then exit.
  bool prepare = false;
  /// serve-mixed only: measure closed-loop capacity instead of latency.
  bool calibrate = false;
  /// Cached inputs and trace files live below this directory.
  std::string work_dir = ".bench_build";
};

/// One run's outcome: every metric by name and unit, the operation tallies,
/// and the output checks. Any failed check makes the run incorrect.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failing one is printed and fails the run.
  void check(bool ok, const std::string& what);

  bool correct() const noexcept { return failures_.empty(); }
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string to_json() const;
  /// One human-readable "name value unit" line per metric.
  void print_metrics() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by all threads of this process, in seconds.
inline double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/// Prints "<what>: N samples, median, mean; samples: ..." on one line.
void print_samples(const char* what, const std::vector<double>& seconds);
/// High-water resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Share of the machine's vCPU time the hypervisor took ("steal" in
/// /proc/stat) since `since`, which is a tick count from cpu_ticks().
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks cpu_ticks();
double steal_fraction_since(const CpuTicks& since);

bool is_select_workload(const std::string& name);
/// Generates the workload's input and reference objectives (untimed).
void prepare_select_workload(const Options& options);
void prepare_serve_workload(const Options& options);
/// Runs the workload for options.seconds and fills `result`.
void run_select_workload(const Options& options, Result& result);
void run_serve_workload(const Options& options, Result& result);

}  // namespace perfbench
