#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "bench.h"
#include "common/json.h"

namespace perfbench {

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent,
                            std::uint64_t request) {
  SpanRecord span;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start = now_seconds();
  std::lock_guard lock(mutex_);
  span.id = next_id_++;
  const std::uint64_t id = span.id;
  open_.emplace(id, std::move(span));
  return id;
}

void Tracer::end(std::uint64_t id) {
  const double end = now_seconds();
  std::lock_guard lock(mutex_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end = end;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
}

std::uint64_t Tracer::add(std::string name, std::uint64_t parent,
                          std::uint64_t request, double start, double end) {
  SpanRecord span;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  std::lock_guard lock(mutex_);
  span.id = next_id_++;
  closed_.push_back(span);
  return span.id;
}

std::vector<SpanRecord> Tracer::spans(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<SpanRecord> matching;
  for (const SpanRecord& span : closed_) {
    if (span.name == name) matching.push_back(span);
  }
  return matching;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> seconds;
  for (const SpanRecord& span : spans(name)) seconds.push_back(span.seconds());
  return seconds;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> self;
  for (const SpanRecord& span : closed_) {
    if (span.name != name) continue;
    // Union of the direct children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> children;
    for (const SpanRecord& child : closed_) {
      if (child.parent != span.id) continue;
      children.emplace_back(std::max(child.start, span.start),
                            std::min(child.end, span.end));
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = span.start;
    for (const auto& [start, end] : children) {
      const double from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self.push_back(span.seconds() - covered);
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mutex_);
  double origin = closed_.empty() ? 0.0 : closed_.front().start;
  for (const SpanRecord& span : closed_) origin = std::min(origin, span.start);

  subsel::JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  for (const SpanRecord& span : closed_) {
    json.begin_object();
    json.key("name").value(span.name);
    json.key("cat").value(span.name.substr(0, span.name.find('.')));
    json.key("ph").value("X");
    json.key("ts").value((span.start - origin) * 1e6);
    json.key("dur").value(span.seconds() * 1e6);
    json.key("pid").value(1);
    // One track per request keeps each operation's span tree together.
    json.key("tid").value(span.request);
    json.key("args").begin_object();
    json.key("id").value(span.id);
    json.key("parent").value(span.parent);
    json.key("request").value(span.request);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();

  std::ofstream file(path, std::ios::trunc);
  file << json.str() << '\n';
  return static_cast<bool>(file);
}

}  // namespace perfbench
