#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string Layer(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

int64_t Tracer::Begin(const std::string& name) {
  const int64_t parent = t_open.empty() ? -1 : t_open.back();
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{id, parent, -1, name, now, now, 0});
  t_open.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  const Clock::time_point now = Clock::now();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int64_t Tracer::Add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, int64_t request_id,
                    int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{id, parent, request_id, name, start, end, lane});
  return id;
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += Seconds(s.end - s.start);
  }
  return total;
}

std::vector<double> Tracer::SelfSecondsById() const {
  // Children's intervals per parent, merged so overlapping children (a
  // request's queue and service spans never overlap, but a parent may have
  // concurrent children in general) are not subtracted twice.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    auto& kids = children[static_cast<size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    Clock::duration covered{0};
    Clock::time_point cursor = s.start;
    for (const auto& [b, e] : kids) {
      const Clock::time_point lo = std::max(b, cursor);
      const Clock::time_point hi = std::min(e, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[static_cast<size_t>(s.id)] = Seconds(s.end - s.start - covered);
  }
  return self;
}

double Tracer::SelfSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfSecondsById();
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += self[static_cast<size_t>(s.id)];
  }
  return total;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfSecondsById();
  std::map<std::string, double> layers;
  for (const Span& s : spans_) {
    layers[Layer(s.name)] += self[static_cast<size_t>(s.id)];
  }
  return layers;
}

std::string Tracer::ToChromeJson(const std::string& metadata_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += metadata_json;
  out += ",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us = Seconds(s.start - epoch_) * 1e6;
    const double dur_us = Seconds(s.end - s.start) * 1e6;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"request_id\":%lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), Layer(s.name).c_str(),
                  s.request_id >= 0 ? 2 : 1, s.lane, ts_us, dur_us,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request_id));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
