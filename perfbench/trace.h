// Benchmark-side span tracing.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (the library itself is not instrumented). A
// span carries a name whose prefix up to the first '.' is its layer
// ("kernel.rows" belongs to layer "kernel"), wall-clock start and end, the
// span that was open on the same thread when it began (its parent), and an
// optional request id shared by every span of one served request.
//
// Spans are kept in memory and written out once, as Chrome trace-event JSON
// (chrome://tracing or ui.perfetto.dev), when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  int64_t id = 0;
  int64_t parent = -1;      // -1: root
  int64_t request_id = -1;  // -1: not part of a served request
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int lane = 0;  // trace row; serve spans use one row per request slot
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span on the calling thread; its parent is the innermost span
  // still open on this thread. Returns the span id for End().
  int64_t Begin(const std::string& name);
  void End(int64_t id);

  // Records a finished span with explicit times (serve spans are rebuilt
  // from timestamps taken in the generator and the completion callback).
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, int64_t request_id,
              int lane);

  // Sum of durations of spans called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;

  // Self time of every span named `name` summed: each span's duration minus
  // the part of its interval covered by its children.
  double SelfSeconds(const std::string& name) const;

  // Self time summed per layer (name prefix before the first '.').
  std::map<std::string, double> LayerSelfSeconds() const;

  // Chrome trace-event JSON; `metadata_json` (a JSON object) is embedded as
  // "otherData" so the trace names the run that produced it.
  std::string ToChromeJson(const std::string& metadata_json) const;

 private:
  std::vector<double> SelfSecondsById() const;

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index == id
};

// RAII span; a null tracer records nothing, so untraced code paths share
// the traced code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
