// Open-loop serving phase: one generator thread submits on a fixed schedule
// regardless of completions (independent users), every request is timed
// from its due time, and each answer is compared with offline Predict.

#include <atomic>
#include <cstring>
#include <future>
#include <limits>

#include "common/string_util.h"
#include "phases.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

using namespace gmpsvm;  // NOLINT

namespace serve_detail {

enum class Outcome { kPending, kOk, kRejected, kExpired, kFailed };

struct RequestSlot {
  Clock::time_point due, submit_begin, submit_end, done;
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  int batch = 0;
  Outcome outcome = Outcome::kPending;
  bool answer_matches = false;
};

struct LevelResult {
  double rps = 0.0;
  Clock::time_point start;
  std::vector<RequestSlot> slots;
  int64_t outstanding_at_end = 0;  // accepted but unanswered when sending ended
  size_t max_queue_depth = 0;

  int64_t Count(Outcome o) const {
    int64_t n = 0;
    for (const RequestSlot& s : slots) n += s.outcome == o ? 1 : 0;
    return n;
  }
  // Latency from due time, ms; requests without an answer count as misses
  // (infinite latency).
  std::vector<double> LatencyMs() const {
    std::vector<double> out;
    out.reserve(slots.size());
    for (const RequestSlot& s : slots) {
      out.push_back(s.outcome == Outcome::kOk
                        ? std::chrono::duration<double, std::milli>(s.done - s.due).count()
                        : std::numeric_limits<double>::infinity());
    }
    return out;
  }
  std::vector<double> OkField(double (*f)(const RequestSlot&)) const {
    std::vector<double> out;
    for (const RequestSlot& s : slots) {
      if (s.outcome == Outcome::kOk) out.push_back(f(s));
    }
    return out;
  }
  // Requests per batch, averaged over batches (a batch of b requests is seen
  // b times, so each request contributes 1/b of a batch).
  double MeanBatch() const {
    double batches = 0.0;
    int64_t requests = 0;
    for (const RequestSlot& s : slots) {
      if (s.outcome != Outcome::kOk || s.batch <= 0) continue;
      batches += 1.0 / s.batch;
      ++requests;
    }
    return batches > 0.0 ? static_cast<double>(requests) / batches : 0.0;
  }
  // Completed requests per second between the first due time and the last
  // answer.
  double AchievedRps() const {
    Clock::time_point last = start;
    int64_t ok = 0;
    for (const RequestSlot& s : slots) {
      if (s.outcome != Outcome::kOk) continue;
      last = std::max(last, s.done);
      ++ok;
    }
    const double span = std::chrono::duration<double>(last - start).count();
    return span > 0.0 ? static_cast<double>(ok) / span : 0.0;
  }
};

double QueueMs(const RequestSlot& s) { return s.queue_seconds * 1e3; }
double ServiceMs(const RequestSlot& s) {
  return (s.total_seconds - s.queue_seconds) * 1e3;
}
double AdmitUs(const RequestSlot& s) {
  return std::chrono::duration<double, std::micro>(s.submit_end - s.submit_begin).count();
}
double LagMs(const RequestSlot& s) {
  return std::chrono::duration<double, std::milli>(s.submit_begin - s.due).count();
}

LevelResult RunLevel(ModelRegistry* registry, const ServeOptions& options,
                     const CsrMatrix& rows, const std::vector<double>& expected,
                     int k, double rps, int requests, int64_t row_offset) {
  LevelResult level;
  level.rps = rps;
  level.slots.resize(static_cast<size_t>(requests));
  InferenceServer server(registry, options);
  GMP_CHECK_OK(server.Start());
  // Warm the workers (thread start, first allocations) outside the window.
  for (int i = 0; i < 16; ++i) {
    const int64_t row = i % rows.rows();
    (void)server.Predict(rows.RowIndices(row), rows.RowValues(row));
  }

  std::atomic<int64_t> answered{0};
  std::vector<std::future<Result<PredictResponse>>> futures;
  futures.reserve(static_cast<size_t>(requests));
  const auto interval = std::chrono::duration<double>(1.0 / rps);
  level.start = Clock::now() + std::chrono::milliseconds(2);
  int64_t accepted = 0;
  for (int i = 0; i < requests; ++i) {
    RequestSlot& slot = level.slots[static_cast<size_t>(i)];
    slot.due = level.start +
               std::chrono::duration_cast<Clock::duration>(interval * i);
    // Spin rather than sleep: waking a sleeping thread on a busy VM can take
    // milliseconds, which would show up as generator lag in every latency.
    while (Clock::now() < slot.due) {
    }
    const int64_t row = (row_offset + i) % rows.rows();
    const double* want = expected.data() + row * k;
    auto on_complete = [&slot, &answered, want, k](const Result<PredictResponse>& r) {
      slot.done = Clock::now();
      if (r.ok()) {
        slot.outcome = Outcome::kOk;
        slot.queue_seconds = r->queue_seconds;
        slot.total_seconds = r->total_seconds;
        slot.batch = r->batch_size;
        slot.answer_matches =
            r->probabilities.size() == static_cast<size_t>(k) &&
            std::memcmp(r->probabilities.data(), want, sizeof(double) * k) == 0;
      } else {
        slot.outcome = r.status().code() == StatusCode::kDeadlineExceeded
                           ? Outcome::kExpired
                           : Outcome::kFailed;
      }
      answered.fetch_add(1, std::memory_order_release);
    };
    slot.submit_begin = Clock::now();
    auto submitted = server.Submit(rows.RowIndices(row), rows.RowValues(row),
                                   Deadline::Infinite(), "", on_complete);
    slot.submit_end = Clock::now();
    if (submitted.ok()) {
      futures.push_back(std::move(*submitted));
      ++accepted;
    } else {
      slot.outcome = submitted.status().code() == StatusCode::kResourceExhausted
                         ? Outcome::kRejected
                         : Outcome::kFailed;
    }
  }
  level.outstanding_at_end = accepted - answered.load(std::memory_order_acquire);
  for (auto& f : futures) f.wait();
  level.max_queue_depth = server.stats().Snapshot().max_queue_depth;
  GMP_CHECK_OK(server.Shutdown());
  return level;
}

// p99 within the limit, nothing refused or failed, and no backlog beyond
// what the limit itself allows (rate x limit, plus one batch per worker).
bool MeetsLimit(const LevelResult& level) {
  if (level.Count(Outcome::kOk) != static_cast<int64_t>(level.slots.size())) {
    return false;
  }
  const double allowed_backlog = level.rps * kP99LimitMs * 1e-3 + kMaxBatch * kServeWorkers;
  return Quantile(level.LatencyMs(), 0.99) <= kP99LimitMs &&
         static_cast<double>(level.outstanding_at_end) <= allowed_backlog;
}

void AddSpans(const LevelResult& level, const std::string& label,
              int64_t request_id_base, Tracer* tracer) {
  for (size_t i = 0; i < level.slots.size(); ++i) {
    const RequestSlot& s = level.slots[i];
    if (s.outcome == Outcome::kPending) continue;
    const int64_t rid = request_id_base + static_cast<int64_t>(i);
    const int lane = static_cast<int>(i % 32);
    const Clock::time_point end = s.outcome == Outcome::kRejected ? s.submit_end : s.done;
    const int64_t root = tracer->Add("serve.request." + label, s.due, end, -1, rid, lane);
    tracer->Add("serve.generator_lag", s.due, s.submit_begin, root, rid, lane);
    tracer->Add("serve.admit", s.submit_begin, s.submit_end, root, rid, lane);
    if (s.outcome != Outcome::kOk) continue;
    const auto admitted = s.done - std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(s.total_seconds));
    const auto batched = admitted + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(s.queue_seconds));
    tracer->Add("serve.queue", admitted, batched, root, rid, lane);
    tracer->Add("serve.service", batched, s.done, root, rid, lane);
  }
}

}  // namespace serve_detail

using namespace serve_detail;  // NOLINT

ServeSession::ServeSession(const WorkloadConfig& config, const MpSvmModel& model,
                           const CsrMatrix& rows, const std::vector<double>& expected)
    : plan_(config.serve), rows_(rows), expected_(expected), k_(model.num_classes) {
  GMP_CHECK_OK(registry_.Register("default", model).status());
  options_.num_workers = kServeWorkers;
  options_.batching.max_batch_size = kMaxBatch;
  options_.batching.max_queue_delay = std::chrono::microseconds(kBatchDelayUs);
}

void ServeSession::Account(const LevelResult& level, bool ladder) {
  const int64_t n = static_cast<int64_t>(level.slots.size());
  const int64_t ok = level.Count(Outcome::kOk);
  Counts& c = ladder ? ladder_counts_ : fixed_counts_;
  c.submitted += n;
  c.ok += ok;
  c.rejected += level.Count(Outcome::kRejected);
  c.expired += level.Count(Outcome::kExpired);
  c.failed += level.Count(Outcome::kFailed);
  for (const RequestSlot& s : level.slots) {
    if (s.outcome == Outcome::kOk && !s.answer_matches) ++wrong_answers_;
  }
  max_queue_depth_ = std::max(max_queue_depth_, level.max_queue_depth);
}

// Ascending rates; the highest passing rate counts, and two consecutive
// misses end the climb (one miss can be a host stall).
double ServeSession::RunLadder() {
  double max_rps = 0.0;
  int misses_in_a_row = 0;
  std::string detail;
  for (const double rps : plan_.ladder_rps) {
    const LevelResult rung = RunLevel(&registry_, options_, rows_, expected_, k_, rps,
                                      LevelRequests(rps, kRungSeconds), next_row_);
    next_row_ += static_cast<int64_t>(rung.slots.size());
    Account(rung, true);
    const bool pass = MeetsLimit(rung);
    detail += StrPrintf("%s%.0f: p99 %.2f ms, backlog %lld, %s", detail.empty() ? "" : "; ",
                        rps, Quantile(rung.LatencyMs(), 0.99),
                        static_cast<long long>(rung.outstanding_at_end),
                        pass ? "pass" : "miss");
    misses_in_a_row = pass ? 0 : misses_in_a_row + 1;
    if (pass) max_rps = rung.AchievedRps();
    if (misses_in_a_row == 2) break;
  }
  ladder_detail_ = detail;
  return max_rps;
}

void ServeSession::RunTraced(Tracer* tracer, RunOutput* out) {
  const LevelResult low = RunLevel(&registry_, options_, rows_, expected_, k_, plan_.low_rps,
                                   LevelRequests(plan_.low_rps, kChunkSeconds), 0);
  const LevelResult high = RunLevel(&registry_, options_, rows_, expected_, k_, plan_.high_rps,
                                    LevelRequests(plan_.high_rps, kChunkSeconds), 0);
  Account(low, false);
  Account(high, false);
  AddSpans(low, "low", 0, tracer);
  AddSpans(high, "high", static_cast<int64_t>(low.slots.size()), tracer);
  for (const auto& [label, level] :
       {std::pair<const char*, const LevelResult*>{"low", &low}, {"high", &high}}) {
    const std::string p = std::string("serve.") + label + ".";
    out->Set(p + "p50_ms", Quantile(level->LatencyMs(), 0.5), "ms");
    out->Set(p + "p99_ms", Quantile(level->LatencyMs(), 0.99), "ms");
    out->Set(p + "queue_wait_p50_ms", Quantile(level->OkField(QueueMs), 0.5), "ms");
    out->Set(p + "queue_wait_p99_ms", Quantile(level->OkField(QueueMs), 0.99), "ms");
    out->Set(p + "service_p50_ms", Quantile(level->OkField(ServiceMs), 0.5), "ms");
    out->Set(p + "service_p99_ms", Quantile(level->OkField(ServiceMs), 0.99), "ms");
    out->Set(p + "mean_batch", level->MeanBatch(), "requests");
  }
  std::vector<double> admit = low.OkField(AdmitUs), lag = low.OkField(LagMs);
  for (double x : high.OkField(AdmitUs)) admit.push_back(x);
  for (double x : high.OkField(LagMs)) lag.push_back(x);
  out->Set("serve.admit_us", Quantile(admit, 0.5), "us");
  out->Set("serve.generator_lag_ms", Quantile(lag, 0.99), "ms");
  out->Set("serve.max_queue_depth", static_cast<double>(max_queue_depth_), "count");
  out->Set("serve.rejected", static_cast<double>(fixed_counts_.rejected), "count");
  out->Set("serve.expired", static_cast<double>(fixed_counts_.expired), "count");
  out->Set("serve.failed", static_cast<double>(fixed_counts_.failed), "count");
  out->Set("serve.max_rps", RunLadder(), "1/s");
  out->check_detail["serve.ladder"] = ladder_detail_;
  low_samples_ = static_cast<int64_t>(low.slots.size());
  high_samples_ = static_cast<int64_t>(high.slots.size());
}

void ServeSession::Finish(RunOutput* out) const {
  const Counts& f = fixed_counts_;
  const Counts& l = ladder_counts_;
  // Requests refused while the ladder probes past capacity are that rung's
  // misses, not failed operations; every other unanswered request fails.
  out->attempted += f.submitted + l.submitted;
  out->failed += (f.submitted - f.ok) + (l.submitted - l.ok - l.rejected);
  out->accounting["serve"] =
      JsonObject()
          .Int("submitted", f.submitted)
          .Int("succeeded", f.ok)
          .Int("rejected", f.rejected)
          .Int("expired", f.expired)
          .Int("failed", f.failed)
          .Int("low_samples", low_samples_)
          .Int("high_samples", high_samples_)
          .Num("low_rps", plan_.low_rps)
          .Num("high_rps", plan_.high_rps)
          .Num("ladder_p99_limit_ms", kP99LimitMs)
          .Build();
  out->accounting["serve_ladder"] = JsonObject()
                                        .Int("submitted", l.submitted)
                                        .Int("succeeded", l.ok)
                                        .Int("rejected_past_capacity", l.rejected)
                                        .Int("expired", l.expired)
                                        .Int("failed", l.failed)
                                        .Build();
  const int64_t answered = f.ok + l.ok;
  out->Check("serve.answers_identical_to_offline_predict", wrong_answers_ == 0,
             StrPrintf("%lld answers compared byte for byte, %lld differ",
                       static_cast<long long>(answered),
                       static_cast<long long>(wrong_answers_)));
}

}  // namespace perfbench
