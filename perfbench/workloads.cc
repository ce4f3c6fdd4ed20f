#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include "common/string_util.h"
#include "core/model_io.h"
#include "data/libsvm_io.h"
#include "metrics/calibration.h"
#include "metrics/metrics.h"
#include "phases.h"
#include "stats.h"

namespace perfbench {

using namespace gmpsvm;  // NOLINT

// ---------------------------------------------------------------------------
// Workload definitions.

namespace {

// Reseeds a proxy spec: the same --seed always yields the same data, and
// different seeds give independent draws of the same distribution.
SyntheticSpec Reseed(SyntheticSpec spec, uint64_t seed) {
  spec.seed = spec.seed * 1000003ull + seed;
  return spec;
}

SyntheticSpec PaperSpec(const std::string& name, double scale) {
  return ValueOrDie(FindPaperSpec(name, scale));
}

// k = 64 proxy (2016 pairwise SVMs, 24 dense dims): the large-k regime where
// Wu coupling, sigmoids and class elimination dominate prediction.
SyntheticSpec LargeKSpec() {
  SyntheticSpec spec;
  spec.name = "LargeK-64";
  spec.num_classes = 64;
  spec.cardinality = 64 * 16;
  spec.paper_cardinality = 64 * 16;
  spec.dim = 24;
  spec.paper_dim = 24;
  spec.density = 1.0;
  spec.separation = 4.0;
  spec.label_noise = 0.05;
  spec.c = 4.0;
  spec.gamma = 0.5;
  spec.seed = 71;
  spec.test_cardinality = 4096;
  return spec;
}

// Ladder rates from `from` up to `to` in steps of 10%, rounded to 10 rps.
std::vector<double> Ladder(double from, double to) {
  std::vector<double> rates;
  for (double r = from; r <= to * 1.0001; r *= 1.1) {
    rates.push_back(std::round(r / 10.0) * 10.0);
  }
  return rates;
}

}  // namespace

std::vector<WorkloadConfig> Workloads(uint64_t seed) {
  // Serving rates are fixed absolute rates, set from each model's open-loop
  // capacity (the ladder's result) measured on a 4-vCPU x86-64 VM: low near
  // 1/4 of it, high near 1/2 of it (nearer capacity, queueing turns the
  // host's speed swings into large latency swings), and the ladder from
  // ~0.6x capacity upwards, so that it still finds a passing rate when the
  // host is slow.
  std::vector<WorkloadConfig> w;
  {
    WorkloadConfig c;
    c.name = "train-dense";
    c.why = "CIFAR-10 proxy, 45 pairs on 512 dense dims: kernel rows are ~90% "
            "of solve time, so the kernel layer dominates training and prediction";
    // 5% label noise (the paper proxy has 0.3%) so the test error counts
    // enough mistakes to be steady from seed to seed.
    c.data = Reseed(PaperSpec("CIFAR-10", 0.7), seed);
    c.data.label_noise = 0.05;
    c.data.test_cardinality = 4800;
    c.timing_rows = 200;
    c.mix = TaskMix{0.65, 0.2, 0.15};
    c.serve = ServePlan{600.0, 1150.0, Ladder(1400, 3200)};
    w.push_back(c);
  }
  {
    WorkloadConfig c;
    c.name = "train-sparse";
    c.why = "News20 proxy, 190 pairs on 5000 sparse dims: solver, working-set, "
            "block sharing and 190 sigmoid fits carry a large share of training";
    c.data = Reseed(PaperSpec("News20", 1.0), seed);
    c.data.test_cardinality = 4000;
    c.timing_rows = 1000;
    c.mix = TaskMix{0.7, 0.2, 0.1};
    c.serve = ServePlan{2500.0, 5000.0, Ladder(6000, 16000)};
    w.push_back(c);
  }
  {
    WorkloadConfig c;
    c.name = "predict-largek";
    c.why = "k=64 model with 2016 pairs on 24 dims, predicted exact and with the "
            "elimination cascade: coupling, sigmoids and elimination dominate";
    c.data = Reseed(LargeKSpec(), seed);
    c.timing_rows = 128;
    c.train_in_setup = true;
    c.mix = TaskMix{0.35, 0.4, 0.25};
    c.serve = ServePlan{2500.0, 5000.0, Ladder(6000, 16000)};
    w.push_back(c);
  }
  return w;
}

std::string WorkloadInputsJson(const WorkloadConfig& config) {
  const SyntheticSpec& s = config.data;
  const ServePlan& p = config.serve;
  std::string ladder = "[";
  for (size_t i = 0; i < p.ladder_rps.size(); ++i) {
    ladder += (i ? ", " : "") + JsonNumber(p.ladder_rps[i]);
  }
  ladder += "]";
  return JsonObject()
      .Str("dataset", s.name)
      .Int("classes", s.num_classes)
      .Int("train_rows", s.cardinality)
      .Int("test_rows", s.test_cardinality > 0
                            ? s.test_cardinality
                            : std::max<int64_t>(s.num_classes, s.cardinality / 5))
      .Int("dim", s.dim)
      .Num("density", s.density)
      .Num("separation", s.separation)
      .Num("label_noise", s.label_noise)
      .Num("c", s.c)
      .Num("gamma", s.gamma)
      .Int("data_seed", static_cast<int64_t>(s.seed))
      .Bool("model_trained_in_setup", config.train_in_setup)
      .Raw("serve_plan", JsonObject()
                             .Num("low_rps", p.low_rps)
                             .Num("high_rps", p.high_rps)
                             .Num("seconds_per_chunk", kChunkSeconds)
                             .Raw("ladder_rps", ladder)
                             .Num("seconds_per_rung", kRungSeconds)
                             .Int("min_requests_per_rung", kMinLevelRequests)
                             .Num("ladder_p99_limit_ms", kP99LimitMs)
                             .Int("workers", kServeWorkers)
                             .Int("max_batch", kMaxBatch)
                             .Int("batch_delay_us", kBatchDelayUs)
                             .Build())
      .Build();
}

// ---------------------------------------------------------------------------
// Shared options.

namespace {

double WorldScale(const SyntheticSpec& spec) {
  if (spec.paper_cardinality <= 0) return 1.0;
  return std::max(static_cast<double>(spec.cardinality) /
                      static_cast<double>(spec.paper_cardinality),
                  1.0 / 16.0);
}

}  // namespace

ExecutorModel ScaledDeviceModel(const SyntheticSpec& spec, int host_threads) {
  const double sigma = WorldScale(spec);
  ExecutorModel model = ExecutorModel::TeslaP100();
  model.launch_overhead_sec *= sigma;
  model.memory_budget_bytes = static_cast<size_t>(std::max(
      1.0, static_cast<double>(model.memory_budget_bytes) * sigma * sigma));
  model.block_size = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(model.block_size) * sigma + 0.5));
  model.host_threads = host_threads;
  return model;
}

MpTrainOptions PaperTrainOptions(const SyntheticSpec& spec) {
  const double sigma = WorldScale(spec);
  MpTrainOptions options;
  options.c = spec.c;
  options.kernel.type = KernelType::kGaussian;
  options.kernel.gamma = spec.gamma;
  // Paper: kernel buffer of 1024 rows with q = 512, scaled to the proxy.
  options.batch.working_set.ws_size =
      std::clamp(static_cast<int>(1024 * sigma + 0.5), 64, 1024);
  options.batch.working_set.q = options.batch.working_set.ws_size / 2;
  options.shared_cache_bytes = static_cast<size_t>(
      std::max(4096.0, static_cast<double>(2ull << 30) * sigma * sigma));
  options.platt_parallel_candidates = 8;
  return options;
}

PredictOptions CascadePredictOptions() {
  PredictOptions options;
  options.cascade.mode = CascadeOptions::Mode::kEliminate;
  options.cascade.ambiguity_band = 0.05;
  return options;
}

bool ProbabilitiesValid(const std::vector<double>& probs, int k, double* max_dev) {
  bool ok = k > 0 && probs.size() % static_cast<size_t>(k) == 0;
  *max_dev = 0.0;
  for (size_t row = 0; ok && row < probs.size() / k; ++row) {
    double sum = 0.0;
    for (int c = 0; c < k; ++c) {
      const double p = probs[row * k + c];
      if (!std::isfinite(p) || p < 0.0) ok = false;
      sum += p;
    }
    *max_dev = std::max(*max_dev, std::fabs(sum - 1.0));
  }
  return ok && *max_dev <= kProbSumTolerance;
}

// ---------------------------------------------------------------------------
// Phases.

namespace {

std::string ToLibsvmText(const Dataset& data) {
  std::string text;
  text.reserve(static_cast<size_t>(data.features().nnz()) * 26 +
               static_cast<size_t>(data.size()) * 4);
  char buf[64];
  for (int64_t i = 0; i < data.size(); ++i) {
    text += std::to_string(data.labels()[static_cast<size_t>(i)]);
    const auto idx = data.features().RowIndices(i);
    const auto val = data.features().RowValues(i);
    for (size_t j = 0; j < idx.size(); ++j) {
      // Shortest decimal form that reads back to the same double.
      char* p = buf;
      *p++ = ' ';
      p = std::to_chars(p, buf + sizeof(buf), idx[j] + 1).ptr;
      *p++ = ':';
      p = std::to_chars(p, buf + sizeof(buf), val[j]).ptr;
      text.append(buf, static_cast<size_t>(p - buf));
    }
    text += '\n';
  }
  return text;
}

bool SameData(const Dataset& a, const Dataset& b) {
  if (a.size() != b.size() || a.dim() != b.dim() || a.labels() != b.labels() ||
      a.num_classes() != b.num_classes()) {
    return false;
  }
  for (int64_t i = 0; i < a.size(); ++i) {
    const auto ai = a.features().RowIndices(i), bi = b.features().RowIndices(i);
    const auto av = a.features().RowValues(i), bv = b.features().RowValues(i);
    if (ai.size() != bi.size() ||
        std::memcmp(ai.data(), bi.data(), ai.size() * sizeof(int32_t)) != 0 ||
        std::memcmp(av.data(), bv.data(), av.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The generated set, written as LibSVM text and read back through the
// library's parser; the program trains and predicts on what it parsed.
Result<Dataset> RoundTrip(const Dataset& generated, Tracer* tracer,
                          double* parse_seconds) {
  const std::string text = ToLibsvmText(generated);
  const Clock::time_point t0 = Clock::now();
  LibsvmFile parsed;
  {
    ScopedSpan span(tracer, "data.parse");
    GMP_ASSIGN_OR_RETURN(parsed, ParseLibsvm(text, generated.dim(), generated.name()));
  }
  *parse_seconds += SecondsSince(t0);
  // The parser numbers classes by first appearance; map back to the
  // generator's class ids.
  std::vector<int32_t> labels(parsed.dataset.labels().size());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = parsed.label_values[static_cast<size_t>(parsed.dataset.labels()[i])];
  }
  return Dataset::Create(parsed.dataset.features(), std::move(labels),
                         generated.num_classes(), generated.name());
}

struct SetupState {
  Dataset train;
  Dataset test;
  MpSvmModel model;  // set when the workload trains during set-up
  std::vector<double> setup_seconds;
  std::vector<double> parse_seconds;
  int64_t parsed_rows = 0;
};

constexpr int kSetupRepeats = 3;

// Set-up, repeated kSetupRepeats times so its median is reported: generate
// train/test data, round-trip both through LibSVM text, and (for workloads
// that serve or predict a model trained up front) train it.
SetupState RunSetup(const WorkloadConfig& config, const RunParams& params,
                    Tracer* tracer, RunOutput* out) {
  SetupState state;
  const MpTrainOptions options = PaperTrainOptions(config.data);
  const ExecutorModel device = ScaledDeviceModel(config.data, params.host_threads);
  uint64_t first_fp = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(tracer, "data.setup");
    const Dataset gen_train = ValueOrDie(GenerateSynthetic(config.data));
    const Dataset gen_test = ValueOrDie(GenerateSyntheticTest(config.data));
    double parse = 0.0;
    Result<Dataset> train = RoundTrip(gen_train, tracer, &parse);
    Result<Dataset> test = RoundTrip(gen_test, tracer, &parse);
    ++out->attempted;
    const bool parsed = train.ok() && test.ok();
    if (!parsed) ++out->failed;
    out->Check("data.libsvm_round_trip_exact",
               parsed && SameData(gen_train, *train) && SameData(gen_test, *test),
               parsed ? "parsed train and test sets equal the generated ones"
                      : "parse failed: " + (train.ok() ? test.status() : train.status()).ToString());
    if (!parsed) return state;
    state.train = std::move(*train);
    state.test = std::move(*test);
    state.parse_seconds.push_back(parse);
    state.parsed_rows = state.train.size() + state.test.size();
    if (config.train_in_setup) {
      SimExecutor exec(device);
      ScopedSpan train_span(tracer, "core.setup_train");
      ++out->attempted;
      Result<MpSvmModel> model = GmpSvmTrainer(options).Train(state.train, &exec, nullptr);
      if (!model.ok()) {
        ++out->failed;
        out->Check("setup.train", false, model.status().ToString());
        return state;
      }
      const uint64_t fp = Fnv1a(SerializeModel(*model));
      if (rep == 0) first_fp = fp;
      out->Check("train.model_fingerprint_repeats", fp == first_fp,
                 "set-up model fingerprint " + Hex(fp));
      state.model = std::move(*model);
    }
    state.setup_seconds.push_back(SecondsSince(t0));
  }
  return state;
}

// Repeated GmpSvmTrainer::Train runs on one data set; every run must give
// the same model bytes and the same simulated clock.
class TrainRuns {
 public:
  TrainRuns(const WorkloadConfig& config, const Dataset& train, int host_threads)
      : train_(train),
        options_(PaperTrainOptions(config.data)),
        device_(ScaledDeviceModel(config.data, host_threads)) {}

  // `record` false: a warm-up run whose time is not kept (its outputs are
  // still checked).
  void RunOnce(bool record = true) {
    SimExecutor exec(device_);
    MpTrainReport report;
    const Clock::time_point t0 = Clock::now();
    Result<MpSvmModel> model = GmpSvmTrainer(options_).Train(train_, &exec, &report);
    const double wall = SecondsSince(t0);
    ++attempted_;
    if (!model.ok()) {
      ++failed_;
      if (first_error_.empty()) first_error_ = model.status().ToString();
      return;
    }
    degraded_ += report.pairs_degraded;
    if (record) wall_.push_back(wall);
    const uint64_t fp = Fnv1a(SerializeModel(*model));
    if (!have_model_) {
      have_model_ = true;
      fingerprint_ = fp;
      report_ = report;
      model_ = std::move(*model);
    } else {
      fp_same_ = fp_same_ && fp == fingerprint_;
      sim_same_ = sim_same_ && report.sim_seconds == report_.sim_seconds &&
                  report.solver.iterations == report_.solver.iterations;
    }
  }

  bool ok() const { return have_model_; }
  const MpSvmModel& model() const { return model_; }
  const MpTrainReport& report() const { return report_; }
  uint64_t fingerprint() const { return fingerprint_; }
  const std::vector<double>& wall() const { return wall_; }

  void Finish(RunOutput* out) const {
    out->attempted += attempted_;
    out->failed += failed_ + degraded_;
    out->accounting["train"] = JsonObject()
                                   .Int("attempted", attempted_)
                                   .Int("succeeded", attempted_ - failed_)
                                   .Int("failed", failed_)
                                   .Int("degraded_pairs", degraded_)
                                   .Int("timed_runs", static_cast<int64_t>(wall_.size()))
                                   .Num("mean_s", Mean(wall_))
                                   .Num("median_s", Median(wall_))
                                   .Str("first_error", first_error_)
                                   .Build();
    out->Check("train.succeeded", ok() && failed_ == 0 && degraded_ == 0,
               first_error_.empty()
                   ? StrPrintf("%lld runs", static_cast<long long>(attempted_))
                   : first_error_);
    out->Check("train.model_fingerprint_repeats", fp_same_,
               "model fingerprint " + Hex(fingerprint_) + " on every repeat");
    out->Check("train.sim_clock_repeats", sim_same_,
               "simulated training time and iteration count identical on every repeat");
  }

 private:
  const Dataset& train_;
  MpTrainOptions options_;
  ExecutorModel device_;
  MpSvmModel model_;
  MpTrainReport report_;
  bool have_model_ = false;
  uint64_t fingerprint_ = 0;
  std::vector<double> wall_;
  int64_t attempted_ = 0, failed_ = 0, degraded_ = 0;
  bool fp_same_ = true, sim_same_ = true;
  std::string first_error_;
};

// Repeated offline MpSvmPredictor::Predict calls on one block of rows;
// every call must give the same probability bytes.
class PredictRuns {
 public:
  PredictRuns(std::string label, const MpSvmModel& model, const CsrMatrix& rows,
              const ExecutorModel& device, const PredictOptions& options)
      : label_(std::move(label)), model_(model), rows_(rows), device_(device),
        options_(options) {}

  // `record` false: a warm-up call whose time is not kept.
  void RunOnce(bool record = true) {
    SimExecutor exec(device_);
    const Clock::time_point t0 = Clock::now();
    Result<PredictResult> pred = MpSvmPredictor(&model_).Predict(rows_, &exec, options_);
    const double wall = SecondsSince(t0);
    ++attempted_;
    if (!pred.ok()) {
      ++failed_;
      if (first_error_.empty()) first_error_ = pred.status().ToString();
      return;
    }
    if (record) wall_.push_back(wall);
    const uint64_t fp = Fnv1a(pred->probabilities);
    if (!have_result_) {
      have_result_ = true;
      fingerprint_ = fp;
      first_ = std::move(*pred);
    } else {
      fp_same_ = fp_same_ && fp == fingerprint_;
    }
  }

  bool ok() const { return have_result_; }
  const PredictResult& first() const { return first_; }
  uint64_t fingerprint() const { return fingerprint_; }
  double RowsPerSecond() const {
    return static_cast<double>(rows_.rows()) / Mean(wall_);
  }
  double MedianSeconds() const { return Median(wall_); }

  void Finish(RunOutput* out) const {
    out->attempted += attempted_;
    out->failed += failed_;
    out->accounting[label_] = JsonObject()
                                  .Int("attempted", attempted_)
                                  .Int("succeeded", attempted_ - failed_)
                                  .Int("failed", failed_)
                                  .Int("rows_per_call", rows_.rows())
                                  .Int("timed_calls", static_cast<int64_t>(wall_.size()))
                                  .Num("mean_s", Mean(wall_))
                                  .Num("median_s", Median(wall_))
                                  .Str("first_error", first_error_)
                                  .Build();
    out->Check(label_ + ".succeeded", ok() && failed_ == 0,
               first_error_.empty()
                   ? StrPrintf("%lld calls", static_cast<long long>(attempted_))
                   : first_error_);
    out->Check(label_ + ".probability_fingerprint_repeats", fp_same_,
               "probability fingerprint " + Hex(fingerprint_) + " on every repeat");
    if (ok()) {
      double max_dev = 0.0;
      const bool valid = ProbabilitiesValid(first_.probabilities, model_.num_classes, &max_dev);
      out->Check(label_ + ".probabilities_valid", valid,
                 StrPrintf("every row finite, >= 0, |sum - 1| <= %.0e (max seen %.3e)",
                           kProbSumTolerance, max_dev));
    }
  }

 private:
  std::string label_;
  const MpSvmModel& model_;
  const CsrMatrix& rows_;
  ExecutorModel device_;
  PredictOptions options_;
  bool have_result_ = false;
  PredictResult first_;
  uint64_t fingerprint_ = 0;
  std::vector<double> wall_;
  int64_t attempted_ = 0, failed_ = 0;
  bool fp_same_ = true;
  std::string first_error_;
};

// Top-1 agreement of the cascade with exact prediction on the same rows.
void CascadeAgreement(const PredictResult& exact, const PredictResult& cascade,
                      RunOutput* out) {
  int64_t agree = 0;
  for (size_t i = 0; i < exact.labels.size(); ++i) {
    agree += exact.labels[i] == cascade.labels[i] ? 1 : 0;
  }
  out->check_detail["cascade.top1_agreement"] =
      StrPrintf("%lld / %zu rows (%.4f)", static_cast<long long>(agree),
                exact.labels.size(),
                static_cast<double>(agree) / static_cast<double>(exact.labels.size()));
}

// predict-largek: cascade.mode = kExact must be byte-identical to default
// options.
void CheckExplicitExact(const WorkloadConfig& config, const MpSvmModel& model,
                        const Dataset& test, const ExecutorModel& device,
                        const PredictResult& by_default, RunOutput* out) {
  if (config.name != "predict-largek") return;
  PredictOptions explicit_exact;
  explicit_exact.cascade.mode = CascadeOptions::Mode::kExact;
  SimExecutor exec(device);
  ++out->attempted;
  Result<PredictResult> pred =
      MpSvmPredictor(&model).Predict(test.features(), &exec, explicit_exact);
  if (!pred.ok()) ++out->failed;
  out->Check("predict.exact_mode_identical_to_default",
             pred.ok() && pred->labels == by_default.labels &&
                 pred->probabilities.size() == by_default.probabilities.size() &&
                 std::memcmp(pred->probabilities.data(), by_default.probabilities.data(),
                             by_default.probabilities.size() * sizeof(double)) == 0,
             "cascade.mode = kExact vs PredictOptions{} on the whole test set");
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Interleaves measured tasks over the window: each task runs once in list
// order, then whichever task is furthest behind its share of the time spent
// runs next. Every metric's samples so span the whole window, and a slow
// spell of the host touches all metrics alike instead of one phase.
struct Task {
  double weight = 0.0;
  // Runs the task once; `record` false for the untimed warm-up round.
  std::function<void(bool record)> run;
  double used = 0.0;
};

void RunInterleaved(std::vector<Task>& tasks, double seconds) {
  for (Task& task : tasks) task.run(false);
  const Clock::time_point start = Clock::now();
  auto run = [](Task& task) {
    const Clock::time_point t0 = Clock::now();
    task.run(true);
    task.used += SecondsSince(t0);
  };
  for (Task& task : tasks) run(task);
  while (SecondsSince(start) < seconds) {
    Task* next = nullptr;
    for (Task& task : tasks) {
      if (task.weight <= 0.0) continue;
      if (next == nullptr || task.used / task.weight < next->used / next->weight) {
        next = &task;
      }
    }
    if (next == nullptr) break;
    run(*next);
  }
}

// --- untraced run: end-to-end metrics --------------------------------------

// The first `n` rows of `m`: the block whose prediction is timed.
CsrMatrix HeadRows(const CsrMatrix& m, int64_t n) {
  CsrBuilder builder(m.cols());
  for (int64_t i = 0; i < std::min(n, m.rows()); ++i) {
    builder.AddRow(m.RowIndices(i), m.RowValues(i));
  }
  return ValueOrDie(builder.Finish());
}

// Quality metrics and checks from one exact prediction of the whole test
// set, whose probabilities also serve as the reference answers.
void QualityMetrics(const PredictResult& full, const Dataset& test, int k,
                    RunOutput* out) {
  out->Set("predict_sim_s", full.sim_seconds, "s");
  out->Set("test_logloss", ValueOrDie(LogLoss(full.probabilities, test.labels(), k)), "nats");
  out->Set("test_error", ValueOrDie(ErrorRate(full.labels, test.labels())), "ratio");
}

// The timed block's exact probabilities must be the first rows of the
// whole-set prediction, byte for byte (results do not depend on which rows
// share a tile).
void CheckBlockMatchesFull(const PredictResult& block, const PredictResult& full,
                           RunOutput* out) {
  out->Check("predict.timed_block_matches_full_prediction",
             block.probabilities.size() <= full.probabilities.size() &&
                 std::memcmp(block.probabilities.data(), full.probabilities.data(),
                             block.probabilities.size() * sizeof(double)) == 0,
             StrPrintf("%lld timed rows vs the same rows of the %lld-row prediction",
                       static_cast<long long>(block.num_instances),
                       static_cast<long long>(full.num_instances)));
}

void RunEndToEnd(const WorkloadConfig& config, const RunParams& params,
                 RunOutput* out) {
  SetupState setup = RunSetup(config, params, nullptr, out);
  if (setup.setup_seconds.size() != kSetupRepeats) return;
  out->Set("setup_s", Median(setup.setup_seconds), "s");

  const ExecutorModel device = ScaledDeviceModel(config.data, params.host_threads);
  const CsrMatrix block = HeadRows(setup.test.features(), config.timing_rows);
  TrainRuns train(config, setup.train, params.host_threads);
  // Prediction uses the set-up model, or else the first model the measured
  // training produced (all runs' models are byte-identical).
  const MpSvmModel* model = config.train_in_setup ? &setup.model : nullptr;
  std::optional<PredictRuns> full, exact, cascade;
  // Once a model exists: one untimed prediction of the whole test set
  // (quality metrics), then the timed predictors.
  auto ensure_model = [&]() -> bool {
    if (full) return full->ok();
    if (model == nullptr && train.ok()) model = &train.model();
    if (model == nullptr) return false;
    full.emplace("quality", *model, setup.test.features(), device, PredictOptions{});
    full->RunOnce();
    exact.emplace("predict", *model, block, device, PredictOptions{});
    cascade.emplace("cascade", *model, block, device, CascadePredictOptions());
    return full->ok();
  };
  const TaskMix& mix = config.mix;
  std::vector<Task> tasks = {
      {mix.train, [&](bool record) { train.RunOnce(record); }},
      {mix.predict, [&](bool record) { if (ensure_model()) exact->RunOnce(record); }},
      {mix.cascade, [&](bool record) { if (ensure_model()) cascade->RunOnce(record); }},
  };
  RunInterleaved(tasks, params.seconds);

  train.Finish(out);
  if (train.ok()) {
    out->Set("train_s", Mean(train.wall()), "s");
    out->Set("train_sim_s", train.report().sim_seconds, "s");
    if (config.train_in_setup) {
      out->Check("train.model_fingerprint_repeats",
                 Fnv1a(SerializeModel(setup.model)) == train.fingerprint(),
                 "set-up model equals the measured training runs' model");
    }
  }
  if (!full) return;
  full->Finish(out);
  exact->Finish(out);
  cascade->Finish(out);
  if (full->ok()) {
    QualityMetrics(full->first(), setup.test, model->num_classes, out);
    CheckExplicitExact(config, *model, setup.test, device, full->first(), out);
  }
  if (exact->ok() && cascade->ok()) {
    out->Set("predict_rows_per_s", exact->RowsPerSecond(), "1/s");
    out->Set("cascade_rows_per_s", cascade->RowsPerSecond(), "1/s");
    CheckBlockMatchesFull(exact->first(), full->first(), out);
    CascadeAgreement(exact->first(), cascade->first(), out);
  }
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
}

// --- traced run: per-layer metrics ------------------------------------------

void RunTraced(const WorkloadConfig& config, const RunParams& params,
               RunOutput* out) {
  Tracer tracer;
  SetupState setup = RunSetup(config, params, &tracer, out);
  if (setup.setup_seconds.size() != kSetupRepeats) return;
  const double parse_s = Median(setup.parse_seconds);
  out->Set("data.parse_s", parse_s, "s");
  out->Set("data.parse_rows_per_s", static_cast<double>(setup.parsed_rows) / parse_s, "1/s");

  const MpTrainOptions options = PaperTrainOptions(config.data);
  const ExecutorModel device = ScaledDeviceModel(config.data, params.host_threads);

  // Untraced reference training, then the traced replay of the same work.
  TrainRuns train(config, setup.train, params.host_threads);
  train.RunOnce();
  train.Finish(out);
  if (!train.ok()) return;
  ++out->attempted;
  Result<TrainReplay> replay = ReplayTraining(setup.train, options, device, &tracer);
  if (!replay.ok()) {
    ++out->failed;
    out->Check("replay.train", false, replay.status().ToString());
    return;
  }
  const uint64_t replay_fp = Fnv1a(SerializeModel(replay->model));
  out->Check("replay.train_model_identical", replay_fp == train.fingerprint(),
             "replayed model " + Hex(replay_fp) + " vs Train " + Hex(train.fingerprint()));
  out->Check("replay.train_iterations_match_report",
             replay->solver.iterations == train.report().solver.iterations,
             StrPrintf("replay %lld vs MpTrainReport %lld solver iterations",
                       static_cast<long long>(replay->solver.iterations),
                       static_cast<long long>(train.report().solver.iterations)));

  const double replay_s = replay->wall_seconds;
  const double kernel_s = tracer.TotalSeconds("kernel.rows");
  const double solver_self_s = tracer.SelfSeconds("solver.solve");
  const double platt_s = tracer.TotalSeconds("prob.platt");
  out->Set("train.replay_s", replay_s, "s");
  out->Set("train.kernel_share", kernel_s / replay_s, "ratio");
  out->Set("train.solver_share", solver_self_s / replay_s, "ratio");
  out->Set("train.prob_share", platt_s / replay_s, "ratio");
  out->Set("train.other_share", 1.0 - (kernel_s + solver_self_s + platt_s) / replay_s,
           "ratio");
  out->Set("trace.train_overhead_s", replay_s - train.wall().front(), "s");

  out->Set("kernel.busy_s", kernel_s, "s");
  out->Set("kernel.rows", static_cast<double>(replay->rows_requested), "count");
  out->Set("kernel.values_computed", static_cast<double>(replay->values_computed), "count");
  out->Set("kernel.values_reused", static_cast<double>(replay->values_reused), "count");
  out->Set("kernel.reuse_share",
           static_cast<double>(replay->values_reused) /
               static_cast<double>(std::max<int64_t>(
                   1, replay->values_computed + replay->values_reused)),
           "ratio");
  out->Set("kernel.ns_per_value",
           kernel_s * 1e9 / static_cast<double>(std::max<int64_t>(1, replay->values_computed)),
           "ns");
  out->Set("core.shared_hit_ratio",
           static_cast<double>(replay->cache_hits) /
               static_cast<double>(std::max<int64_t>(1, replay->cache_hits + replay->cache_misses)),
           "ratio");
  out->Set("solver.self_s", solver_self_s, "s");
  out->Set("solver.iterations", static_cast<double>(replay->solver.iterations), "count");
  out->Set("solver.outer_rounds", static_cast<double>(replay->solver.outer_rounds), "count");
  out->Set("solver.buffer_reuse_ratio",
           static_cast<double>(replay->solver.kernel_rows_reused) /
               static_cast<double>(std::max<int64_t>(
                   1, replay->solver.kernel_rows_computed + replay->solver.kernel_rows_reused)),
           "ratio");
  out->Set("prob.platt_s", platt_s, "s");

  const PhaseTimer& tp = train.report().phases;
  out->Set("device.train.kernel_values_s", tp.Get("kernel_values"), "s");
  out->Set("device.train.subproblem_s", tp.Get("subproblem"), "s");
  out->Set("device.train.other_s", tp.Get("other"), "s");
  out->Set("device.train.sigmoid_s", tp.Get("sigmoid"), "s");
  out->Set("device.peak_bytes", static_cast<double>(train.report().peak_device_bytes), "bytes");

  const MpSvmModel& model = config.train_in_setup ? setup.model : train.model();

  // Untraced whole-set prediction (reference bytes), exact and cascade
  // predictions of the timed block (offline service-time medians), then the
  // traced replay of the exact path over the whole set.
  const CsrMatrix block = HeadRows(setup.test.features(), config.timing_rows);
  PredictRuns full("quality", model, setup.test.features(), device, PredictOptions{});
  PredictRuns exact("predict", model, block, device, PredictOptions{});
  PredictRuns cascade("cascade", model, block, device, CascadePredictOptions());
  full.RunOnce();
  exact.RunOnce(false);
  cascade.RunOnce(false);
  for (int i = 0; i < 7; ++i) {
    exact.RunOnce();
    cascade.RunOnce();
  }
  full.Finish(out);
  exact.Finish(out);
  cascade.Finish(out);
  if (!full.ok() || !exact.ok() || !cascade.ok()) return;
  CheckExplicitExact(config, model, setup.test, device, full.first(), out);
  CheckBlockMatchesFull(exact.first(), full.first(), out);
  CascadeAgreement(exact.first(), cascade.first(), out);
  ++out->attempted;
  Result<PredictReplay> pred_replay =
      ReplayPrediction(model, setup.test.features(), device, &tracer);
  if (!pred_replay.ok()) {
    ++out->failed;
    out->Check("replay.predict", false, pred_replay.status().ToString());
    return;
  }
  const uint64_t replay_probs_fp = Fnv1a(pred_replay->probabilities);
  out->Check("replay.predict_probabilities_identical", replay_probs_fp == full.fingerprint(),
             "replayed probabilities " + Hex(replay_probs_fp) + " vs Predict " +
                 Hex(full.fingerprint()));
  const double rows = static_cast<double>(setup.test.size());
  out->Set("trace.predict_overhead_s", pred_replay->wall_seconds - full.MedianSeconds(), "s");
  out->Set("kernel.predict_busy_s", tracer.TotalSeconds("kernel.block"), "s");
  out->Set("core.decision_s", tracer.TotalSeconds("core.decision"), "s");
  out->Set("prob.sigmoid_s", tracer.TotalSeconds("prob.sigmoid"), "s");
  out->Set("prob.coupling_us_per_row", tracer.TotalSeconds("prob.coupling") * 1e6 / rows, "us");
  const PredictResult& c = cascade.first();
  out->Set("core.cascade_pairs_per_row",
           static_cast<double>(c.cascade_pairs_evaluated) /
               static_cast<double>(std::max<int64_t>(1, c.cascade_rows)),
           "count");
  out->Set("core.cascade_fallback_rate",
           static_cast<double>(c.cascade_fallback_rows) /
               static_cast<double>(std::max<int64_t>(1, c.cascade_rows)),
           "ratio");
  out->Set("core.cascade_exact_ratio", cascade.MedianSeconds() / exact.MedianSeconds(),
           "ratio");
  const PhaseTimer& pp = full.first().phases;
  out->Set("device.predict.decision_values_s", pp.Get("decision_values"), "s");
  out->Set("device.predict.sigmoid_s", pp.Get("sigmoid"), "s");
  out->Set("device.predict.coupling_s", pp.Get("coupling"), "s");
  out->Set("device.predict.elimination_s", c.phases.Get("elimination"), "s");

  ServeSession serve(config, model, setup.test.features(), full.first().probabilities);
  serve.RunTraced(&tracer, out);
  serve.Finish(out);

  out->layer_self_seconds = tracer.LayerSelfSeconds();
  out->trace_json = tracer.ToChromeJson(params.manifest_json);
}

}  // namespace

RunOutput RunWorkload(const WorkloadConfig& config, const RunParams& params) {
  RunOutput out;
  if (params.trace) {
    RunTraced(config, params, &out);
  } else {
    RunEndToEnd(config, params, &out);
  }
  return out;
}

}  // namespace perfbench
