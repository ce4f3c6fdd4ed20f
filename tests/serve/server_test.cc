// End-to-end tests for the inference service: batching correctness
// (bit-identical to the offline predictor), admission control, deadlines,
// graceful drain, and model hot-swap under live traffic.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "core/mp_trainer.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;
using std::chrono::microseconds;
using std::chrono::milliseconds;

MpSvmModel TrainSmallModel(uint64_t seed, int k = 3) {
  auto data = ValueOrDie(MakeMulticlassBlobs(k, 20, 6, 2.5, seed));
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

struct ServerFixture {
  Dataset test;
  ModelRegistry registry;
  std::unique_ptr<InferenceServer> server;

  explicit ServerFixture(ServeOptions options, uint64_t seed = 42) {
    test = ValueOrDie(MakeMulticlassBlobs(3, 25, 6, 2.5, seed + 1));
    ValueOrDie(registry.Register(options.model_name, TrainSmallModel(seed)));
    server = std::make_unique<InferenceServer>(&registry, options);
    GMP_CHECK_OK(server->Start());
  }

  std::future<Result<PredictResponse>> SubmitRow(int64_t row) {
    const CsrMatrix& m = test.features();
    return ValueOrDie(server->Submit(m.RowIndices(row), m.RowValues(row)));
  }
};

// Offline reference for the same rows, same predict options.
PredictResult DirectPredict(const ModelRegistry& registry,
                            const std::string& name, const CsrMatrix& rows,
                            const PredictOptions& options) {
  auto handle = ValueOrDie(registry.Get(name));
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(MpSvmPredictor(handle.model.get())
                        .Predict(rows, &exec, options));
}

TEST(InferenceServerTest, ServesSingleRequest) {
  ServeOptions options;
  ServerFixture fx(options);
  PredictResponse response = ValueOrDie(fx.SubmitRow(0).get());
  EXPECT_EQ(response.probabilities.size(), 3u);
  EXPECT_GE(response.label, 0);
  EXPECT_LT(response.label, 3);
  EXPECT_EQ(response.model_version, 1);
  EXPECT_GE(response.batch_size, 1);
}

TEST(InferenceServerTest, ResultsBitIdenticalToDirectPredict) {
  ServeOptions options;
  options.num_workers = 3;
  options.batching.max_batch_size = 16;
  options.batching.max_queue_delay = milliseconds(5);
  ServerFixture fx(options);

  const int64_t n = fx.test.size();
  std::vector<std::future<Result<PredictResponse>>> futures;
  futures.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) futures.push_back(fx.SubmitRow(i));

  const PredictResult reference = DirectPredict(
      fx.registry, options.model_name, fx.test.features(), options.predict);

  for (int64_t i = 0; i < n; ++i) {
    PredictResponse response = ValueOrDie(futures[static_cast<size_t>(i)].get());
    EXPECT_EQ(response.label, reference.labels[static_cast<size_t>(i)]);
    ASSERT_EQ(response.probabilities.size(), 3u);
    for (int c = 0; c < 3; ++c) {
      // Bit-identical, not approximately equal: batching must not change
      // the math.
      EXPECT_EQ(response.probabilities[static_cast<size_t>(c)],
                reference.Probability(i, c))
          << "row " << i << " class " << c;
    }
  }
}

TEST(InferenceServerTest, BacklogCoalescesIntoBatches) {
  ServeOptions options;
  options.num_workers = 1;
  options.batching.max_batch_size = 16;
  options.batching.max_queue_delay = milliseconds(20);
  ServerFixture fx(options);

  // Build the backlog while consumption is gated, then release: the worker
  // must drain it in multi-request tiles, not one by one.
  fx.server->Pause();
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 32; ++i) futures.push_back(fx.SubmitRow(i));
  fx.server->Resume();
  int max_batch_seen = 0;
  for (auto& f : futures) {
    PredictResponse response = ValueOrDie(f.get());
    max_batch_seen = std::max(max_batch_seen, response.batch_size);
  }
  EXPECT_GT(max_batch_seen, 1);
  const ServeStatsSnapshot snap = fx.server->stats().Snapshot();
  EXPECT_EQ(snap.completed, 32u);
  EXPECT_LT(snap.batches, 32u);  // strictly fewer Predict calls than requests
  EXPECT_GT(snap.mean_batch_size, 1.0);
}

TEST(InferenceServerTest, QueueOverflowRejectsWithResourceExhausted) {
  ServeOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  ServerFixture fx(options);

  fx.server->Pause();  // nothing drains: overflow is deterministic
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 4; ++i) futures.push_back(fx.SubmitRow(i));
  const CsrMatrix& m = fx.test.features();
  auto overflow = fx.server->Submit(m.RowIndices(4), m.RowValues(4));
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted())
      << overflow.status().ToString();

  // Every *accepted* request still completes.
  fx.server->Resume();
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
  const ServeStatsSnapshot snap = fx.server->stats().Snapshot();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.completed, 4u);
}

TEST(InferenceServerTest, ShutdownDrainsAcceptedRequests) {
  ServeOptions options;
  options.num_workers = 2;
  options.batching.max_batch_size = 4;
  ServerFixture fx(options);

  fx.server->Pause();  // hold the backlog so Shutdown itself must drain it
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 24; ++i) futures.push_back(fx.SubmitRow(i));
  GMP_CHECK_OK(fx.server->Shutdown());

  // No accepted request is lost: every future resolves OK.
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
  const ServeStatsSnapshot snap = fx.server->stats().Snapshot();
  EXPECT_EQ(snap.completed, 24u);

  // After shutdown, admission fails cleanly.
  auto late = fx.server->Submit(fx.test.features().RowIndices(0),
                                fx.test.features().RowValues(0));
  EXPECT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsFailedPrecondition());
}

TEST(InferenceServerTest, ExpiredRequestsGetDeadlineExceeded) {
  ServeOptions options;
  options.num_workers = 1;
  ServerFixture fx(options);

  fx.server->Pause();
  const CsrMatrix& m = fx.test.features();
  auto doomed = ValueOrDie(fx.server->Submit(m.RowIndices(0), m.RowValues(0),
                                             Deadline::After(microseconds(1))));
  auto healthy = fx.SubmitRow(1);
  std::this_thread::sleep_for(milliseconds(10));  // let the deadline lapse
  fx.server->Resume();

  auto doomed_response = doomed.get();
  EXPECT_TRUE(doomed_response.status().IsDeadlineExceeded())
      << doomed_response.status().ToString();
  GMP_CHECK_OK(healthy.get().status());
  EXPECT_EQ(fx.server->stats().Snapshot().expired, 1u);
}

TEST(InferenceServerTest, MalformedRowRejectedAtAdmission) {
  ServeOptions options;
  ServerFixture fx(options);
  const std::vector<int32_t> bad_order{3, 1};
  const std::vector<double> vals{1.0, 2.0};
  auto r1 = fx.server->Submit(bad_order, vals);
  EXPECT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument());
  const std::vector<int32_t> one{0};
  auto r2 = fx.server->Submit(one, vals);  // size mismatch
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsInvalidArgument());
}

TEST(InferenceServerTest, NonFiniteValueRejectedAtAdmission) {
  ServeOptions options;
  ServerFixture fx(options);
  const std::vector<int32_t> indices{0, 2, 4};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int expected_rejected = 0;
  for (const double bad : {nan, inf, -inf}) {
    const std::vector<double> vals{0.5, bad, 1.0};
    auto submitted = fx.server->Submit(indices, vals);
    ASSERT_FALSE(submitted.ok()) << bad;
    EXPECT_TRUE(submitted.status().IsInvalidArgument()) << bad;
    // The error names the offending value's position in the row.
    EXPECT_NE(submitted.status().message().find("position 1"),
              std::string::npos)
        << submitted.status().message();
    EXPECT_EQ(fx.server->stats().Snapshot().rejected,
              static_cast<uint64_t>(++expected_rejected));
  }
  // No future was created for the rejected rows: nothing was queued.
  EXPECT_EQ(fx.server->stats().Snapshot().admitted, 0u);
  EXPECT_EQ(fx.server->queue_depth(), 0u);
}

TEST(InferenceServerTest, OutOfRangeFeatureFailsOnlyThatRequest) {
  ServeOptions options;
  options.num_workers = 1;
  options.batching.max_batch_size = 8;
  options.batching.max_queue_delay = milliseconds(20);
  ServerFixture fx(options);

  // Index past the model's dimensionality passes admission (the model is
  // resolved per batch) but must fail prediction for this request alone.
  fx.server->Pause();
  const std::vector<int32_t> oob{1000000};
  const std::vector<double> val{1.0};
  auto bad = ValueOrDie(fx.server->Submit(oob, val));
  auto good = fx.SubmitRow(0);
  fx.server->Resume();

  EXPECT_FALSE(bad.get().ok());
  GMP_CHECK_OK(good.get().status());
}

TEST(InferenceServerTest, HotSwapTakesEffectOnLaterRequests) {
  ServeOptions options;
  options.num_workers = 1;
  ServerFixture fx(options);

  GMP_CHECK_OK(fx.SubmitRow(0).get().status());
  ValueOrDie(fx.registry.Register(options.model_name, TrainSmallModel(7)));
  PredictResponse response = ValueOrDie(fx.SubmitRow(1).get());
  EXPECT_EQ(response.model_version, 2);
}

TEST(InferenceServerTest, MissingModelFailsRequestsNotServer) {
  ModelRegistry registry;  // nothing registered
  ServeOptions options;
  InferenceServer server(&registry, options);
  GMP_CHECK_OK(server.Start());
  const std::vector<int32_t> idx{0};
  const std::vector<double> val{1.0};
  auto response = ValueOrDie(server.Submit(idx, val)).get();
  EXPECT_TRUE(response.status().IsFailedPrecondition())
      << response.status().ToString();
  GMP_CHECK_OK(server.Shutdown());
}

TEST(InferenceServerTest, ConcurrentClientsAllServedCorrectly) {
  ServeOptions options;
  options.num_workers = 4;
  options.batching.max_batch_size = 8;
  options.batching.max_queue_delay = microseconds(200);
  ServerFixture fx(options);

  const PredictResult reference = DirectPredict(
      fx.registry, options.model_name, fx.test.features(), options.predict);

  constexpr int kClients = 8;
  constexpr int kPerClient = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t row = (c * kPerClient + r) % fx.test.size();
        auto result = fx.server->Predict(fx.test.features().RowIndices(row),
                                         fx.test.features().RowValues(row));
        if (!result.ok() ||
            result->label != reference.labels[static_cast<size_t>(row)]) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServeStatsSnapshot snap = fx.server->stats().Snapshot();
  EXPECT_EQ(snap.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_GT(snap.throughput_rps, 0.0);
}

TEST(InferenceServerTest, PublishesMetricsAndSpansWhenConfigured) {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  ServeOptions options;
  options.num_workers = 2;
  options.batching.max_batch_size = 8;
  options.batching.max_queue_delay = milliseconds(2);
  options.metrics = &metrics;
  options.trace = &trace;
  ServerFixture fx(options);

  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int64_t i = 0; i < 8; ++i) futures.push_back(fx.SubmitRow(i));
  for (auto& f : futures) GMP_CHECK_OK(f.get().status());
  GMP_CHECK_OK(fx.server->Shutdown());

  // ServeStats is a view over the shared registry: the serving series and
  // the per-worker device counters land in the same Prometheus dump.
  const std::string text = metrics.ToPrometheusText();
  EXPECT_NE(text.find("gmpsvm_serve_admitted_total 8"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gmpsvm_serve_latency_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("gmpsvm_device_launches_total{worker="),
            std::string::npos)
      << text;

  // Host spans cover the request path: queue_wait and predict per batch.
  bool saw_queue_wait = false, saw_predict = false;
  for (const auto& e : trace.events()) {
    if (e.origin != obs::SpanEvent::Origin::kHost) continue;
    if (e.name == "queue_wait") saw_queue_wait = true;
    if (e.name.rfind("predict", 0) == 0) saw_predict = true;
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_predict);
}

TEST(InferenceServerTest, StartTwiceFails) {
  ServeOptions options;
  ServerFixture fx(options);
  EXPECT_TRUE(fx.server->Start().IsFailedPrecondition());
  GMP_CHECK_OK(fx.server->Shutdown());
  GMP_CHECK_OK(fx.server->Shutdown());  // idempotent
}

}  // namespace
}  // namespace gmpsvm
