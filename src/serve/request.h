// Request/response types for the in-process inference service (src/serve).
//
// A PredictRequest is one sparse instance; the service coalesces many of
// them into tiles so the predictor's shared-SV kernel block (Section 3.3.3)
// is computed once per batch instead of once per request. Responses report,
// besides the coupled probabilities, how the request travelled through the
// pipeline (queue wait, batch it rode in) so clients and benchmarks can
// attribute latency.

#ifndef GMPSVM_SERVE_REQUEST_H_
#define GMPSVM_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"

namespace gmpsvm {

struct PredictRequest {
  // Sparse features, 0-based strictly increasing indices. Owned by the
  // request so the submitting thread may return immediately.
  std::vector<int32_t> indices;
  std::vector<double> values;

  // The request is dropped (kDeadlineExceeded) if still queued past this.
  Deadline deadline;

  // Registry name this request resolves against; empty uses the server's
  // configured default. Micro-batches are formed per model name, so one
  // batch always predicts against a single model snapshot even when a
  // multi-tenant fleet funnels many models through one queue.
  std::string model_name;
};

// A response only exists for a request that succeeded: failures
// (kDeadlineExceeded while queued, model errors, ...) travel as the error
// arm of the Result<PredictResponse> the client's future resolves to, using
// the same Status codes as the rest of the library. Rejections at admission
// time (kResourceExhausted) are reported from Submit() itself and never
// produce a future at all.
struct PredictResponse {
  // Coupled class probabilities (length k) and the argmax label.
  std::vector<double> probabilities;
  int32_t label = -1;

  // Version of the model that served the request (ModelRegistry versioning).
  int64_t model_version = 0;

  // Number of requests in the micro-batch this one rode in.
  int batch_size = 0;

  // Admission -> batch formation, and admission -> completion.
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
};

// Invoked exactly once with the request's terminal result, on the thread
// that fulfils it (a server worker), immediately before the promise is set.
// Lets a layer above the server (the fleet) account per-tenant outcomes
// without wrapping every future. May be empty.
using CompletionCallback =
    std::function<void(const Result<PredictResponse>&)>;

// A queued request: the client holds the future, the worker fulfils the
// promise. Movable only.
struct PendingRequest {
  PredictRequest request;
  std::promise<Result<PredictResponse>> promise;
  MonotonicTime enqueue_time;
  CompletionCallback on_complete;
};

// Every front end's Predict: the admission error, or the admitted request's
// terminal result, or kDeadlineExceeded once `deadline` passes. Waits in
// bounded slices: an infinite deadline's Remaining() overflows wait_for.
inline Result<PredictResponse> AwaitResponse(
    Result<std::future<Result<PredictResponse>>> admitted, Deadline deadline) {
  if (!admitted.ok()) return admitted.status();
  while (admitted->wait_for(deadline.BoundedRemaining(
             std::chrono::seconds(1))) != std::future_status::ready) {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("request deadline expired while waiting");
    }
  }
  return admitted->get();
}

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_REQUEST_H_
