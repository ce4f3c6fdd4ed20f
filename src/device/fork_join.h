// Deterministic fork-join runner for host-parallel pair training.
//
// The trainers run independent binary problems — the k(k-1)/2 pairs of
// every pair loop and the k one-vs-all classes. RunForkJoin puts them on
// worker threads without losing byte-identical simulated time, counters,
// and traces: each task runs on a *satellite* executor — a private
// SimExecutor mirroring the task's stream of the main executor — that
// records every accounting action (Charge / Transfer / AdvanceStream /
// direct span recordings) into an ExecEventLog while the real numeric work
// executes concurrently. After the workers join, the logs are replayed onto
// the main executor serially, in task order. Replay re-executes each
// charge, so stream timelines, the floating-point counter accumulation
// order, and leaf trace spans come out bitwise-identical to a serial run;
// only the numeric results themselves were computed in parallel (on
// disjoint outputs).
//
// Satellites never carry a fault injector: ResolveForkJoinPool returns no
// pool for an executor with one, so chaos runs take the serial path, which
// keeps fault/RNG streams in task order and trivially thread-count
// invariant.

#ifndef GMPSVM_DEVICE_FORK_JOIN_H_
#define GMPSVM_DEVICE_FORK_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "device/executor.h"
#include "obs/span.h"

namespace gmpsvm {

class ThreadPool;

// One accounting action captured on a satellite executor.
struct ExecEvent {
  enum class Kind : uint8_t { kCharge, kTransfer, kAdvance, kSpan };
  Kind kind = Kind::kCharge;
  TaskCost cost;   // kCharge
  double bytes = 0.0;  // kTransfer
  TransferDirection dir = TransferDirection::kHostToDevice;  // kTransfer
  double seconds = 0.0;  // kAdvance
  std::string label;     // kAdvance (empty = unlabeled)
  obs::SpanEvent span;   // kSpan: a direct client RecordSpan (phase span)
};

// Ordered log of a satellite's accounting actions. Doubles as the
// satellite's SpanRecorder so client phase spans land in the same ordered
// stream as the charges they wrap. Used by one thread at a time; the
// fork/join protocol provides the cross-thread synchronization.
class ExecEventLog : public obs::SpanRecorder {
 public:
  void RecordSpan(const obs::SpanEvent& event) override {
    ExecEvent e;
    e.kind = ExecEvent::Kind::kSpan;
    e.span = event;
    events_.push_back(std::move(e));
  }

  void Append(ExecEvent event) { events_.push_back(std::move(event)); }
  const std::vector<ExecEvent>& events() const { return events_; }

 private:
  std::vector<ExecEvent> events_;
};

// Forks a satellite executor mirroring `main_stream` of `main`: same cost
// model, one stream (id 0) carrying the mirrored stream's unit share and
// current timeline position, the live bytes_in_use ledger (so allocation
// decisions match a serial run), `host_pool` borrowed for data-parallel op
// bodies (may be nullptr), and `log` attached. If `main` has a span
// recorder, the satellite forwards client phase spans into `log` with the
// lane already resolved to the mirrored stream's lane. The satellite must
// not outlive `main`, `log`, or `host_pool`, and must be used by a single
// thread. `main` must not have a fault injector attached.
SimExecutor ForkSatellite(SimExecutor* main, StreamId main_stream,
                          ExecEventLog* log, ThreadPool* host_pool);

// Replays `log` onto `main_stream` of `main` in recorded order, then merges
// the satellite-local counters that replay does not reconstruct (kernel
// values computed/reused, allocation failures, peak device memory). Client
// phase spans are re-emitted shifted by the difference between the live
// stream time and `satellite_base` — exactly zero when the stream has not
// advanced since the fork, as in per-stream trainer groups.
void JoinSatellite(const ExecEventLog& log, const SimExecutor& satellite,
                   double satellite_base, SimExecutor* main,
                   StreamId main_stream);

// The pool fork-join tasks on `executor` run on: `host_threads` workers (0
// inherits the executor model's host_threads), the executor's own host pool
// when its size matches, otherwise a pool parked in `owned`. Null — run
// serially — for one worker or when `executor` carries a fault injector.
ThreadPool* ResolveForkJoinPool(SimExecutor* executor, int host_threads,
                                std::unique_ptr<ThreadPool>* owned);

// One task of RunForkJoin: runs on (`executor`, `stream`), which is the main
// executor and the task's stream when serial, its satellite and stream 0
// when parallel.
using ForkJoinTask =
    std::function<Status(size_t index, SimExecutor* executor, StreamId stream)>;

// Runs task(i) for i in [0, streams.size()), each on stream streams[i] of
// `executor`, and join(i) after each in index order. With no `pool` the
// tasks run serially on `executor`. With a pool they run concurrently on
// satellites, which are replayed in index order before each join. The first
// failing task or join stops the run and its status is returned; the events
// of later tasks are discarded, exactly where a serial run would have
// stopped. Tasks must write disjoint outputs; joins run on the caller's
// thread.
Status RunForkJoin(SimExecutor* executor, std::span<const StreamId> streams,
                   ThreadPool* pool, const ForkJoinTask& task,
                   const std::function<Status(size_t index)>& join);

}  // namespace gmpsvm

#endif  // GMPSVM_DEVICE_FORK_JOIN_H_
