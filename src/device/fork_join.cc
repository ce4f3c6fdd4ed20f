#include "device/fork_join.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace gmpsvm {

SimExecutor ForkSatellite(SimExecutor* main, StreamId main_stream,
                          ExecEventLog* log, ThreadPool* host_pool) {
  GMP_DCHECK(main->fault_injector() == nullptr);
  ExecutorModel model = main->model();
  // The satellite borrows the caller's pool (or runs inline); it must never
  // spawn its own threads per binary problem.
  model.host_threads = 1;
  SimExecutor satellite(std::move(model));
  satellite.external_pool_ = host_pool;
  satellite.streams_[0].unit_share = main->streams_[static_cast<size_t>(main_stream)].unit_share;
  satellite.streams_[0].ready_at = main->StreamTime(main_stream);
  // Seed the memory ledger so budget checks and the local peak see the same
  // occupancy a serial run would.
  satellite.counters_.bytes_in_use = main->bytes_in_use();
  satellite.counters_.peak_bytes_in_use = main->bytes_in_use();
  satellite.event_log_ = log;
  if (main->span_recorder() != nullptr) {
    // Client phase spans compute their lane as lane_base() + stream; with the
    // satellite's single stream 0, this base reproduces the mirrored
    // stream's lane on the main recorder.
    satellite.SetSpanRecorder(log, main->SpanLane(main_stream), 0);
  }
  return satellite;
}

void JoinSatellite(const ExecEventLog& log, const SimExecutor& satellite,
                   double satellite_base, SimExecutor* main,
                   StreamId main_stream) {
  const double offset = main->StreamTime(main_stream) - satellite_base;
  for (const ExecEvent& e : log.events()) {
    switch (e.kind) {
      case ExecEvent::Kind::kCharge:
        main->Charge(main_stream, e.cost);
        break;
      case ExecEvent::Kind::kTransfer:
        main->Transfer(main_stream, e.bytes, e.dir);
        break;
      case ExecEvent::Kind::kAdvance:
        main->AdvanceStream(main_stream, e.seconds,
                            e.label.empty() ? nullptr : e.label.c_str());
        break;
      case ExecEvent::Kind::kSpan:
        if (main->span_recorder() != nullptr) {
          obs::SpanEvent span = e.span;
          span.start_seconds += offset;
          span.end_seconds += offset;
          main->span_recorder()->RecordSpan(span);
        }
        break;
    }
  }
  ExecutorCounters& counters = main->counters();
  const ExecutorCounters& sat = satellite.counters();
  counters.kernel_values_computed += sat.kernel_values_computed;
  counters.kernel_values_reused += sat.kernel_values_reused;
  counters.allocation_failures += sat.allocation_failures;
  counters.peak_bytes_in_use =
      std::max(counters.peak_bytes_in_use, sat.peak_bytes_in_use);
}

ThreadPool* ResolveForkJoinPool(SimExecutor* executor, int host_threads,
                                std::unique_ptr<ThreadPool>* owned) {
  const int threads =
      host_threads > 0 ? host_threads : executor->model().host_threads;
  if (threads <= 1 || executor->fault_injector() != nullptr) return nullptr;
  ThreadPool* pool = executor->host_pool();
  if (pool != nullptr && pool->num_threads() == threads) return pool;
  *owned = std::make_unique<ThreadPool>(threads);
  return owned->get();
}

Status RunForkJoin(SimExecutor* executor, std::span<const StreamId> streams,
                   ThreadPool* pool, const ForkJoinTask& task,
                   const std::function<Status(size_t index)>& join) {
  const size_t n = streams.size();
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      GMP_RETURN_NOT_OK(task(i, executor, streams[i]));
      GMP_RETURN_NOT_OK(join(i));
    }
    return Status::OK();
  }
  // Satellites hold &logs[i], so both vectors are sized once, up front.
  std::vector<ExecEventLog> logs(n);
  std::vector<std::optional<SimExecutor>> satellites(n);
  std::vector<double> bases(n, 0.0);
  std::vector<Status> statuses(n);
  for (size_t i = 0; i < n; ++i) {
    satellites[i].emplace(ForkSatellite(executor, streams[i], &logs[i], pool));
    bases[i] = satellites[i]->StreamTime(kDefaultStream);
  }
  pool->ParallelFor(
      static_cast<int64_t>(n),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t k = static_cast<size_t>(i);
          statuses[k] = task(k, &*satellites[k], kDefaultStream);
        }
      },
      /*min_chunk=*/1);
  for (size_t i = 0; i < n; ++i) {
    JoinSatellite(logs[i], *satellites[i], bases[i], executor, streams[i]);
    GMP_RETURN_NOT_OK(statuses[i]);
    GMP_RETURN_NOT_OK(join(i));
  }
  return Status::OK();
}

}  // namespace gmpsvm
