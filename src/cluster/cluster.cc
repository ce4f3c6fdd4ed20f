#include "cluster/cluster.h"

#include <algorithm>

namespace gmpsvm::cluster {

SimCluster::SimCluster(std::vector<ExecutorModel> models) {
  devices_.reserve(models.size());
  for (ExecutorModel& model : models) {
    devices_.push_back(std::make_unique<SimExecutor>(std::move(model)));
  }
  topology_ = dist::ClusterTopology::SingleNode(num_devices());
}

SimCluster SimCluster::Homogeneous(int n, const ExecutorModel& model) {
  std::vector<ExecutorModel> models(static_cast<size_t>(std::max(n, 0)),
                                    model);
  return SimCluster(std::move(models));
}

SimCluster SimCluster::HomogeneousNodes(int nodes, int devices_per_node,
                                        const ExecutorModel& model,
                                        dist::LinkModel intra,
                                        dist::LinkModel inter) {
  SimCluster cluster =
      Homogeneous(std::max(nodes, 1) * std::max(devices_per_node, 1), model);
  cluster.topology_ = dist::ClusterTopology::Contiguous(
      std::max(nodes, 1), cluster.num_devices(), intra, inter);
  return cluster;
}

Status SimCluster::SetTopology(dist::ClusterTopology topology) {
  GMP_RETURN_NOT_OK(topology.Validate());
  if (topology.num_devices() != num_devices()) {
    return Status::InvalidArgument(
        "topology maps a different number of devices than the cluster has");
  }
  topology_ = std::move(topology);
  return Status::OK();
}

double SimCluster::speed(int d) const {
  const ExecutorModel& m = model(d);
  const double s = m.compute_units * m.flops_per_unit;
  return s > 0.0 ? s : 1.0;
}

std::vector<double> SimCluster::speeds() const {
  std::vector<double> out(devices_.size());
  for (int d = 0; d < num_devices(); ++d) out[static_cast<size_t>(d)] = speed(d);
  return out;
}

void SimCluster::SetSpanRecorder(obs::SpanRecorder* recorder) {
  constexpr int kBand = SimExecutor::kLaneBand;
  for (int d = 0; d < num_devices(); ++d) {
    device(d)->SetSpanRecorder(recorder, d * kBand, kBand);
  }
}

void SimCluster::SynchronizeAll() {
  for (std::unique_ptr<SimExecutor>& dev : devices_) dev->SynchronizeAll();
}

double SimCluster::MaxNowSeconds() const {
  double now = 0.0;
  for (const std::unique_ptr<SimExecutor>& dev : devices_) {
    now = std::max(now, dev->NowSeconds());
  }
  return now;
}

}  // namespace gmpsvm::cluster
