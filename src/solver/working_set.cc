#include "solver/working_set.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace gmpsvm {

BinarySolution FinishBinarySolution(std::vector<double> alpha,
                                    std::vector<double> f,
                                    std::span<const int8_t> y,
                                    std::span<const double> c) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double sum_free = 0.0;
  int64_t num_free = 0;
  double f_up_min = kInf, f_low_max = -kInf;
  for (size_t i = 0; i < alpha.size(); ++i) {
    const double a = alpha[i];
    const double fi = f[i];
    if (a > 0 && a < c[i]) {
      sum_free += fi;
      ++num_free;
    }
    if (InUpSet(y[i], a, c[i])) f_up_min = std::min(f_up_min, fi);
    if (InLowSet(y[i], a, c[i])) f_low_max = std::max(f_low_max, fi);
  }
  const double rho = num_free > 0 ? sum_free / static_cast<double>(num_free)
                                  : (f_up_min + f_low_max) / 2.0;

  double objective = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    objective += alpha[i] * (y[i] * f[i] - 1.0);
  }

  BinarySolution solution;
  solution.alpha = std::move(alpha);
  solution.bias = -rho;
  solution.objective = -0.5 * objective;
  solution.f = std::move(f);
  return solution;
}

WorkingSetSelector::WorkingSetSelector(const WorkingSetConfig& config, int64_t n)
    : drop_policy_(config.drop_policy), n_(n) {
  ws_size_ = static_cast<int>(std::min<int64_t>(std::max(2, config.ws_size), n));
  q_ = std::clamp(config.q, 2, ws_size_);
  sorted_.resize(static_cast<size_t>(n));
  std::iota(sorted_.begin(), sorted_.end(), 0);
}

const std::vector<int32_t>& WorkingSetSelector::Update(std::span<const double> f,
                                                       std::span<const double> alpha,
                                                       std::span<const int8_t> y,
                                                       std::span<const double> c) {
  // Sort all instances by optimality indicator ascending (the paper sorts f
  // and picks from both ends). Ties break on the index so the order is a
  // TOTAL order: the distributed refresh reproduces this exact sequence from
  // per-shard candidate lists, which a tie order depending on the previous
  // sort's layout would make impossible.
  std::sort(sorted_.begin(), sorted_.end(), [&f](int32_t a, int32_t b) {
    if (f[a] != f[b]) return f[a] < f[b];
    return a < b;
  });

  if (members_.empty()) {
    Admit(ws_size_, f, alpha, y, c);
    return members_;
  }

  const int refresh = std::min<int>(q_, static_cast<int>(members_.size()));
  Drop(refresh, f, alpha, y, c);
  const int added = Admit(ws_size_ - static_cast<int>(members_.size()), f, alpha, y, c);
  (void)added;
  return members_;
}

namespace {

// The total orders the shard lists and the merged admit scan share with
// Update()'s full sort. `low` order is the exact reverse of the `up` order,
// matching Admit()'s reversed iteration over the ascending sort.
struct UpOrder {
  std::span<const double> f;
  bool operator()(int32_t a, int32_t b) const {
    if (f[a] != f[b]) return f[a] < f[b];
    return a < b;
  }
};
struct LowOrder {
  std::span<const double> f;
  bool operator()(int32_t a, int32_t b) const {
    if (f[a] != f[b]) return f[a] > f[b];
    return a > b;
  }
};

}  // namespace

int WorkingSetSelector::BeginDistributedRefresh() {
  GMP_DCHECK(drop_policy_ == WorkingSetConfig::DropPolicy::kOldest);
  if (!members_.empty()) {
    const int refresh = std::min<int>(q_, static_cast<int>(members_.size()));
    Drop(refresh, {}, {}, {}, {});
  }
  return ws_size_ - static_cast<int>(members_.size());
}

WorkingSetSelector::ShardCandidates WorkingSetSelector::CollectShardCandidates(
    int64_t begin, int64_t end, int needed, std::span<const double> f,
    std::span<const double> alpha, std::span<const int8_t> y,
    std::span<const double> c) const {
  ShardCandidates out;
  if (needed <= 0) return out;
  for (int64_t i = begin; i < end; ++i) {
    const auto idx = static_cast<int32_t>(i);
    if (member_set_.count(idx) != 0) continue;
    if (InUpSet(y[i], alpha[i], c[i])) out.up.push_back(idx);
    if (InLowSet(y[i], alpha[i], c[i])) out.low.push_back(idx);
  }
  std::sort(out.up.begin(), out.up.end(), UpOrder{f});
  if (static_cast<int>(out.up.size()) > needed) {
    out.up.resize(static_cast<size_t>(needed));
  }
  std::sort(out.low.begin(), out.low.end(), LowOrder{f});
  if (static_cast<int>(out.low.size()) > needed) {
    out.low.resize(static_cast<size_t>(needed));
  }
  return out;
}

const std::vector<int32_t>& WorkingSetSelector::FinishDistributedRefresh(
    std::span<const ShardCandidates> shards, std::span<const double> f,
    std::span<const double> alpha, std::span<const int8_t> y,
    std::span<const double> c) {
  const int count = ws_size_ - static_cast<int>(members_.size());
  if (count <= 0) return members_;

  // Merge the shard lists into one globally ordered sequence per side. Shard
  // ranges are disjoint and the order is total, so the merged sequence is
  // the full sort restricted to the shard-collected candidates.
  std::vector<int32_t> up;
  std::vector<int32_t> low;
  for (const ShardCandidates& shard : shards) {
    up.insert(up.end(), shard.up.begin(), shard.up.end());
    low.insert(low.end(), shard.low.begin(), shard.low.end());
  }
  std::sort(up.begin(), up.end(), UpOrder{f});
  std::sort(low.begin(), low.end(), LowOrder{f});

  // From here the admit scan mirrors Admit() over the merged sequences.
  const int half = count / 2;
  int added = 0;
  const auto admit = [this](int32_t i) {
    members_.push_back(i);
    member_set_.insert(i);
    insertion_order_.push_back(i);
  };

  int up_added = 0;
  for (size_t k = 0; k < up.size() && up_added < half; ++k) {
    const int32_t i = up[k];
    if (member_set_.count(i) != 0) continue;
    if (!InUpSet(y[i], alpha[i], c[i])) continue;
    admit(i);
    ++up_added;
    ++added;
  }

  const int low_target = count - up_added;
  int low_added = 0;
  for (size_t k = 0; k < low.size() && low_added < low_target; ++k) {
    const int32_t i = low[k];
    if (member_set_.count(i) != 0) continue;
    if (!InLowSet(y[i], alpha[i], c[i])) continue;
    admit(i);
    ++low_added;
    ++added;
  }

  if (added < count) {
    for (size_t k = 0; k < up.size() && added < count; ++k) {
      const int32_t i = up[k];
      if (member_set_.count(i) != 0) continue;
      if (!InUpSet(y[i], alpha[i], c[i])) continue;
      admit(i);
      ++added;
    }
  }
  return members_;
}

void WorkingSetSelector::Drop(int count, std::span<const double> f,
                              std::span<const double> alpha,
                              std::span<const int8_t> y, std::span<const double> c) {
  count = std::min<int>(count, static_cast<int>(members_.size()));
  if (count <= 0) return;

  std::unordered_set<int32_t> to_drop;
  if (drop_policy_ == WorkingSetConfig::DropPolicy::kOldest) {
    while (static_cast<int>(to_drop.size()) < count && !insertion_order_.empty()) {
      int32_t oldest = insertion_order_.front();
      insertion_order_.pop_front();
      if (member_set_.count(oldest) != 0) to_drop.insert(oldest);
    }
  } else {
    // Violation score: how far the member sticks out past the opposite
    // extreme; non-violating members score lowest and leave first.
    double f_up_min = std::numeric_limits<double>::infinity();
    double f_low_max = -std::numeric_limits<double>::infinity();
    for (int64_t i = 0; i < n_; ++i) {
      if (InUpSet(y[i], alpha[i], c[i])) f_up_min = std::min(f_up_min, f[i]);
      if (InLowSet(y[i], alpha[i], c[i])) f_low_max = std::max(f_low_max, f[i]);
    }
    std::vector<std::pair<double, int32_t>> scored;
    scored.reserve(members_.size());
    for (int32_t m : members_) {
      double score = -std::numeric_limits<double>::infinity();
      if (InUpSet(y[m], alpha[m], c[m])) score = std::max(score, f_low_max - f[m]);
      if (InLowSet(y[m], alpha[m], c[m])) score = std::max(score, f[m] - f_up_min);
      scored.emplace_back(score, m);
    }
    std::nth_element(scored.begin(), scored.begin() + count - 1, scored.end());
    for (int i = 0; i < count; ++i) to_drop.insert(scored[static_cast<size_t>(i)].second);
  }

  std::vector<int32_t> kept;
  kept.reserve(members_.size() - to_drop.size());
  for (int32_t m : members_) {
    if (to_drop.count(m) == 0) kept.push_back(m);
  }
  members_ = std::move(kept);
  for (int32_t d : to_drop) member_set_.erase(d);
}

int WorkingSetSelector::Admit(int count, std::span<const double> f,
                              std::span<const double> alpha,
                              std::span<const int8_t> y, std::span<const double> c) {
  (void)f;  // ordering already captured in sorted_
  if (count <= 0) return 0;
  const int half = count / 2;
  int added = 0;

  // Up side: smallest f whose y*alpha can increase.
  int up_added = 0;
  for (size_t k = 0; k < sorted_.size() && up_added < half; ++k) {
    const int32_t i = sorted_[k];
    if (member_set_.count(i) != 0) continue;
    if (!InUpSet(y[i], alpha[i], c[i])) continue;
    members_.push_back(i);
    member_set_.insert(i);
    insertion_order_.push_back(i);
    ++up_added;
    ++added;
  }

  // Low side: largest f whose y*alpha can decrease; fill any up-side deficit.
  const int low_target = count - up_added;
  int low_added = 0;
  for (size_t k = sorted_.size(); k-- > 0 && low_added < low_target;) {
    const int32_t i = sorted_[k];
    if (member_set_.count(i) != 0) continue;
    if (!InLowSet(y[i], alpha[i], c[i])) continue;
    members_.push_back(i);
    member_set_.insert(i);
    insertion_order_.push_back(i);
    ++low_added;
    ++added;
  }

  // If the low side ran dry, top up from the up side.
  if (added < count) {
    for (size_t k = 0; k < sorted_.size() && added < count; ++k) {
      const int32_t i = sorted_[k];
      if (member_set_.count(i) != 0) continue;
      if (!InUpSet(y[i], alpha[i], c[i])) continue;
      members_.push_back(i);
      member_set_.insert(i);
      insertion_order_.push_back(i);
      ++added;
    }
  }
  return added;
}

}  // namespace gmpsvm
