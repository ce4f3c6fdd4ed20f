// Small numeric and output helpers shared by the benchmark's workloads.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
// Arithmetic mean of `values`; 0 when empty.
double Mean(const std::vector<double>& values);

// FNV-1a over raw bytes; fingerprints of models and probability blocks.
uint64_t Fnv1a(const void* data, size_t bytes);
inline uint64_t Fnv1a(const std::string& text) {
  return Fnv1a(text.data(), text.size());
}
inline uint64_t Fnv1a(std::span<const double> values) {
  return Fnv1a(values.data(), values.size() * sizeof(double));
}
std::string Hex(uint64_t value);

// JSON string literal with escaping.
std::string JsonString(const std::string& text);
// JSON number with all significant digits (non-finite values become null).
std::string JsonNumber(double value);

// Ordered JSON object builder (keys appear in insertion order).
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json);
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  std::string Build() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
