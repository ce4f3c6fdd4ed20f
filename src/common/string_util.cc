#include "common/string_util.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace gmpsvm {

std::vector<std::string_view> SplitTokens(std::string_view text,
                                          std::string_view delims) {
  std::vector<std::string_view> out;
  size_t begin = 0;
  while (begin < text.size()) {
    const size_t end = text.find_first_of(delims, begin);
    const size_t stop = (end == std::string_view::npos) ? text.size() : end;
    if (stop > begin) out.push_back(text.substr(begin, stop - begin));
    begin = stop + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  const char* ws = " \t\r\n";
  const size_t first = text.find_first_not_of(ws);
  if (first == std::string_view::npos) return {};
  const size_t last = text.find_last_not_of(ws);
  return text.substr(first, last - first + 1);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

namespace {

template <typename T>
bool ParseWithFromChars(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseInt32(std::string_view text, int32_t* out) {
  return ParseWithFromChars(text, out);
}

bool ParseInt64(std::string_view text, int64_t* out) {
  return ParseWithFromChars(text, out);
}

bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  if (!ParseWithFromChars(text, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::string HumanSeconds(double seconds) {
  if (seconds < 0) return "-" + HumanSeconds(-seconds);
  if (seconds < 1e-3) return StrPrintf("%.1f us", seconds * 1e6);
  if (seconds < 1.0) return StrPrintf("%.0f ms", seconds * 1e3);
  if (seconds < 120.0) return StrPrintf("%.2f s", seconds);
  if (seconds < 7200.0) return StrPrintf("%.1f min", seconds / 60.0);
  return StrPrintf("%.2f h", seconds / 3600.0);
}

std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  return StrPrintf(unit == 0 ? "%.0f %s" : "%.2f %s", bytes, units[unit]);
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? needed : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace gmpsvm
