// Small string helpers shared by the I/O layer and the benchmark reporters.

#ifndef GMPSVM_COMMON_STRING_UTIL_H_
#define GMPSVM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gmpsvm {

// Splits on any char in `delims`, dropping empty tokens.
std::vector<std::string_view> SplitTokens(std::string_view text,
                                          std::string_view delims);

// Removes leading/trailing whitespace.
std::string_view StripWhitespace(std::string_view text);

// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Non-throwing numeric parsing: the whole token must be a valid in-range
// number. Returns false (leaving *out untouched) otherwise — unlike
// std::stol/std::stod these never throw on malformed or out-of-range input,
// which is what the I/O layer needs to turn arbitrary bytes into an error
// Status instead of a crash. ParseDouble also rejects the non-finite
// spellings from_chars accepts (nan, inf, infinity): no number a file
// format carries may be non-finite.
bool ParseInt32(std::string_view text, int32_t* out);
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseDouble(std::string_view text, double* out);

// Formats seconds with a sensible unit, e.g. "34.10 s", "927 ms", "2.0 h".
std::string HumanSeconds(double seconds);

// Formats byte counts, e.g. "11.9 GB", "512 KB".
std::string HumanBytes(double bytes);

// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_STRING_UTIL_H_
