// FNV-1a over raw bytes: the library's one content-hash loop. Doubles hash by
// bit pattern. Callers pick the starting value, so fingerprints persisted by
// older builds (checkpoint directories, delta files, SV stores) keep
// matching.

#ifndef GMPSVM_COMMON_HASH_H_
#define GMPSVM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace gmpsvm {

// The standard 64-bit FNV offset basis.
inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ull;

// Folds `len` bytes at `data` into the running hash `h`.
inline uint64_t Fnv1a64(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_HASH_H_
