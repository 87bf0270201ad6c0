// Vectorized byte-compare kernel for the post-mortem consistency scan.
//
// countDiffBytes(a, b, n) answers "how many bytes differ between these two
// buffers" — the inner operation of inconsistentBytes, executed once per
// dirty block per candidate object per capture. The kernel runs a memcmp
// prefilter first (most dirty blocks differ in zero bytes only when a flush
// raced the crash, but whole-block equality is common enough that libc's
// optimised compare pays for itself), then counts differing bytes 16 at a
// time in u8 lane counters (GCC/Clang vector extensions, which lower to
// baseline SSE2 on x86-64 and to generic code elsewhere) and finishes with a
// byte loop over the tail. One kernel serves every host, so the tests and
// the sanitizers run the code every campaign runs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace easycrash::memsim::scan {

/// Number of byte positions where a[i] != b[i], i in [0, n).
[[nodiscard]] std::uint64_t countDiffBytes(const std::uint8_t* a,
                                           const std::uint8_t* b,
                                           std::size_t n) noexcept;

}  // namespace easycrash::memsim::scan
