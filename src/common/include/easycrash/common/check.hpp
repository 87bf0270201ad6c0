// Lightweight precondition / invariant checking.
//
// EC_CHECK is always on (simulator correctness depends on it); failures throw
// std::logic_error so crash-test campaigns can distinguish simulator bugs from
// simulated application failures (which use their own exception types).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string_view>

namespace easycrash {

/// The failure path of EC_CHECK / EC_CHECK_MSG, kept out of line and cold so
/// a check in a hot inline accessor costs its compare and one call
/// instruction: no message temporary is built at the call site, and the
/// check does not count against the inliner's budget of the function it
/// sits in.
[[noreturn, gnu::cold, gnu::noinline]] inline void checkFailed(
    const char* expr, const char* file, int line, std::string_view message = {}) {
  std::ostringstream os;
  os << "EC_CHECK failed: " << expr << " at " << file << ':' << line;
  if (!message.empty()) os << " — " << message;
  throw std::logic_error(os.str());
}

}  // namespace easycrash

#define EC_CHECK(expr)                                              \
  do {                                                              \
    if (!(expr)) ::easycrash::checkFailed(#expr, __FILE__, __LINE__); \
  } while (false)

#define EC_CHECK_MSG(expr, msg)                                             \
  do {                                                                      \
    if (!(expr)) ::easycrash::checkFailed(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

// Debug-only variants for checks on hot paths (e.g. counter monotonicity in
// MemEvents::delta): active in Debug builds, compiled out under NDEBUG.
#ifndef NDEBUG
#define EC_DCHECK(expr) EC_CHECK(expr)
#define EC_DCHECK_MSG(expr, msg) EC_CHECK_MSG(expr, msg)
#else
#define EC_DCHECK(expr) static_cast<void>(0)
#define EC_DCHECK_MSG(expr, msg) static_cast<void>(0)
#endif
