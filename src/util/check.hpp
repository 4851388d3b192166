// Invariant-checking macros for the batching/tensor hot paths.
//
// Two tiers, mirroring the usual CHECK/DCHECK split:
//
//   * TCB_CHECK(cond, msg)  — always on, in every build type. For cheap
//     boundary conditions whose violation means a caller bug (bad geometry,
//     shape mismatch). Failure throws tcb::CheckError (an std::logic_error)
//     so tests can assert on it and serving code can surface it; it never
//     aborts the process.
//   * TCB_DCHECK(cond, msg) — compiled away unless TCB_ENABLE_DCHECKS is
//     defined (Debug builds and every sanitizer preset define it; see
//     cmake/Sanitizers.cmake). For per-element checks on hot loops — tensor
//     indexing, slot-offset math, mask construction — that are too hot to
//     validate in Release but exactly what ASan/TSan/UBSan runs should
//     exercise at full strength.
//
// Both expand to a single statement and evaluate `cond` exactly once (or not
// at all for disabled DCHECKs, which keep `cond` and `msg` only as
// unevaluated operands), so they are safe inside if/else without braces.
// The message is only formatted on failure.
#pragma once

#include <stdexcept>
#include <string>

namespace tcb {

/// Thrown by TCB_CHECK / TCB_DCHECK on violation.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::string what = "TCB_CHECK failed: ";
  what += expr;
  what += " at ";
  what += file;
  what += ":";
  what += std::to_string(line);
  if (!msg.empty()) {
    what += " — ";
    what += msg;
  }
  throw CheckError(what);
}

}  // namespace detail
}  // namespace tcb

#define TCB_CHECK(cond, msg)                                              \
  do {                                                                    \
    if (!(cond))                                                          \
      ::tcb::detail::check_failed(#cond, __FILE__, __LINE__, (msg));      \
  } while (false)

#if defined(TCB_ENABLE_DCHECKS)
#define TCB_DCHECK(cond, msg) TCB_CHECK(cond, msg)
#else
// Disabled form: the operands stay in the program as unevaluated sizeof
// operands, so variables that only a DCHECK reads (loop variables of a
// post-condition sweep) are still "used" under -Werror=unused-variable, and
// the expressions keep compiling, yet nothing runs.
#define TCB_DCHECK(cond, msg)  \
  do {                         \
    (void)sizeof(!(cond));     \
    (void)sizeof(msg);         \
  } while (false)
#endif
