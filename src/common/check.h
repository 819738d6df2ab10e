#ifndef ROADPART_COMMON_CHECK_H_
#define ROADPART_COMMON_CHECK_H_

#include <sstream>
#include <string>

#include "common/status.h"

namespace roadpart {
namespace internal {

/// Prints the failure line ("RP_CHECK failed: <expr> ...") and aborts. The
/// optional `detail` carries stringified operand values for the binary forms
/// or the Status text for RP_CHECK_OK.
[[noreturn]] void CheckFailed(const char* expr, const char* file, int line);
[[noreturn]] void CheckFailed(const char* expr, const char* file, int line,
                              const std::string& detail);

/// Stringifies both operands of a failing binary comparison; kept out of line
/// so the fast path of the macros stays a single compare + branch.
template <typename A, typename B>
[[noreturn]] void CheckBinaryFailed(const char* expr, const char* file,
                                    int line, const A& a, const B& b) {
  std::ostringstream os;
  os << "(" << a << " vs " << b << ")";
  CheckFailed(expr, file, line, os.str());
}

/// Adapters so RP_CHECK_OK accepts both Status and Result<T>.
inline const Status& ToStatus(const Status& s) { return s; }
template <typename T>
Status ToStatus(const Result<T>& r) {
  return r.status();
}

}  // namespace internal

/// --- Contract macro tiers -------------------------------------------------
///
/// RP_CHECK*   : active in every build type. Use for cheap invariants whose
///               violation means memory is already (or is about to be)
///               corrupted: index bounds, size agreements, non-null results.
/// RP_DCHECK*  : compiled out only when NDEBUG is defined. Use for the
///               expensive structural validators (CsrGraph::Validate,
///               SparseMatrix invariants, partition-label scans). No build
///               type this repository configures defines NDEBUG: Release is
///               -O2 alone (the top-level and perfbench trees), and the
///               sanitizer trees of scripts/check.sh are Debug. So every
///               RP_DCHECK runs in shipped and benchmarked binaries too, e.g.
///               CsrGraph::Validate on each dual road graph (a few ms on
///               79k segments).
///
/// All failures abort with expression, location, and (for the binary and
/// _OK forms) the offending values, so a violated invariant produces a crash
/// at the contract boundary instead of a plausible-but-wrong partition.

#define RP_CHECK(cond)                                                   \
  (cond) ? (void)0                                                       \
         : ::roadpart::internal::CheckFailed(#cond, __FILE__, __LINE__)

#define RP_CHECK_BINARY_IMPL_(a, b, op)                                   \
  ((a)op(b)) ? (void)0                                                    \
             : ::roadpart::internal::CheckBinaryFailed(#a " " #op " " #b, \
                                                       __FILE__, __LINE__, \
                                                       (a), (b))

#define RP_CHECK_EQ(a, b) RP_CHECK_BINARY_IMPL_(a, b, ==)
#define RP_CHECK_NE(a, b) RP_CHECK_BINARY_IMPL_(a, b, !=)
#define RP_CHECK_LT(a, b) RP_CHECK_BINARY_IMPL_(a, b, <)
#define RP_CHECK_LE(a, b) RP_CHECK_BINARY_IMPL_(a, b, <=)
#define RP_CHECK_GT(a, b) RP_CHECK_BINARY_IMPL_(a, b, >)
#define RP_CHECK_GE(a, b) RP_CHECK_BINARY_IMPL_(a, b, >=)

/// Fatal unless `expr` (a Status or Result<T>) is OK; prints the status text.
#define RP_CHECK_OK(expr)                                                    \
  do {                                                                       \
    const ::roadpart::Status _rp_check_ok =                                  \
        ::roadpart::internal::ToStatus((expr));                              \
    if (!_rp_check_ok.ok()) {                                                \
      ::roadpart::internal::CheckFailed(#expr " is OK", __FILE__, __LINE__,  \
                                        _rp_check_ok.ToString());            \
    }                                                                        \
  } while (0)

#ifdef NDEBUG
#define RP_DCHECK_ENABLED 0
#else
#define RP_DCHECK_ENABLED 1
#endif

#if RP_DCHECK_ENABLED
#define RP_DCHECK(cond) RP_CHECK(cond)
#define RP_DCHECK_EQ(a, b) RP_CHECK_EQ(a, b)
#define RP_DCHECK_NE(a, b) RP_CHECK_NE(a, b)
#define RP_DCHECK_LT(a, b) RP_CHECK_LT(a, b)
#define RP_DCHECK_LE(a, b) RP_CHECK_LE(a, b)
#define RP_DCHECK_GT(a, b) RP_CHECK_GT(a, b)
#define RP_DCHECK_GE(a, b) RP_CHECK_GE(a, b)
#define RP_DCHECK_OK(expr) RP_CHECK_OK(expr)
#else
#define RP_DCHECK(cond) (void)0
#define RP_DCHECK_EQ(a, b) (void)0
#define RP_DCHECK_NE(a, b) (void)0
#define RP_DCHECK_LT(a, b) (void)0
#define RP_DCHECK_LE(a, b) (void)0
#define RP_DCHECK_GT(a, b) (void)0
#define RP_DCHECK_GE(a, b) (void)0
#define RP_DCHECK_OK(expr) (void)0
#endif

}  // namespace roadpart

#endif  // ROADPART_COMMON_CHECK_H_
