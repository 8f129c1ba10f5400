// Checked assertions that stay on in release builds.
//
// The algorithms in this library encode non-trivial graph/ILP invariants;
// silently violating one produces *wrong experimental numbers*, which is far
// worse than an abort. RS_REQUIRE therefore throws (recoverable, used for
// user-facing precondition violations), and RS_CHECK throws the same error
// for internal invariant corruption.
#pragma once

#include <stdexcept>
#include <string>

namespace rs::support {

/// Error thrown when a documented API precondition is violated.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

/// The message names the failed expression, not its source location: it
/// reaches clients verbatim (a result line's msg=), so it must not depend
/// on the build's checkout path or on where the check sits in its file.
[[noreturn]] inline void throw_precondition(const char* expr,
                                            const std::string& msg) {
  std::string what = std::string("precondition failed: ") + expr;
  if (!msg.empty()) what += " — " + msg;
  throw PreconditionError(what);
}

}  // namespace rs::support

/// Throws rs::support::PreconditionError when `cond` is false.
#define RS_REQUIRE(cond, msg)                                               \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::rs::support::throw_precondition(#cond, (msg));                      \
    }                                                                       \
  } while (false)

/// Internal invariant; cheap enough to keep enabled in all build types.
#define RS_CHECK(cond)                                                     \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::rs::support::throw_precondition(#cond,                             \
                                        "internal invariant violated");    \
    }                                                                      \
  } while (false)
