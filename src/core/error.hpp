// Error handling helpers.
//
// Model-contract violations (an eviction of a page that is not present, a
// partition that starves a core, ...) are programming errors in the caller
// and throw ModelError; they are cheap to test and make misuse loud.  Hot
// inner-loop invariants use MCP_ASSERT, which compiles to a check in all
// build types (the simulator is an experiment platform; silent corruption
// would invalidate results).
//
// All three macros build their failure message under an AllocAllow
// (core/sentry.hpp): a contract failure inside an armed AllocGuard region
// reports its own message, not an allocation violation.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/sentry.hpp"

namespace mcp {

/// Thrown when a caller violates the paging-model contract.
class ModelError : public std::logic_error {
 public:
  explicit ModelError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when an input (trace file, instance description) is malformed.
class InputError : public std::runtime_error {
 public:
  explicit InputError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << "MCP_ASSERT failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw ModelError(os.str());
}
}  // namespace detail

}  // namespace mcp

/// Always-on invariant check.  `msg` may use stream syntax pieces already
/// formatted into a std::string by the caller.
#define MCP_ASSERT(expr)                                               \
  do {                                                                 \
    if (!(expr)) {                                                     \
      const ::mcp::AllocAllow mcp_alloc_allow_;                        \
      ::mcp::detail::assert_fail(#expr, __FILE__, __LINE__, {});       \
    }                                                                  \
  } while (false)

#define MCP_ASSERT_MSG(expr, msg)                                      \
  do {                                                                 \
    if (!(expr)) {                                                     \
      const ::mcp::AllocAllow mcp_alloc_allow_;                        \
      ::mcp::detail::assert_fail(#expr, __FILE__, __LINE__, (msg));    \
    }                                                                  \
  } while (false)

/// Contract check for public API entry points.
#define MCP_REQUIRE(expr, msg)                                         \
  do {                                                                 \
    if (!(expr)) {                                                     \
      const ::mcp::AllocAllow mcp_alloc_allow_;                        \
      throw ::mcp::ModelError(std::string("requirement failed: ") +    \
                              (msg));                                  \
    }                                                                  \
  } while (false)
