// Text serialization of multicore request traces.
//
// Format ("mcptrace v1"): a line-oriented format that is diff-friendly and
// easy to generate from external tools (e.g. Pin/Valgrind post-processing):
//
//   # comments and blank lines are ignored
//   mcptrace 1
//   cores <p>
//   seq <core> <n> <page_0> <page_1> ... <page_{n-1}>
//
// One `seq` line per core, in any order; every core in [0, p) must appear
// exactly once (empty sequences use n=0).  Both loaders reject page ids at
// or above kInputPageBound (2^24) and more than kMaxInputCores (2^16)
// cores, and size nothing from a declared count alone.
#pragma once

#include <iosfwd>
#include <string>

#include "core/request.hpp"

namespace mcp {

/// Writes `requests` to `os` in mcptrace v1 format.
void write_trace(std::ostream& os, const RequestSet& requests);

/// Parses an mcptrace v1 document.  Throws InputError on malformed input.
[[nodiscard]] RequestSet read_trace(std::istream& is);

/// File-path conveniences.
void save_trace(const std::string& path, const RequestSet& requests);
[[nodiscard]] RequestSet load_trace(const std::string& path);

/// Parses the interleaved pairs format most trace post-processors emit:
/// one "<core> <page>" pair per line (comments/blank lines ignored), cores
/// numbered from 0.  The per-core request order is the line order; the
/// interleaving itself carries no timing (the simulator re-times requests
/// per the model).  Cores never mentioned get empty sequences up to the
/// highest core id seen.  Throws InputError on malformed lines.
[[nodiscard]] RequestSet read_trace_pairs(std::istream& is);

}  // namespace mcp
