#include "strategies/partition.hpp"

#include <limits>
#include <numeric>
#include <sstream>

#include "core/error.hpp"

namespace mcp {

void validate_partition(const Partition& sizes, std::size_t cache_size,
                        std::size_t num_cores, std::size_t min_per_core) {
  MCP_REQUIRE(sizes.size() == num_cores,
              "partition must have one part per core");
  std::size_t total = 0;
  for (std::size_t k : sizes) {
    MCP_REQUIRE(k >= min_per_core, "partition part below minimum size");
    total += k;
  }
  MCP_REQUIRE(total == cache_size, "partition parts must sum to K");
}

Partition even_partition(std::size_t cache_size, std::size_t num_cores) {
  MCP_REQUIRE(num_cores > 0, "even_partition: no cores");
  MCP_REQUIRE(cache_size >= num_cores,
              "even_partition: K < p cannot give every core a cell");
  Partition sizes(num_cores, cache_size / num_cores);
  for (std::size_t j = 0; j < cache_size % num_cores; ++j) ++sizes[j];
  return sizes;
}

namespace {
void enumerate_rec(std::size_t remaining, std::size_t parts_left,
                   std::size_t min_per_core, Partition& current,
                   std::vector<Partition>& out) {
  if (parts_left == 1) {
    if (remaining >= min_per_core) {
      current.push_back(remaining);
      out.push_back(current);
      current.pop_back();
    }
    return;
  }
  // Leave at least min_per_core for each remaining part.
  const std::size_t reserve = min_per_core * (parts_left - 1);
  for (std::size_t k = min_per_core; k + reserve <= remaining; ++k) {
    current.push_back(k);
    enumerate_rec(remaining - k, parts_left - 1, min_per_core, current, out);
    current.pop_back();
  }
}
}  // namespace

std::vector<Partition> enumerate_partitions(std::size_t cache_size,
                                            std::size_t num_cores,
                                            std::size_t min_per_core) {
  MCP_REQUIRE(num_cores > 0, "enumerate_partitions: no cores");
  std::vector<Partition> out;
  Partition current;
  current.reserve(num_cores);
  enumerate_rec(cache_size, num_cores, min_per_core, current, out);
  return out;
}

std::size_t count_partitions(std::size_t cache_size, std::size_t num_cores,
                             std::size_t min_per_core) {
  __extension__ typedef unsigned __int128 Wide;
  if (num_cores == 0) return 0;
  const Wide reserved = Wide{num_cores} * min_per_core;
  if (cache_size < reserved) return 0;
  // Stars and bars: distribute K - p*min extra cells over p parts.
  const Wide extra = cache_size - reserved;
  const std::size_t slots = num_cores - 1;
  // C(extra + slots, slots) as C(extra + i, i) for i = 1..slots, each step
  // exact in 128 bits: the running count is at most SIZE_MAX, and once it
  // exceeds 1 it is at least extra + i - 1, so its product with extra + i
  // stays below 2^128.  The count never shrinks with i, so it saturates at
  // the first step past SIZE_MAX.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  Wide result = 1;
  for (std::size_t i = 1; i <= slots; ++i) {
    result = result * (extra + i) / i;
    if (result > kMax) return kMax;
  }
  return static_cast<std::size_t>(result);
}

std::string partition_to_string(const Partition& sizes) {
  std::ostringstream os;
  os << '[';
  for (std::size_t j = 0; j < sizes.size(); ++j) {
    if (j > 0) os << ',';
    os << sizes[j];
  }
  os << ']';
  return os.str();
}

}  // namespace mcp
