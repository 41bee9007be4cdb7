#include "offline/instance.hpp"

#include "core/error.hpp"

namespace mcp {

void OfflineInstance::validate() const {
  MCP_REQUIRE(cache_size > 0, "offline instance: cache_size must be positive");
  MCP_REQUIRE(requests.num_cores() > 0, "offline instance: no cores");
  MCP_REQUIRE(requests.is_disjoint(),
              "offline algorithms require a disjoint request set");
}

void PifInstance::validate() const {
  base.validate();
  MCP_REQUIRE(bounds.size() == base.requests.num_cores(),
              "PIF instance: one bound per core required");
}

}  // namespace mcp
