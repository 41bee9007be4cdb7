// mcpd-loadgen — drives src/service/loadgen.hpp from the command line and
// emits google-benchmark-shaped JSON so scripts/check_perf_regression.py
// can gate the service baselines (bench/baseline/BENCH_MCPD.json).
//
//   mcpd-loadgen [--shards=1,2,4,8] [--tenants=32] [--producers=2]
//                [--repetitions=3] [--requests=2048] [--cores=4]
//                [--cache=64] [--chunk=256] [--seed=N] [--homogeneous]
//
// For each shard count the loadgen runs `repetitions` full passes and
// reports the median of every counter as one aggregate benchmark entry
// named `<scenario>/shards/<n>`.  Repetitions interleave the scenarios
// (rep r of every scenario runs back-to-back) so machine-speed drift
// lands on both sides of any cross-scenario ratio, not on one scenario's
// whole sample set.  The default scenario, `mcpd_loadgen`, is
// the mixed-strategy replay.  `--homogeneous` adds `mcpd_homogeneous`
// (identical tenants on a fitted page universe, the design-point hit rate).
// The determinism checksum (total_faults) must agree across all runs and
// shard counts of a tenant mix; the tool fails loudly if not.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "service/loadgen.hpp"

namespace {

using mcp::service::LoadgenConfig;
using mcp::service::LoadgenResult;
using mcp::service::TenantMix;

[[nodiscard]] std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> values;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    if (comma > pos) {
      values.push_back(
          static_cast<std::size_t>(std::stoull(csv.substr(pos, comma - pos))));
    }
    pos = comma + 1;
  }
  if (values.empty()) throw mcp::InputError("empty shard list");
  return values;
}

[[nodiscard]] bool parse_flag(const char* arg, const char* name,
                              std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  value = arg + len + 1;
  return true;
}

[[nodiscard]] double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One benchmark scenario: a named tenant mix.
struct Scenario {
  const char* name;
  TenantMix mix;
};

void print_entry(bool first, const Scenario& scenario, std::size_t shards,
                 std::size_t iterations, double wall_s, double rps,
                 double capacity, double p50_ns, double p99_ns,
                 const LoadgenResult& last) {
  std::printf("%s    {\n", first ? "" : ",\n");
  std::printf("      \"name\": \"%s/shards/%zu_median\",\n", scenario.name,
              shards);
  std::printf("      \"run_name\": \"%s/shards/%zu\",\n", scenario.name,
              shards);
  std::printf("      \"run_type\": \"aggregate\",\n");
  std::printf("      \"aggregate_name\": \"median\",\n");
  std::printf("      \"iterations\": %zu,\n", iterations);
  std::printf("      \"real_time\": %.6e,\n", wall_s * 1e9);
  std::printf("      \"cpu_time\": %.6e,\n", wall_s * 1e9);
  std::printf("      \"time_unit\": \"ns\",\n");
  std::printf("      \"requests_per_sec\": %.6e,\n", rps);
  std::printf("      \"capacity_rps\": %.6e,\n", capacity);
  std::printf("      \"epoch_p50_ns\": %.6e,\n", p50_ns);
  std::printf("      \"epoch_p99_ns\": %.6e,\n", p99_ns);
  std::printf("      \"batched_sessions\": %llu,\n",
              static_cast<unsigned long long>(last.batched_sessions));
  std::printf("      \"lane_steps\": %llu,\n",
              static_cast<unsigned long long>(last.lane_steps));
  std::printf("      \"answer_ns\": %llu,\n",
              static_cast<unsigned long long>(last.answer_ns));
  std::printf("      \"total_faults\": %llu\n",
              static_cast<unsigned long long>(last.total_faults));
  std::printf("    }");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  std::size_t repetitions = 3;
  bool homogeneous = false;
  LoadgenConfig base;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    try {
      if (parse_flag(argv[i], "--shards", value)) {
        shard_counts = parse_list(value);
      } else if (parse_flag(argv[i], "--tenants", value)) {
        base.tenants = std::stoull(value);
      } else if (parse_flag(argv[i], "--producers", value)) {
        base.producers = std::stoull(value);
      } else if (parse_flag(argv[i], "--repetitions", value)) {
        repetitions = std::stoull(value);
      } else if (parse_flag(argv[i], "--requests", value)) {
        base.requests_per_core = std::stoull(value);
      } else if (parse_flag(argv[i], "--cores", value)) {
        base.cores_per_tenant = std::stoull(value);
      } else if (parse_flag(argv[i], "--cache", value)) {
        base.cache_size = std::stoull(value);
      } else if (parse_flag(argv[i], "--chunk", value)) {
        base.chunk_pairs = std::stoull(value);
      } else if (parse_flag(argv[i], "--seed", value)) {
        base.seed = std::stoull(value);
      } else if (std::strcmp(argv[i], "--homogeneous") == 0) {
        homogeneous = true;
      } else {
        std::fprintf(stderr, "mcpd-loadgen: unknown argument %s\n", argv[i]);
        return 2;
      }
    } catch (const std::exception& err) {
      std::fprintf(stderr, "mcpd-loadgen: bad argument %s (%s)\n", argv[i],
                   err.what());
      return 2;
    }
  }
  if (repetitions == 0) repetitions = 1;

  std::vector<Scenario> scenarios = {{"mcpd_loadgen", TenantMix::kMixed}};
  if (homogeneous) {
    scenarios.push_back({"mcpd_homogeneous", TenantMix::kHomogeneous});
  }

  std::printf("{\n  \"context\": {\n");
  std::printf("    \"executable\": \"mcpd-loadgen\",\n");
  std::printf("    \"tenants\": %zu,\n", base.tenants);
  std::printf("    \"producers\": %zu,\n", base.producers);
  std::printf("    \"cores_per_tenant\": %zu,\n", base.cores_per_tenant);
  std::printf("    \"requests_per_core\": %zu,\n", base.requests_per_core);
  std::printf("    \"cache_size\": %zu,\n", base.cache_size);
  std::printf("    \"chunk_pairs\": %zu\n", base.chunk_pairs);
  std::printf("  },\n  \"benchmarks\": [\n");

  // One checksum per tenant mix: every run of a mix — any shard count, any
  // repetition — must produce identical total faults.
  std::uint64_t checksum[2] = {0, 0};
  bool have_checksum[2] = {false, false};

  // Repetitions are the outer loop and scenarios the inner one, so rep r
  // of every scenario runs back-to-back: a machine-speed drift (thermal
  // throttle, co-tenant burst) lands on the same repetition of both sides
  // of a cross-scenario ratio instead of depressing one scenario's whole
  // sample set.
  struct Samples {
    std::vector<double> wall, rps, capacity, p50, p99;
    LoadgenResult last;
  };
  std::vector<Samples> samples(scenarios.size() * shard_counts.size());
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    for (std::size_t si = 0; si < shard_counts.size(); ++si) {
      for (std::size_t ci = 0; ci < scenarios.size(); ++ci) {
        const Scenario& scenario = scenarios[ci];
        const std::size_t mix = static_cast<std::size_t>(scenario.mix);
        LoadgenConfig config = base;
        config.num_shards = shard_counts[si];
        config.mix = scenario.mix;
        LoadgenResult result;
        try {
          result = mcp::service::run_loadgen(config);
        } catch (const std::exception& err) {
          std::fprintf(stderr, "mcpd-loadgen: run failed: %s\n", err.what());
          return 1;
        }
        Samples& cell = samples[ci * shard_counts.size() + si];
        cell.wall.push_back(result.wall_seconds);
        cell.rps.push_back(result.requests_per_sec);
        cell.capacity.push_back(result.capacity_rps);
        cell.p50.push_back(static_cast<double>(result.epoch_latency.p50()));
        cell.p99.push_back(static_cast<double>(result.epoch_latency.p99()));
        if (!have_checksum[mix]) {
          checksum[mix] = result.total_faults;
          have_checksum[mix] = true;
        } else if (checksum[mix] != result.total_faults) {
          std::fprintf(stderr,
                       "mcpd-loadgen: DETERMINISM VIOLATION: fault checksum "
                       "%llu != %llu across runs (%s)\n",
                       static_cast<unsigned long long>(result.total_faults),
                       static_cast<unsigned long long>(checksum[mix]),
                       scenario.name);
          return 1;
        }
        cell.last = std::move(result);
      }
    }
  }

  bool first = true;
  for (std::size_t ci = 0; ci < scenarios.size(); ++ci) {
    for (std::size_t si = 0; si < shard_counts.size(); ++si) {
      const Samples& cell = samples[ci * shard_counts.size() + si];
      print_entry(first, scenarios[ci], shard_counts[si], repetitions,
                  median_of(cell.wall), median_of(cell.rps),
                  median_of(cell.capacity), median_of(cell.p50),
                  median_of(cell.p99), cell.last);
      first = false;
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
