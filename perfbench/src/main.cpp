// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--scratch DIR] [--git-sha SHA]
//             [--perturb-oracle]
//
// Prints a context line, one line per note and metric, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (perfbench/METRICS.md).  Exits 0 only if every checked
// answer was right; 2 on bad usage; 3 if the run overran its time limit.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "build_context.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run prints, in BENCHMARK.json order.
// A workload that does not exercise a layer reports it as 0.
constexpr MetricSpec kLayerMetrics[] = {
    {"workload.generate_s", "s"},
    {"service.wire.encode_s", "s"},
    {"service.wire.bytes_per_pair", "bytes/pair"},
    {"service.mcpd.submit_s", "s"},
    {"service.mcpd.submit_calls", "count"},
    {"service.mailbox.wait_s", "s"},
    {"service.mailbox.poll_s", "s"},
    {"service.wire.decode_s", "s"},
    {"producer.bookkeeping_s", "s"},
    {"service.shard.busy_s", "s"},
    {"service.shard.busy_share", "ratio"},
    {"service.shard.epochs", "count"},
    {"service.shard.frames_per_epoch", "frames/epoch"},
    {"service.shard.pairs_per_epoch", "pairs/epoch"},
    {"service.shard.epoch_p50_us", "us"},
    {"service.shard.epoch_p99_us", "us"},
    {"service.shard.bad_frames", "count"},
    {"service.shard.batched_sessions", "count"},
    {"service.shard.scalar_sessions", "count"},
    {"core.cohort.lane_steps", "count"},
    {"core.cohort.pairs_per_lane_step", "pairs/step"},
    {"core.kernel.replay_s", "s"},
    {"policies.mattson.curve_s", "s"},
    {"strategies.partition.search_s", "s"},
    {"service.overhead_share", "ratio"},
    {"offline.ftf.solve_s", "s"},
    {"offline.ftf.states_expanded", "count"},
    {"offline.ftf.states_stored", "count"},
    {"offline.ftf.bytes_per_state", "bytes/state"},
    {"offline.pif.solve_s", "s"},
    {"offline.pif.states_expanded", "count"},
    {"offline.pif.peak_layer_width", "count"},
    {"offline.pif.peak_bytes_in_ram", "bytes"},
    {"offline.spill.solve_s", "s"},
    {"offline.spill.bytes_spilled", "bytes"},
    {"offline.spill.peak_bytes_in_ram", "bytes"},
    {"offline.checkpoint.bytes", "bytes"},
    {"core.sweep.batch_cells", "count"},
    {"core.sweep.batch_s", "s"},
    {"core.batch.lane_steps", "count"},
    {"core.sweep.scalar_cells", "count"},
    {"core.sweep.scalar_s", "s"},
    {"core.simulator.steps_per_cpu_s", "steps/s"},
    {"core.sweep.parallel_efficiency", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.reconciled", "bool"},
};

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"advisory_mixed", perfbench::run_advisory},
    {"offline_exact", perfbench::run_offline},
    {"sweep_grid", perfbench::run_sweep},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "advisory_mixed|offline_exact|sweep_grid"
               " --seed N --seconds S --trace 0|1 [--size full|tiny]"
               " [--scratch DIR] [--git-sha SHA] [--perturb-oracle]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perturb-oracle") {
      options.perturb_oracle = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--size") {
        if (value != "full" && value != "tiny") usage("--size takes full or tiny");
        options.size =
            value == "tiny" ? perfbench::Size::kTiny : perfbench::Size::kFull;
      } else if (arg == "--scratch") {
        options.scratch_dir = value;
      } else if (arg == "--git-sha") {
        options.git_sha = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (find_workload(options.workload) == nullptr) {
    usage("unknown workload " + options.workload);
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The host and build context block every result starts with.
void print_context(const Options& options) {
  utsname host{};
  uname(&host);
  const std::size_t nproc = perfbench::cpu_count();
  const std::size_t runners = perfbench::parallel_runners();
  std::ostringstream out;
  out << "{\"context\": {\"nproc\": " << nproc
      << ", \"kernel\": " << json_string(std::string(host.sysname) + " " +
                                         host.release + " " + host.machine)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"cmake_options\": {\"MCP_CHECKED\": \"OFF\"}"
      << ", \"git_sha\": " << json_string(options.git_sha)
      << ", \"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed << ", \"seconds\": "
      << number(options.seconds) << ", \"trace\": " << options.trace
      << ", \"size\": "
      << json_string(options.size == perfbench::Size::kTiny ? "tiny" : "full")
      << ", \"shards\": " << runners << ", \"producers\": " << runners
      << ", \"sweep_runners\": " << runners << ", \"ftf_workers\": 1}}";
  std::cout << out.str() << "\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU seconds the hypervisor gave to other guests while this machine's
/// CPUs had work (the steal column of /proc/stat); 0 where it is not
/// reported.  Runs that overlap heavy steal read slow, parallel ones most.
double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string label;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (!(stat >> label >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      label != "cpu") {
    return 0.0;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Ends the process if the run overruns its limit, so a stuck solve or
/// daemon cannot hang the caller.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::cerr << "perfbench: run exceeded " << limit.count()
                      << " s; aborting\n";
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::filesystem::create_directories(options.scratch_dir);
  print_context(options);

  Result result;
  const double steal_start_s = host_steal_s();
  const std::uint64_t start_ns = perfbench::now_ns();
  {
    // Room for both passes of a traced run, the advisory workloads' reply
    // grace period after each, set-up and the checks.
    const Watchdog watchdog(std::chrono::seconds(
        static_cast<long>(2.0 * options.seconds) + 60));
    try {
      result = find_workload(options.workload)->run(options);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
                << "\n";
      return 1;
    }
  }
  const double steal_s = host_steal_s() - steal_start_s;
  const double capacity_s =
      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)) *
      perfbench::seconds_between(start_ns, perfbench::now_ns());

  for (const std::string& note : result.notes) {
    std::cout << "# " << note << "\n";
  }
  std::cout << "# host steal during the run: " << steal_s << " CPU-s, "
            << (capacity_s > 0.0 ? 100.0 * steal_s / capacity_s : 0.0)
            << "% of the CPUs' time\n";
  std::cout << "# latency samples: " << result.latency_samples
            << "; failed_share: "
            << number(result.attempted > 0
                          ? static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted)
                          : 1.0)
            << " (" << result.failed << " of " << result.attempted << ")\n";

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (options.trace) {
    result.layers["trace.reconciled"] = result.reconciled ? 1.0 : 0.0;
    for (const MetricSpec& spec : kLayerMetrics) {
      const auto it = result.layers.find(spec.name);
      metrics.emplace_back(spec, it == result.layers.end() ? 0.0 : it->second);
    }
  } else {
    metrics = {{{"setup_s", "s"}, result.setup_s},
               {{"peak_rss_mb", "MB"}, peak_rss_mb()},
               {{"throughput_per_s", "1/s"}, result.throughput_per_s},
               {{"latency_p50_ms", "ms"}, result.latency_p50_ms},
               {{"latency_p99_ms", "ms"}, result.latency_p99_ms}};
  }
  std::ostringstream json;
  json << "{\"correct\": "
       << (result.failed == 0 && result.attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    std::cout << spec.name << " = " << number(value) << " " << spec.unit
              << "\n";
    json << (i == 0 ? "" : ", ") << json_string(spec.name)
         << ": {\"value\": " << number(value)
         << ", \"unit\": " << json_string(spec.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
