// Shared pieces of the benchmark program: options, clocks, the in-memory span
// tracer, and the result each workload hands back to main().
//
// Spans are recorded by the benchmark's own code around calls into a
// layer's public functions; nothing inside the library is instrumented.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Problem sizes: kFull is what the benchmark measures, kTiny exists for the
/// self-test (every code path, a fraction of a second per workload).
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  /// Negative control: the oracles compare against deliberately wrong
  /// expectations, so every check must fail.
  bool perturb_oracle = false;
  /// Where spill files, checkpoints and span dumps go (inside the checkout).
  std::string scratch_dir = ".bench_build/scratch";
  std::string git_sha = "unknown";
};

/// The options of a traced run's spanned pass: spans stay in memory until
/// the run ends, so the pass is capped at 5 seconds to bound their memory.
[[nodiscard]] inline Options traced_pass(Options options) {
  options.seconds = std::min(options.seconds, 5.0);
  return options;
}

[[nodiscard]] std::uint64_t now_ns() noexcept;
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;
[[nodiscard]] double seconds_between(std::uint64_t start_ns,
                                     std::uint64_t end_ns) noexcept;

/// One span: a named interval on one thread, with the span that encloses it
/// and, for advisory work, the session it served.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t session = 0;

  static constexpr std::uint32_t kNoParent = 0xffffffffu;
};

/// Per-thread span recorder.  Disabled tracers record nothing (one branch
/// per begin/end), so the same workload code serves both kinds of run.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  std::uint32_t begin(const char* name, std::uint64_t session = 0);
  void end(std::uint32_t id);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Total (inclusive) time per span name.
  [[nodiscard]] std::map<std::string, double> total_seconds() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span over one call; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t session = 0)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name, session)
                                              : 0) {}
  ~Scope() {
    if (tracer_.enabled()) tracer_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Writes the tracers' spans as tab-separated lines (thread, id, parent,
/// name, start_ns, end_ns, session), at most the first 200000 spans of each
/// tracer so an advisory run does not dump hundreds of megabytes.  Metrics
/// are always computed from every span in memory.
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

/// Median and upper quantiles of a sample (nearest rank).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// What a workload reports.  End-to-end values are measured with tracing
/// off; `layers` is filled by traced runs only.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::uint64_t latency_samples = 0;
  std::map<std::string, double> layers;
  /// Human-readable lines (context, sample counts, reconciliation).
  std::vector<std::string> notes;
  /// False when a traced run's reconciliation check failed.
  bool reconciled = true;
};

/// Mean of the middle half of a sample (the interquartile mean).
[[nodiscard]] double interquartile_mean(std::vector<double> values);

/// Times a workload's set-up `fn` (which returns its products) 21 times:
/// once before the timed region, whose products the run uses, and 20 more
/// times spread evenly over the timed region, between its units of work.
/// Every sample times the same steps, and its products are destroyed after
/// its clock stops.  setup_s is the samples' interquartile mean: on a
/// shared host a single-threaded set-up runs in a fast and a slow mode that
/// switch every second or so, and a median of a run's samples flips between
/// the modes from run to run, while this mean weighs them by how long each
/// lasted over the same stretch of time as the other metrics and still
/// drops outliers.
template <typename Fn>
class SetupTimer {
 public:
  explicit SetupTimer(Fn fn) : fn_(std::move(fn)) {}

  /// The set-up the run uses.
  [[nodiscard]] auto first() {
    const std::uint64_t start = now_ns();
    auto products = fn_();
    times_.push_back(seconds_between(start, now_ns()));
    return products;
  }

  /// Marks the start of a timed region of `seconds`.
  void start_region(double seconds) {
    region_start_ns_ = now_ns();
    region_ns_ = static_cast<std::uint64_t>(seconds * 1e9);
  }

  /// Called between two units of the timed region's work: takes the next
  /// sample once it is due.
  void between_units() {
    if (times_.size() < kSamples &&
        now_ns() >= region_start_ns_ + region_ns_ * times_.size() / kSamples) {
      sample();
    }
  }

  /// After the timed region: takes the samples it ended too early for and
  /// stores setup_s, with every sample in a note.
  void finish(Result& result) {
    while (times_.size() < kSamples) sample();
    result.setup_s = interquartile_mean(times_);
    std::string note = "set-up times (s), first before the timed region:";
    for (const double t : times_) note += " " + std::to_string(t);
    result.notes.push_back(note);
  }

 private:
  static constexpr std::size_t kSamples = 21;

  void sample() {
    const std::uint64_t start = now_ns();
    const auto products = fn_();
    times_.push_back(seconds_between(start, now_ns()));
  }  // The products are destroyed here, after the clock stopped.

  Fn fn_;
  std::vector<double> times_;
  std::uint64_t region_start_ns_ = 0;
  std::uint64_t region_ns_ = 0;
};

/// The end of a traced run, common to every workload: sets
/// workload.generate_s and trace.overhead_share (1 − traced ÷ untraced
/// throughput, both passes in this process), writes the tracers' spans to
/// the scratch directory, and notes both throughputs in `unit`.
void finish_traced(const Options& options, double generate_s,
                   double traced_throughput, const char* unit,
                   const std::vector<const Tracer*>& tracers, Result& result);

/// Number of CPUs this process may run on.
[[nodiscard]] std::size_t cpu_count();

/// Threads each workload runs at once on one side of its work: advisory
/// producers and shards, sweep runners.  Half the CPUs: on a shared host a
/// fork-join wave at full width waits for whichever runner another tenant
/// preempts, so its wall time measures the neighbours.
[[nodiscard]] std::size_t parallel_runners();

Result run_advisory(const Options& options);
Result run_offline(const Options& options);
Result run_sweep(const Options& options);

/// Mixes a value into a running 64-bit digest (answer fingerprints).
[[nodiscard]] inline std::uint64_t mix(std::uint64_t h,
                                       std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace perfbench
