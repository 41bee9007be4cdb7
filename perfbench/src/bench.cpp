#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
  return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) * 1e-9
                           : 0.0;
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t session) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  span.session = session;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != Span::kNoParent) {
      child_cover[span.parent] += seconds_between(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        seconds_between(spans_[i].start_ns, spans_[i].end_ns) - child_cover[i];
  }
  return self;
}

std::map<std::string, double> Tracer::total_seconds() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) {
    total[span.name] += seconds_between(span.start_ns, span.end_ns);
  }
  return total;
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  constexpr std::size_t kLimit = 200000;
  std::ofstream out(path);
  out << "thread\tid\tparent\tname\tstart_ns\tend_ns\tsession\n";
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < std::min(kLimit, spans.size()); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t'
          << (s.parent == Span::kNoParent ? -1 : static_cast<long>(s.parent))
          << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << s.session << '\n';
    }
  }
}

void finish_traced(const Options& options, double generate_s,
                   double traced_throughput, const char* unit,
                   const std::vector<const Tracer*>& tracers, Result& result) {
  result.layers["workload.generate_s"] = generate_s;
  result.layers["trace.overhead_share"] =
      result.throughput_per_s > 0.0
          ? 1.0 - traced_throughput / result.throughput_per_s
          : 0.0;
  write_spans(options.scratch_dir + "/spans-" + options.workload + ".tsv",
              tracers);
  std::ostringstream note;
  note << "tracing overhead: " << result.throughput_per_s << " " << unit
       << " untraced, " << traced_throughput << " " << unit << " traced";
  result.notes.push_back(note.str());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t parallel_runners() {
  return std::max<std::size_t>(1, cpu_count() / 2);
}

}  // namespace perfbench
