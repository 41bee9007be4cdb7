// Relative-progress tracking — the measure the paper's conclusion proposes
// for evaluating online multicore paging ("perhaps other measures such as
// fairness or relative progress of sequences should be considered").
//
// A ProgressTracker observer samples, at a fixed cadence, how many requests
// each core has issued; progress_spread() reduces each sample to the
// max-min gap of normalized progress (0 = perfectly even, 1 = one core
// finished while another hasn't started).  A request counts from the step
// it issues in — a fault too, although its service ends tau steps later.
#pragma once

#include <algorithm>
#include <vector>

#include "core/events.hpp"
#include "core/request.hpp"
#include "core/types.hpp"

namespace mcp {

class ProgressTracker final : public SimObserver {
 public:
  explicit ProgressTracker(std::size_t num_cores, Time sample_interval = 64)
      : interval_(sample_interval), issued_(num_cores, 0) {}

  void on_hit(const AccessContext& ctx) override { ++issued_[ctx.core]; }
  void on_fault(const AccessContext& ctx) override { ++issued_[ctx.core]; }
  // The engine fast-forwards over idle stretches, so a step may be the
  // first after several boundaries.  Those before it (< now) are emitted
  // when it begins, before its requests issue; the boundary at `now` itself
  // when it ends.  The series stays evenly spaced either way.
  void on_step_begin(Time now) override { emit_before(now); }
  void on_step_end(Time now) override { emit_before(now + 1); }

  /// Sample timestamps (multiples of the interval).
  [[nodiscard]] const std::vector<Time>& sample_times() const noexcept {
    return times_;
  }
  /// samples()[s][j] = requests core j had issued by sample_times()[s]
  /// (in steps up to and including it).
  [[nodiscard]] const std::vector<std::vector<Count>>& samples() const noexcept {
    return samples_;
  }

  /// Per-sample max-min spread of progress normalized by each core's own
  /// sequence length (cores with empty sequences are skipped).
  [[nodiscard]] std::vector<double> progress_spread(const RequestSet& rs) const {
    std::vector<double> spread;
    spread.reserve(samples_.size());
    for (const auto& sample : samples_) {
      double lo = 1.0;
      double hi = 0.0;
      for (CoreId j = 0; j < sample.size(); ++j) {
        const std::size_t total = rs.sequence(j).size();
        if (total == 0) continue;
        const double frac =
            static_cast<double>(sample[j]) / static_cast<double>(total);
        lo = std::min(lo, frac);
        hi = std::max(hi, frac);
      }
      spread.push_back(hi >= lo ? hi - lo : 0.0);
    }
    return spread;
  }

  /// Largest spread observed over the run (0 = perfectly even throughout).
  [[nodiscard]] double max_spread(const RequestSet& rs) const {
    const std::vector<double> spread = progress_spread(rs);
    return spread.empty() ? 0.0
                          : *std::max_element(spread.begin(), spread.end());
  }

 private:
  void emit_before(Time end) {
    while (next_sample_ < end) {
      times_.push_back(next_sample_);
      samples_.push_back(issued_);
      next_sample_ += interval_;
    }
  }

  Time interval_;
  Time next_sample_ = 0;
  std::vector<Count> issued_;
  std::vector<Time> times_;
  std::vector<std::vector<Count>> samples_;
};

}  // namespace mcp
