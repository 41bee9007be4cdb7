// Workload offline_exact: rounds of exact offline solves.
//
// Each round solves, in order: 6 Algorithm-1 FTF instances on one worker
// (the serial expansion path) with schedule reconstruction; 187
// Algorithm-2 PIF decisions (serial layers), whose bounds come from a
// shared-LRU run so every instance is feasible; and the round's first FTF
// instance again under a StorageBudget of about a quarter of its arena,
// checkpointing every few buckets.  One
// operation is one solve.  In this mix the latency median falls among the
// PIF decisions and the 99th percentile in the tail of the FTF and spilled
// solves, and FTF work dominates the throughput.  Instances come from a
// seeded pool large enough that a run rarely solves one twice, so the
// quantiles describe the instance distribution rather than a dozen
// particular instances.  Answers are checked after the timed region.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>
#include <vector>

#include "bench.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "offline/ftf_solver.hpp"
#include "offline/instance.hpp"
#include "offline/pif_solver.hpp"
#include "offline/replay.hpp"
#include "policies/policy_registry.hpp"
#include "strategies/partition.hpp"
#include "strategies/shared.hpp"
#include "strategies/static_partition.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using mcp::Count;
using mcp::FtfResult;
using mcp::PifResult;

struct Shape {
  std::size_t pool_rounds = 32;  ///< Rounds before instances repeat.
  std::size_t ftf_instances = 6;
  std::size_t ftf_cores = 3;
  std::size_t ftf_pages = 5;
  std::size_t ftf_length = 18;
  std::size_t ftf_cache = 5;
  mcp::Time ftf_tau = 2;
  std::size_t pif_instances = 187;
  std::size_t pif_pages = 5;
  std::size_t pif_length = 40;
  std::uint32_t checkpoint_every = 4;
  std::size_t segment_bytes = 64 * 1024;
};

Shape shape_for(const Options& options) {
  Shape shape;
  if (options.size == Size::kTiny) {
    shape.pool_rounds = 2;
    shape.ftf_instances = 2;
    shape.ftf_length = 10;
    shape.pif_instances = 4;
    shape.pif_length = 8;
    shape.checkpoint_every = 1;
    shape.segment_bytes = 4096;
  }
  return shape;
}

struct Instances {
  std::vector<mcp::OfflineInstance> ftf;
  std::vector<mcp::PifInstance> pif;
  double generate_s = 0.0;  ///< Wall time make_instances took.
};

Instances make_instances(const Shape& shape, std::uint64_t seed) {
  const std::uint64_t start = now_ns();
  Instances out;
  std::uint64_t state = seed ^ 0x0ff1ce;
  mcp::CoreWorkload core;
  core.pattern = mcp::AccessPattern::kUniform;
  core.num_pages = shape.ftf_pages;
  core.length = shape.ftf_length;
  for (std::size_t i = 0; i < shape.ftf_instances * shape.pool_rounds; ++i) {
    mcp::OfflineInstance inst;
    inst.requests = mcp::make_workload(
        mcp::homogeneous_spec(shape.ftf_cores, core, true, mcp::splitmix64(state)));
    inst.cache_size = shape.ftf_cache;
    inst.tau = shape.ftf_tau;
    out.ftf.push_back(std::move(inst));
  }
  core.num_pages = shape.pif_pages;
  core.length = shape.pif_length;
  for (std::size_t i = 0; i < shape.pif_instances * shape.pool_rounds; ++i) {
    mcp::PifInstance inst;
    inst.base.requests = mcp::make_workload(
        mcp::homogeneous_spec(2, core, true, mcp::splitmix64(state)));
    inst.base.cache_size = 2;
    inst.base.tau = 1;
    inst.deadline = static_cast<mcp::Time>(shape.pif_length);
    // A shared-LRU run meets these bounds, so the instance is feasible and
    // has a witness.
    mcp::SharedStrategy lru(mcp::make_policy_factory("lru"));
    const mcp::RunStats stats =
        mcp::simulate(inst.base.sim_config(), inst.base.requests, lru);
    for (mcp::CoreId j = 0; j < 2; ++j) {
      inst.bounds.push_back(stats.faults_before(j, inst.deadline));
    }
    out.pif.push_back(std::move(inst));
  }
  out.generate_s = seconds_between(start, now_ns());
  return out;
}

enum class Kind { kFtf, kPif, kSpill };

/// One solve as the timed loop saw it.
struct Solve {
  Kind kind = Kind::kFtf;
  std::size_t instance = 0;
  std::size_t round = 0;
  double wall_s = 0.0;
  FtfResult ftf;  ///< kFtf and kSpill.
  PifResult pif;  ///< kPif.
};

struct Pass {
  std::vector<Solve> solves;
  std::vector<double> round_wall_s;
  std::size_t rounds = 0;
  std::uintmax_t checkpoint_bytes = 0;  ///< After round 0's spilled solve.
  Tracer tracer;
};

/// Runs rounds until the run's time is up; `between_rounds`, if set, is
/// called after every round.
Pass run_pass(const Options& options, const Shape& shape,
              const Instances& instances, bool trace,
              const std::function<void()>& between_rounds) {
  Pass pass;
  pass.tracer = Tracer(trace);
  // One worker: the parallel waves synchronise their runners every few
  // milliseconds, so on a shared host their wall time follows the
  // hypervisor's scheduling of the other vCPUs rather than the solver.
  mcp::FtfOptions ftf_options;
  ftf_options.build_schedule = true;
  ftf_options.workers = 1;
  // The PIF decisions are small (tens of states per layer) and run their
  // layers serially too.
  mcp::PifOptions pif_options;
  pif_options.build_schedule = true;
  pif_options.workers = 1;
  mcp::FtfOptions spill_options = ftf_options;
  spill_options.storage.dir = options.scratch_dir;
  spill_options.storage.segment_bytes = shape.segment_bytes;
  spill_options.checkpoint.path = options.scratch_dir + "/ftf.checkpoint";
  spill_options.checkpoint.every = shape.checkpoint_every;

  const auto timed = [&pass](Kind kind, std::size_t instance,
                             std::size_t round, const char* name,
                             auto&& solve) {
    Solve record;
    record.kind = kind;
    record.instance = instance;
    record.round = round;
    const std::uint64_t start = now_ns();
    {
      const Scope span(pass.tracer, name);
      solve(record);
    }
    record.wall_s = seconds_between(start, now_ns());
    pass.solves.push_back(std::move(record));
  };

  const std::uint64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::size_t round = 0; round == 0 || now_ns() < deadline; ++round) {
    const Scope round_span(pass.tracer, "offline.round");
    const std::uint64_t round_start = now_ns();
    const std::size_t ftf_base = round * shape.ftf_instances;
    const std::size_t first_of_round = pass.solves.size();
    for (std::size_t i = 0; i < shape.ftf_instances; ++i) {
      const std::size_t k = (ftf_base + i) % instances.ftf.size();
      timed(Kind::kFtf, k, round, "offline.ftf.solve", [&](Solve& r) {
        r.ftf = mcp::solve_ftf(instances.ftf[k], ftf_options);
      });
    }
    const std::size_t pif_base = round * shape.pif_instances;
    for (std::size_t i = 0; i < shape.pif_instances; ++i) {
      const std::size_t k = (pif_base + i) % instances.pif.size();
      timed(Kind::kPif, k, round, "offline.pif.solve", [&](Solve& r) {
        r.pif = mcp::solve_pif(instances.pif[k], pif_options);
      });
    }
    // The round's first FTF instance again, with about a quarter of its
    // in-RAM arena as the budget.
    const Solve& in_ram = pass.solves[first_of_round];
    spill_options.storage.ram_bytes = std::max<std::size_t>(
        in_ram.ftf.arena_bytes / 4, 2 * shape.segment_bytes);
    const std::size_t k = in_ram.instance;
    timed(Kind::kSpill, k, round, "offline.spill.solve", [&](Solve& r) {
      r.ftf = mcp::solve_ftf(instances.ftf[k], spill_options);
    });
    pass.round_wall_s.push_back(seconds_between(round_start, now_ns()));
    if (round == 0) {
      std::error_code ec;
      pass.checkpoint_bytes =
          std::filesystem::file_size(spill_options.checkpoint.path, ec);
      if (ec) pass.checkpoint_bytes = 0;
    }
    pass.rounds = round + 1;
    if (between_rounds) between_rounds();
  }
  return pass;
}

/// Online faults of every wire strategy on the instance: the paper's
/// inequality says the FTF optimum is no greater than any of them.
Count min_online_faults(const mcp::OfflineInstance& inst) {
  Count best = ~Count{0};
  const std::size_t p = inst.requests.num_cores();
  for (const char* policy : {"lru", "fifo"}) {
    mcp::SharedStrategy shared(mcp::make_policy_factory(policy));
    best = std::min(best, mcp::simulate(inst.sim_config(), inst.requests,
                                        shared)
                              .total_faults());
    if (inst.cache_size >= p) {
      mcp::StaticPartitionStrategy part(mcp::even_partition(inst.cache_size, p),
                                        mcp::make_policy_factory(policy));
      best = std::min(best, mcp::simulate(inst.sim_config(), inst.requests,
                                          part)
                                .total_faults());
    }
  }
  return best;
}

/// Checks every solve: an FTF schedule must replay to its optimum, which
/// must not exceed any online strategy's faults; a PIF verdict must be
/// feasible with a witness that verifies; a spilled solve must reproduce
/// the round's in-RAM solve of the same instance bit for bit.
void check(const Pass& pass, const Instances& instances, bool perturb,
           Result& result) {
  const Count offset = perturb ? 1 : 0;
  const Solve* round_first = nullptr;
  for (const Solve& s : pass.solves) {
    bool ok = false;
    try {
      if (s.kind == Kind::kFtf) {
        if (round_first == nullptr || round_first->round != s.round) {
          round_first = &s;
        }
        const mcp::OfflineInstance& inst = instances.ftf[s.instance];
        ok = mcp::replay_schedule(inst, s.ftf.schedule).total_faults() ==
                 s.ftf.min_faults + offset &&
             s.ftf.min_faults <= min_online_faults(inst);
      } else if (s.kind == Kind::kPif) {
        ok = s.pif.feasible != perturb &&
             mcp::verify_pif_witness(instances.pif[s.instance], s.pif.schedule);
      } else {
        ok = round_first != nullptr && round_first->instance == s.instance &&
             (s.ftf.schedule == round_first->ftf.schedule) != perturb &&
             s.ftf.min_faults == round_first->ftf.min_faults &&
             s.ftf.bytes_spilled > 0;
      }
    } catch (const std::exception& e) {
      result.notes.push_back(std::string("check threw: ") + e.what());
    }
    ++result.attempted;
    if (!ok) ++result.failed;
  }
}

/// Per-layer metrics per round: medians over rounds of per-round sums for
/// times, round-0 values for counts (so the counts repeat exactly).
void layer_metrics(const Pass& pass, Result& result) {
  std::vector<double> ftf_s(pass.rounds, 0.0), pif_s(pass.rounds, 0.0),
      spill_s(pass.rounds, 0.0);
  double states_expanded = 0, states_stored = 0, ftf_peak_bytes = 0;
  double pif_states = 0, pif_width = 0, pif_peak = 0;
  double spilled = 0, spill_peak = 0;
  for (const Solve& s : pass.solves) {
    switch (s.kind) {
      case Kind::kFtf:
        ftf_s[s.round] += s.wall_s;
        if (s.round == 0) {
          states_expanded += static_cast<double>(s.ftf.states_expanded);
          states_stored += static_cast<double>(s.ftf.states_stored);
          ftf_peak_bytes += static_cast<double>(s.ftf.peak_bytes_in_ram);
        }
        break;
      case Kind::kPif:
        pif_s[s.round] += s.wall_s;
        if (s.round == 0) {
          pif_states += static_cast<double>(s.pif.states_expanded);
          pif_width = std::max(pif_width,
                               static_cast<double>(s.pif.peak_layer_width));
          pif_peak = std::max(pif_peak,
                              static_cast<double>(s.pif.peak_bytes_in_ram));
        }
        break;
      case Kind::kSpill:
        spill_s[s.round] += s.wall_s;
        if (s.round == 0) {
          spilled = static_cast<double>(s.ftf.bytes_spilled);
          spill_peak = static_cast<double>(s.ftf.peak_bytes_in_ram);
        }
        break;
    }
  }
  auto& l = result.layers;
  l["offline.ftf.solve_s"] = quantile(ftf_s, 0.5);
  l["offline.ftf.states_expanded"] = states_expanded;
  l["offline.ftf.states_stored"] = states_stored;
  l["offline.ftf.bytes_per_state"] =
      states_stored > 0 ? ftf_peak_bytes / states_stored : 0.0;
  l["offline.pif.solve_s"] = quantile(pif_s, 0.5);
  l["offline.pif.states_expanded"] = pif_states;
  l["offline.pif.peak_layer_width"] = pif_width;
  l["offline.pif.peak_bytes_in_ram"] = pif_peak;
  l["offline.spill.solve_s"] = quantile(spill_s, 0.5);
  l["offline.spill.bytes_spilled"] = spilled;
  l["offline.spill.peak_bytes_in_ram"] = spill_peak;
  l["offline.checkpoint.bytes"] = static_cast<double>(pass.checkpoint_bytes);
}

void end_to_end(const Pass& pass, Result& result) {
  std::vector<double> latencies;
  std::vector<double> by_kind[3];
  for (const Solve& s : pass.solves) {
    latencies.push_back(s.wall_s * 1e3);
    by_kind[static_cast<int>(s.kind)].push_back(s.wall_s * 1e3);
  }
  std::ostringstream note;
  note << "solve latency by kind (count, median ms, max ms):";
  const char* names[] = {"ftf", "pif", "spill"};
  for (int k = 0; k < 3; ++k) {
    note << " " << names[k] << " " << by_kind[k].size() << ", "
         << quantile(by_kind[k], 0.5) << ", " << quantile(by_kind[k], 1.0)
         << ";";
  }
  result.notes.push_back(note.str());
  // Interquartile mean over rounds: a burst of interference from outside
  // the benchmark moves rounds that fall in the dropped quarters, and the
  // host's fast and slow phases count by how many rounds each lasted,
  // where a median would flip between them from run to run.
  std::vector<double> rates;
  const double per_round =
      static_cast<double>(pass.solves.size()) / static_cast<double>(pass.rounds);
  for (const double wall : pass.round_wall_s) {
    if (wall > 0.0) rates.push_back(per_round / wall);
  }
  result.throughput_per_s = interquartile_mean(rates);
  result.latency_p50_ms = quantile(latencies, 0.5);
  result.latency_p99_ms = quantile(latencies, 0.99);
  result.latency_samples = latencies.size();
}

}  // namespace

Result run_offline(const Options& options) {
  const Shape shape = shape_for(options);
  Result result;
  SetupTimer setup([&] { return make_instances(shape, options.seed); });
  const Instances instances = setup.first();
  std::ostringstream note;
  note << "rounds of " << shape.ftf_instances << " FTF solves (p "
       << shape.ftf_cores << ", K " << shape.ftf_cache << ", tau "
       << shape.ftf_tau << ", " << shape.ftf_pages << " pages x "
       << shape.ftf_length << " requests per core, 1 worker), "
       << shape.pif_instances
       << " PIF decisions (p 2, K 2, tau 1, " << shape.pif_pages
       << " pages x " << shape.pif_length
       << " requests per core) and 1 spill-budget FTF solve checkpointing "
          "every "
       << shape.checkpoint_every << " buckets";
  result.notes.push_back(note.str());

  setup.start_region(options.seconds);
  const Pass pass = run_pass(options, shape, instances, false,
                             [&setup] { setup.between_units(); });
  setup.finish(result);
  end_to_end(pass, result);
  check(pass, instances, options.perturb_oracle, result);
  if (!options.trace) return result;

  const Pass traced =
      run_pass(traced_pass(options), shape, instances, true, nullptr);
  Result traced_e2e;
  end_to_end(traced, traced_e2e);
  layer_metrics(traced, result);
  finish_traced(options, instances.generate_s, traced_e2e.throughput_per_s,
                "solves/s", {&traced.tracer}, result);
  check(traced, instances, options.perturb_oracle, result);
  return result;
}

}  // namespace perfbench
