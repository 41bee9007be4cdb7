#include "offline/pif_solver.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "core/sentry.hpp"
#include "core/simulator.hpp"
#include "offline/packed_space.hpp"
#include "offline/packed_state.hpp"
#include "offline/pareto_front.hpp"
#include "offline/replay.hpp"

namespace mcp {

namespace {

// ---------------------------------------------------------------------------
// Layered DP over interned packed states.
//
// Each layer's states are sorted ascending by interned id and expanded in
// that order, so emission order — and with it the provenance a witness
// schedule follows — is canonical.  Pareto front contents are
// insertion-order independent (the front is the set of minimal vectors
// seen), so the layers match the fronts the test oracle
// (tests/reference_offline.hpp) computes.
// ---------------------------------------------------------------------------

// ParetoProv / PackedFront / pareto_insert_packed / validate_front live in
// offline/pareto_front.hpp (extracted so test_sentry.cpp can corrupt and
// validate fronts directly).

/// One layer of the packed DP: states sorted ascending by interned id.
struct PackedLayer {
  std::vector<std::uint32_t> ids;
  std::vector<PackedFront> fronts;  ///< parallel to ids
  std::vector<PageId> evict_pool;   ///< flat eviction storage (schedule mode)

  [[nodiscard]] std::size_t width() const noexcept {
    std::size_t w = 0;
    for (const PackedFront& f : fronts) w += f.size();
    return w;
  }
};

/// Serializes the provenance a finished layer contributes to witness
/// reconstruction — prov tuples per (state, entry) plus the eviction pool;
/// ids and fault vectors are never needed again once the layer is settled.
/// Layout (u32, then pack_u32): [num_states, per state: entry count then 4
/// prov words per entry, pool length, pool pages].
std::vector<std::uint64_t> serialize_layer_prov(const PackedLayer& layer) {
  std::vector<std::uint32_t> flat;
  flat.push_back(static_cast<std::uint32_t>(layer.ids.size()));
  for (const PackedFront& front : layer.fronts) {
    flat.push_back(static_cast<std::uint32_t>(front.prov.size()));
    for (const ParetoProv& prov : front.prov) {
      flat.push_back(prov.parent_state);
      flat.push_back(prov.parent_entry);
      flat.push_back(prov.evict_off);
      flat.push_back(prov.evict_len);
    }
  }
  flat.push_back(static_cast<std::uint32_t>(layer.evict_pool.size()));
  flat.insert(flat.end(), layer.evict_pool.begin(), layer.evict_pool.end());
  return checkpoint::pack_u32(flat);
}

/// Walks provenance back through the layer log (record t = layer t's
/// serialize_layer_prov words) and flattens the per-step eviction lists
/// into the global fault-order schedule.
std::vector<PageId> reconstruct_logged(const RecordLog& past,
                                       std::size_t layer_index,
                                       std::uint32_t state_index,
                                       std::uint32_t entry_index) {
  std::vector<std::vector<PageId>> steps;
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> flat;
  while (layer_index > 0) {
    past.read(layer_index, words);
    checkpoint::unpack_u32(words, flat);
    // Walk the variable-length state records up to state_index.
    std::size_t pos = 0;
    const std::uint32_t num_states = flat[pos++];
    MCP_ASSERT_MSG(state_index < num_states,
                   "pif witness: parent state out of range");
    for (std::uint32_t s = 0; s < state_index; ++s) {
      pos += 1 + static_cast<std::size_t>(flat[pos]) * 4;
    }
    const std::uint32_t entries = flat[pos++];
    MCP_ASSERT_MSG(entry_index < entries,
                   "pif witness: parent entry out of range");
    pos += static_cast<std::size_t>(entry_index) * 4;
    const std::uint32_t parent_state = flat[pos];
    const std::uint32_t parent_entry = flat[pos + 1];
    const std::uint32_t evict_off = flat[pos + 2];
    const std::uint32_t evict_len = flat[pos + 3];
    // The pool sits after the last state record; its length word precedes
    // it.  Find it by walking the remaining states.
    std::size_t tail = 0;
    {
      std::size_t scan = 1;
      for (std::uint32_t s = 0; s < num_states; ++s) {
        scan += 1 + static_cast<std::size_t>(flat[scan]) * 4;
      }
      tail = scan + 1;  // first pool page; flat[scan] is the pool length
      MCP_ASSERT_MSG(static_cast<std::size_t>(evict_off) + evict_len <=
                         flat[scan],
                     "pif witness: eviction span out of range");
    }
    steps.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(tail + evict_off),
                       flat.begin() + static_cast<std::ptrdiff_t>(tail + evict_off + evict_len));
    state_index = parent_state;
    entry_index = parent_entry;
    --layer_index;
  }
  std::reverse(steps.begin(), steps.end());
  std::vector<PageId> schedule;
  for (const std::vector<PageId>& step : steps) {
    schedule.insert(schedule.end(), step.begin(), step.end());
  }
  return schedule;
}

/// Fingerprint binding a checkpoint to (instance, trajectory-affecting
/// options); storage/sentry knobs are excluded — they do not change any
/// solve result.
std::uint64_t pif_fingerprint(const PifInstance& instance,
                              const PifOptions& options) {
  std::uint64_t h = checkpoint::fingerprint(instance);
  h = checkpoint::fold(h, static_cast<std::uint64_t>(options.victim_rule));
  h = checkpoint::fold(h, options.build_schedule ? 1 : 0);
  h = checkpoint::fold(h, options.max_layer_width);
  return checkpoint::fold(h, checkpoint::kKindPif);
}

// Checkpoint section tags (PIF).
constexpr std::uint32_t kSecScalars = 1;
constexpr std::uint32_t kSecArena = 2;
constexpr std::uint32_t kSecHashes = 3;
constexpr std::uint32_t kSecLayerIds = 10;
constexpr std::uint32_t kSecLayerSizes = 11;
constexpr std::uint32_t kSecLayerFaults = 12;
constexpr std::uint32_t kSecLayerProv = 13;
constexpr std::uint32_t kSecLayerEvicts = 14;
constexpr std::uint32_t kSecPastIndex = 15;
constexpr std::uint32_t kSecPastWords = 16;

[[noreturn]] void throw_width_limit(const PifResult& result,
                                    const StateInterner& interner) {
  std::ostringstream os;
  os << "solve_pif: layer width limit exceeded (peak_layer_width="
     << result.peak_layer_width << ", states_expanded="
     << result.states_expanded << ", states_stored=" << interner.size()
     << ", arena_bytes=" << interner.arena_bytes()
     << ", peak_bytes_in_ram=" << interner.peak_bytes_in_ram()
     << ", table_load_factor=" << std::fixed << std::setprecision(3)
     << interner.load_factor() << ", bytes_spilled=" << interner.bytes_spilled()
     << ")";
  throw ModelError(os.str());
}

}  // namespace

PifResult solve_pif(const PifInstance& instance, const PifOptions& options) {
  instance.validate();
  const PackedTransitionSystem system(instance.base, options.victim_rule);
  const std::size_t p = system.num_cores();
  const std::size_t stride = system.state_words();
  const bool schedule = options.build_schedule;

  StateInterner interner(stride, options.storage);
  interner.reserve(options.expected_states != 0 ? options.expected_states
                                                : 1024);

  // The DP materializes exactly one layer.  Settled layers survive only as
  // provenance records in `past` (schedule mode; record index == layer
  // index, record 0 is the start layer for alignment), which an active
  // StorageBudget keeps out of RAM entirely.
  PackedLayer layer;
  RecordLog past(options.storage);

  PifResult result;
  const auto finalize = [&result, &interner, &past] {
    result.peak_bytes_in_ram =
        interner.peak_bytes_in_ram() + past.bytes_in_ram();
    result.bytes_spilled = interner.bytes_spilled() + past.bytes_spilled();
  };

  Time start_t = 0;
  const std::uint64_t fp = pif_fingerprint(instance, options);
  if (options.checkpoint.enabled() && options.checkpoint.resume) {
    const std::string& path = options.checkpoint.path;
    const auto bad = [&path](const char* why) {
      return InputError("checkpoint '" + path + "': " + why);
    };
    const checkpoint::Reader reader(path, checkpoint::kKindPif, fp);
    const std::vector<std::uint64_t>& scalars = reader.section(kSecScalars);
    if (scalars.size() != 4) throw bad("malformed scalar section");
    start_t = scalars[0];
    result.states_expanded = static_cast<std::size_t>(scalars[1]);
    result.peak_layer_width = static_cast<std::size_t>(scalars[2]);
    const std::size_t count = static_cast<std::size_t>(scalars[3]);
    if (start_t > instance.deadline) {
      throw bad("resume layer past the deadline");
    }
    // The interner rebuilds by re-interning the arena in id order — table
    // layout is an implementation detail no observable result depends on.
    const std::vector<std::uint64_t>& arena = reader.section(kSecArena);
    const std::vector<std::uint64_t>& hashes = reader.section(kSecHashes);
    if (hashes.size() != count || arena.size() != count * stride) {
      throw bad("arena/hash sections disagree with the state count");
    }
    interner.reserve(count);
    for (std::size_t id = 0; id < count; ++id) {
      const auto [got, inserted] =
          interner.intern_hashed(arena.data() + id * stride, hashes[id]);
      if (!inserted || got != id) {
        throw bad("duplicate or out-of-order state record");
      }
    }
    std::vector<std::uint32_t> ids;
    reader.section_u32(kSecLayerIds, ids);
    std::vector<std::uint32_t> sizes;
    reader.section_u32(kSecLayerSizes, sizes);
    if (sizes.size() != ids.size()) {
      throw bad("front sizes disagree with the layer ids");
    }
    std::size_t width = 0;
    for (const std::uint32_t id : ids) {
      if (id >= count) throw bad("layer id out of range");
    }
    for (const std::uint32_t s : sizes) width += s;
    std::vector<std::uint32_t> faults;
    reader.section_u32(kSecLayerFaults, faults);
    if (faults.size() != width * p) {
      throw bad("fault vectors disagree with the layer width");
    }
    std::vector<std::uint32_t> prov;
    std::vector<std::uint32_t> evicts;
    if (schedule) {
      reader.section_u32(kSecLayerProv, prov);
      if (prov.size() != width * 4) {
        throw bad("provenance disagrees with the layer width");
      }
      reader.section_u32(kSecLayerEvicts, evicts);
    }
    layer.ids.assign(ids.begin(), ids.end());
    layer.evict_pool.assign(evicts.begin(), evicts.end());
    layer.fronts.resize(ids.size());
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < ids.size(); ++s) {
      PackedFront& front = layer.fronts[s];
      front.faults.assign(
          faults.begin() + static_cast<std::ptrdiff_t>(cursor * p),
          faults.begin() +
              static_cast<std::ptrdiff_t>((cursor + sizes[s]) * p));
      front.prov.resize(sizes[s]);
      if (schedule) {
        for (std::size_t e = 0; e < sizes[s]; ++e) {
          ParetoProv& pr = front.prov[e];
          const std::size_t base = (cursor + e) * 4;
          pr.parent_state = prov[base];
          pr.parent_entry = prov[base + 1];
          pr.evict_off = prov[base + 2];
          pr.evict_len = prov[base + 3];
          if (static_cast<std::size_t>(pr.evict_off) + pr.evict_len >
              layer.evict_pool.size()) {
            throw bad("eviction span out of range");
          }
        }
      }
      cursor += sizes[s];
    }
    if (schedule) {
      std::vector<std::uint32_t> lens;
      reader.section_u32(kSecPastIndex, lens);
      if (lens.size() != static_cast<std::size_t>(start_t) + 1) {
        throw bad("layer log disagrees with the resume layer");
      }
      const std::vector<std::uint64_t>& words = reader.section(kSecPastWords);
      std::size_t off = 0;
      for (const std::uint32_t len : lens) {
        if (len > words.size() - off) throw bad("truncated layer log");
        past.append(words.data() + off, len);
        off += len;
      }
      if (off != words.size()) throw bad("trailing layer log words");
    }
    result.resumed = true;
    MCP_CHECKED_ONLY({
      for (const PackedFront& front : layer.fronts) validate_front(front, p);
      interner.validate();
    });
  } else {
    std::vector<std::uint64_t> start(stride);
    system.initial(start.data());
    interner.intern(start.data());  // id 0
    layer.ids.push_back(0);
    layer.fronts.emplace_back();
    layer.fronts.back().faults.assign(p, 0);
    layer.fronts.back().prov.push_back(ParetoProv{});
    if (schedule) {
      const std::vector<std::uint64_t> rec = serialize_layer_prov(layer);
      past.append(rec.data(), rec.size());
    }
  }

  // Interned id -> state index in the layer being merged, stamped per layer
  // so the map never needs clearing (ids are dense).
  std::vector<std::uint32_t> id_stamp;
  std::vector<std::uint32_t> id_index;
  std::uint32_t stamp = 0;

  PackedTransitionSystem::StepScratch scratch;
  std::vector<std::uint32_t> advanced(p);

  // Retired fronts and layer shells, recycled so the steady-state loop stops
  // allocating (only meaningful without schedule retention).
  std::vector<PackedFront> spare_fronts;
  PackedLayer spare_layer;
  PackedLayer sort_buf;
  std::vector<std::uint32_t> order;

  std::uint32_t checkpoints_written = 0;
  for (Time t = start_t; t < instance.deadline; ++t) {
    // Early success: a finished state's fault vector is frozen, and every
    // vector still alive satisfies the bounds by construction.  Scanning in
    // ascending id order makes the witness choice canonical.
    for (std::size_t s = 0; s < layer.ids.size(); ++s) {
      if (system.is_terminal(interner.state(layer.ids[s])) &&
          layer.fronts[s].size() > 0) {
        result.feasible = true;
        result.decided_at = t;
        if (schedule) {
          result.schedule = reconstruct_logged(
              past, past.size() - 1, static_cast<std::uint32_t>(s), 0);
        }
        finalize();
        return result;
      }
    }

    const std::size_t num_states = layer.ids.size();
    PackedLayer next = std::move(spare_layer);
    next.ids.clear();
    next.evict_pool.clear();
    for (PackedFront& front : next.fronts) {
      spare_fronts.push_back(std::move(front));
    }
    next.fronts.clear();
    next.ids.reserve(num_states);
    next.fronts.reserve(num_states);
    ++stamp;

    // Allocation sentry (PifOptions::alloc_guard_after_layer): past the
    // declared warm-up, the rest of the layer runs guarded.  Every amortized
    // growth point below carries a scoped AllocAllow naming what it grows;
    // anything else that allocates throws.
    const bool guard_layer = options.alloc_guard_after_layer != 0 &&
                             t >= options.alloc_guard_after_layer;
    std::optional<AllocGuard> layer_guard;
    if (guard_layer) layer_guard.emplace("pif layer loop");

    const auto insert_emission = [&](std::uint32_t nid,
                                     const std::uint32_t* fv,
                                     std::uint32_t src_state,
                                     std::uint32_t src_entry,
                                     const PageId* evictions,
                                     std::uint32_t num_evictions) {
      if (nid >= id_stamp.size()) {
        // Headroom so the maps don't resize on every freshly interned id.
        AllocAllow allow;  // declared growth: id-map headroom
        id_stamp.resize(interner.size() + 256, 0);
        id_index.resize(interner.size() + 256, 0);
      }
      std::uint32_t idx;
      if (id_stamp[nid] != stamp) {
        // Declared growth: layer id/front tables (recycled across layers;
        // they grow only when a layer widens past every layer before it).
        AllocAllow allow;
        id_stamp[nid] = stamp;
        idx = static_cast<std::uint32_t>(next.ids.size());
        id_index[nid] = idx;
        next.ids.push_back(nid);
        if (spare_fronts.empty()) {
          next.fronts.emplace_back();
        } else {
          next.fronts.push_back(std::move(spare_fronts.back()));
          spare_fronts.pop_back();
          next.fronts.back().faults.clear();
          next.fronts.back().prov.clear();
        }
      } else {
        idx = id_index[nid];
      }
      ParetoProv prov;
      prov.parent_state = src_state;
      prov.parent_entry = src_entry;
      if (schedule) {
        prov.evict_off = static_cast<std::uint32_t>(next.evict_pool.size());
        prov.evict_len = num_evictions;
      }
      if (pareto_insert_packed(next.fronts[idx], p, fv, prov) && schedule &&
          num_evictions > 0) {
        AllocAllow allow;  // declared growth: schedule-mode eviction pool
        next.evict_pool.insert(next.evict_pool.end(), evictions,
                               evictions + num_evictions);
      }
    };

    // Walk (state, outcome, surviving entry) in id order, interning each
    // successor on its first surviving emission.
    for (std::size_t s = 0; s < num_states; ++s) {
      const PackedFront& front = layer.fronts[s];
      system.expand(interner.state(layer.ids[s]), scratch,
                    [&](const PackedOutcome& outcome) {
        std::uint32_t nid = StateInterner::kNoState;
        for (std::size_t v = 0; v < front.size(); ++v) {
          std::copy_n(front.entry(p, v), p, advanced.begin());
          bool alive = true;
          for (std::size_t j = 0; j < p; ++j) {
            if ((outcome.faulted_cores >> j) & 1u) {
              if (++advanced[j] > instance.bounds[j]) {
                alive = false;
                break;
              }
            }
          }
          if (!alive) continue;
          if (nid == StateInterner::kNoState) {
            nid = interner.intern(outcome.next).first;
          }
          insert_emission(
              nid, advanced.data(), static_cast<std::uint32_t>(s),
              static_cast<std::uint32_t>(v), outcome.evictions.data(),
              static_cast<std::uint32_t>(outcome.evictions.size()));
        }
      });
    }
    result.states_expanded += num_states;

    // Sort the merged layer by id so the next round's expansion order,
    // terminal scan, and witness choice are canonical.  `sort_buf` ping-pongs with
    // `next`'s buffers across layers, so the rebuild allocates nothing in
    // steady state (and is skipped entirely when the merge order happens to
    // be id-sorted already).
    if (!std::is_sorted(next.ids.begin(), next.ids.end())) {
      AllocAllow allow;  // declared growth: recycled order/sort buffers
      order.resize(next.ids.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&next](std::uint32_t a, std::uint32_t b) {
                  return next.ids[a] < next.ids[b];
                });
      sort_buf.ids.clear();
      sort_buf.fronts.clear();
      sort_buf.ids.reserve(next.ids.size());
      sort_buf.fronts.reserve(next.fronts.size());
      sort_buf.evict_pool = std::move(next.evict_pool);
      for (std::uint32_t i : order) {
        sort_buf.ids.push_back(next.ids[i]);
        sort_buf.fronts.push_back(std::move(next.fronts[i]));
      }
      std::swap(next, sort_buf);
    }

    // The settled layer's provenance moves into the log (schedule mode) and
    // its buffers return to the recycling pools — one layer materialized in
    // either mode.  Checkpoint serialization below is declared outside the
    // §10 steady-state allocation claim, so the layer guard ends here.
    layer_guard.reset();
    {
      // Declared growth: layer/front recycling pools and the layer log.
      AllocAllow allow;
      if (schedule) {
        const std::vector<std::uint64_t> rec = serialize_layer_prov(next);
        past.append(rec.data(), rec.size());
      }
      spare_layer = std::move(layer);
      for (PackedFront& front : spare_layer.fronts) {
        spare_fronts.push_back(std::move(front));
      }
      spare_layer.fronts.clear();
      layer = std::move(next);
    }

    // Checked builds: every merged front is strictly sorted, duplicate-free
    // and Pareto-minimal, and the interner stays structurally sound as the
    // layer's successors were interned into it.
    MCP_CHECKED_ONLY({
      for (const PackedFront& front : layer.fronts) {
        validate_front(front, p);
      }
      interner.validate();
    });

    result.peak_layer_width = std::max(result.peak_layer_width, layer.width());
    if (options.max_layer_width != 0 &&
        result.peak_layer_width > options.max_layer_width) {
      throw_width_limit(result, interner);
    }
    if (layer.ids.empty()) {  // every branch blew a bound
      result.feasible = false;
      result.decided_at = t + 1;
      finalize();
      return result;
    }

    if (options.checkpoint.enabled() &&
        (t + 1) % options.checkpoint.every == 0) {
      checkpoint::Writer writer(checkpoint::kKindPif, fp);
      const std::size_t count = interner.size();
      const std::uint64_t scalars[4] = {t + 1, result.states_expanded,
                                        result.peak_layer_width, count};
      writer.section(kSecScalars, scalars, 4);
      {
        std::vector<std::uint64_t> arena;
        arena.reserve(count * stride);
        std::vector<std::uint64_t> hashes;
        hashes.reserve(count);
        for (std::uint32_t id = 0; id < count; ++id) {
          const std::uint64_t* words = interner.state(id);
          arena.insert(arena.end(), words, words + stride);
          hashes.push_back(interner.stored_hash(id));
        }
        writer.section(kSecArena, arena);
        writer.section(kSecHashes, hashes);
      }
      writer.section(kSecLayerIds, checkpoint::pack_u32(layer.ids));
      {
        std::vector<std::uint32_t> sizes;
        std::vector<std::uint32_t> faults;
        std::vector<std::uint32_t> prov;
        for (const PackedFront& front : layer.fronts) {
          sizes.push_back(static_cast<std::uint32_t>(front.size()));
          faults.insert(faults.end(), front.faults.begin(),
                        front.faults.end());
          if (schedule) {
            for (const ParetoProv& pr : front.prov) {
              prov.push_back(pr.parent_state);
              prov.push_back(pr.parent_entry);
              prov.push_back(pr.evict_off);
              prov.push_back(pr.evict_len);
            }
          }
        }
        writer.section(kSecLayerSizes, checkpoint::pack_u32(sizes));
        writer.section(kSecLayerFaults, checkpoint::pack_u32(faults));
        if (schedule) {
          writer.section(kSecLayerProv, checkpoint::pack_u32(prov));
          writer.section(kSecLayerEvicts,
                         checkpoint::pack_u32(layer.evict_pool));
          std::vector<std::uint32_t> lens;
          std::vector<std::uint64_t> log_words;
          std::vector<std::uint64_t> rec;
          for (std::size_t i = 0; i < past.size(); ++i) {
            past.read(i, rec);
            lens.push_back(static_cast<std::uint32_t>(rec.size()));
            log_words.insert(log_words.end(), rec.begin(), rec.end());
          }
          writer.section(kSecPastIndex, checkpoint::pack_u32(lens));
          writer.section(kSecPastWords, log_words);
        }
      }
      writer.write(options.checkpoint.path);
      ++checkpoints_written;
      if (options.checkpoint.halt_after_checkpoints != 0 &&
          checkpoints_written >= options.checkpoint.halt_after_checkpoints) {
        throw SolveInterrupted("solve_pif: halted after " +
                               std::to_string(checkpoints_written) +
                               " checkpoint(s)");
      }
    }
  }

  result.feasible = !layer.ids.empty();
  result.decided_at = instance.deadline;
  if (result.feasible && schedule) {
    result.schedule = reconstruct_logged(past, past.size() - 1, 0, 0);
  }
  finalize();
  return result;
}

bool verify_pif_witness(const PifInstance& instance,
                        const std::vector<PageId>& schedule) {
  instance.validate();
  ReplayStrategy strategy(schedule, ReplayStrategy::OnExhausted::kFallbackLru);
  Simulator sim(instance.base.sim_config());
  const RunStats stats = sim.run(instance.base.requests, strategy);
  return stats.within_bounds_at(instance.deadline, instance.bounds);
}

}  // namespace mcp
