#include "offline/ftf_solver.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "core/sentry.hpp"
#include "core/thread_pool.hpp"
#include "offline/packed_space.hpp"
#include "offline/packed_state.hpp"

namespace mcp {

namespace {

/// The interner knows its memory story, so capacity failures are
/// diagnosable from the message alone.
[[noreturn]] void throw_state_limit(std::size_t expanded,
                                    const StateInterner& interner) {
  std::ostringstream os;
  os << "solve_ftf: state limit exceeded (states_expanded=" << expanded
     << ", states_stored=" << interner.size()
     << ", arena_bytes=" << interner.arena_bytes()
     << ", peak_bytes_in_ram=" << interner.peak_bytes_in_ram()
     << ", table_load_factor=" << std::fixed << std::setprecision(3)
     << interner.load_factor() << ", bytes_spilled=" << interner.bytes_spilled()
     << ")";
  throw ModelError(os.str());
}

[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

[[nodiscard]] std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Dial's algorithm (bucket queue) over interned packed ids.
// One timestep costs 0..p faults, so distances are dense small integers and
// buckets replace the binary heap: O(1) push, monotone non-decreasing pops.
// All per-node metadata is flat vectors indexed by interned id.
//
// Parallel expansion (FtfOptions::workers != 1, no spill budget): bucket d
// is processed as *waves*.  A serial pre-scan walks the next <= kWaveCap
// entries, replaying the serial loop's pop/staleness bookkeeping, and
// collects the live entries; the wave is partitioned into fixed-size
// chunks expanded on mcp::ThreadPool against the frozen interner and
// distance array; a second parallel pass resolves duplicates; chunk
// emissions are then merged serially in chunk order.  This is
// bit-identical to the serial loop because nothing a bucket-d expansion
// does can change the pre-scanned facts: relaxations have nd >= d, so they
// can neither flip the staleness of another bucket-d entry (its dist is
// already <= d) nor its terminality (a property of the state words, which
// are immutable once interned), and the merge replays relaxations —
// including the per-entry max_states abort and the stop-at-first-terminal
// cut — in the exact serial order.
//
// Three kinds of serial work are hoisted onto the workers, leaving the
// merge with little more than id assignment and bucket pushes:
//
//  * chunks check terminality themselves (states after a terminal are
//    expanded speculatively; the merge discards everything from the first
//    terminal entry on, exactly where the serial loop stops);
//  * chunks pre-hash emissions and drop any whose frozen dist[target] <=
//    nd (the merge only ever lowers dist, so the serial relaxation would
//    be a no-op too);
//  * a sharded dedup pass resolves the surviving *unresolved* emissions:
//    emissions are owned by shards keyed on their hash's top bits, and
//    every shard scans the chunks in serial-emission order, so the winner
//    of each distinct new state is its serial-first occurrence at any
//    worker count.  The merge then interns winners with a probe-for-free-
//    slot-only insert (StateInterner::insert_absent_hashed — no word
//    compares) and resolves losers with one array lookup.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kUnreached = 0xFFFFFFFFu;

/// Wave/chunk geometry.  Fixed constants — they shape the deterministic
/// merge order, so they must not depend on the worker count.
constexpr std::size_t kWaveCap = 2048;
constexpr std::size_t kFtfChunkStates = 8;
/// Shard count of the parallel dedup pass.  Fixed — shard ownership is part
/// of the deterministic merge contract, so it must not depend on workers.
constexpr std::size_t kDedupShards = 16;
/// FtfWaveChunk::dedup marker: this emission is the serial-first occurrence
/// of its state (all other values are the winner's wave-global ordinal).
constexpr std::uint32_t kDedupWinner = 0xFFFFFFFFu;

/// Emissions of one expansion chunk, recorded in serial sink order.
struct FtfWaveChunk {
  std::vector<std::uint8_t> terminals;      ///< per wave entry (stops chunk)
  std::vector<std::uint32_t> entry_counts;  ///< kept emissions per wave entry
  // Per kept emission:
  std::vector<std::uint32_t> resolved;  ///< frozen-table id, or kNoState
  std::vector<std::uint32_t> nds;       ///< tentative distance
  std::vector<std::uint32_t> evict_lens;  ///< schedule mode
  std::vector<PageId> evicts;             ///< schedule mode, concatenated
  // Per *unresolved* emission (resolved == kNoState):
  std::vector<std::uint64_t> hashes;  ///< pre-computed hash_words
  std::vector<std::uint64_t> words;   ///< stride words each
  std::vector<std::uint32_t> dedup;   ///< kDedupWinner or winner ordinal
  /// Unresolved-emission indices bucketed by owning dedup shard (emission
  /// order within each bucket), so a dedup shard visits exactly its own
  /// emissions instead of scanning every chunk's full list.
  std::array<std::vector<std::uint32_t>, kDedupShards> shard_emissions;
  PackedTransitionSystem::StepScratch scratch;
  std::uint64_t busy_ns = 0;  ///< thread CPU ns of the last expansion pass

  void clear() {
    terminals.clear();
    entry_counts.clear();
    resolved.clear();
    nds.clear();
    evict_lens.clear();
    evicts.clear();
    hashes.clear();
    words.clear();
    dedup.clear();
    for (auto& bucket : shard_emissions) bucket.clear();
  }
};

/// One slot of the wave-scoped dedup table (generation-stamped: bumping
/// `gen` empties every slot without touching memory).
struct FtfDedupSlot {
  std::uint64_t hash = 0;
  const std::uint64_t* words = nullptr;
  std::uint32_t ordinal = 0;
  std::uint32_t gen = 0;
};

/// Fingerprint binding a checkpoint to (instance, trajectory-affecting
/// options).  Workers, storage budget, and sentry knobs are deliberately
/// excluded: they do not change any solve result.
std::uint64_t ftf_fingerprint(const OfflineInstance& instance,
                              const FtfOptions& options) {
  std::uint64_t h = checkpoint::fingerprint(instance);
  h = checkpoint::fold(h, static_cast<std::uint64_t>(options.victim_rule));
  h = checkpoint::fold(h, options.build_schedule ? 1 : 0);
  h = checkpoint::fold(h, options.max_states);
  return checkpoint::fold(h, checkpoint::kKindFtf);
}

// Checkpoint section tags (FTF).
constexpr std::uint32_t kSecScalars = 1;
constexpr std::uint32_t kSecArena = 2;
constexpr std::uint32_t kSecHashes = 3;
constexpr std::uint32_t kSecDist = 4;
constexpr std::uint32_t kSecBuckets = 5;
constexpr std::uint32_t kSecParent = 6;
constexpr std::uint32_t kSecEvictOff = 7;
constexpr std::uint32_t kSecEvictLen = 8;
constexpr std::uint32_t kSecEvictPool = 9;

}  // namespace

FtfResult solve_ftf(const OfflineInstance& instance, const FtfOptions& options) {
  const PackedTransitionSystem system(instance, options.victim_rule);
  const std::size_t stride = system.state_words();
  const bool schedule = options.build_schedule;
  const bool spill = options.storage.active();

  StateInterner interner(stride, options.storage);
  interner.reserve(
      options.expected_states != 0 ? options.expected_states : 4096);
  PackedTransitionSystem::StepScratch scratch;

  std::vector<std::uint32_t> dist;      // id -> best known distance
  std::vector<std::uint32_t> parent;    // id -> predecessor id (schedule mode)
  std::vector<std::uint32_t> evict_off; // id -> offset into evict_pool
  std::vector<std::uint16_t> evict_len; // id -> eviction count of best step
  std::vector<PageId> evict_pool;       // append-only flat eviction storage
  std::vector<std::vector<std::uint32_t>> buckets;

  FtfResult result;
  std::uint32_t goal = StateInterner::kNoState;
  std::uint32_t start_bucket = 0;
  const std::uint64_t fp = ftf_fingerprint(instance, options);

  if (options.checkpoint.resume) {
    // Rebuild every structure from the snapshot.  Re-interning the blocks in
    // id order reproduces the ids exactly; the hash table's internal layout
    // after the rebuild is irrelevant to any observable result.
    const checkpoint::Reader reader(options.checkpoint.path,
                                    checkpoint::kKindFtf, fp);
    const std::vector<std::uint64_t>& scalars = reader.section(kSecScalars);
    if (scalars.size() != 3)
      throw InputError("checkpoint '" + options.checkpoint.path +
                       "': malformed scalar section");
    start_bucket = static_cast<std::uint32_t>(scalars[0]);
    result.states_expanded = static_cast<std::size_t>(scalars[1]);
    const std::size_t count = static_cast<std::size_t>(scalars[2]);
    const std::vector<std::uint64_t>& arena = reader.section(kSecArena);
    const std::vector<std::uint64_t>& hashes = reader.section(kSecHashes);
    if (arena.size() != count * stride || hashes.size() != count)
      throw InputError("checkpoint '" + options.checkpoint.path +
                       "': arena sections disagree with the state count");
    interner.reserve(count);
    for (std::size_t id = 0; id < count; ++id) {
      const auto [nid, inserted] =
          interner.intern_hashed(arena.data() + id * stride, hashes[id]);
      if (!inserted || nid != id)
        throw InputError("checkpoint '" + options.checkpoint.path +
                         "': duplicate state in arena section");
    }
    reader.section_u32(kSecDist, dist);
    if (dist.size() != count)
      throw InputError("checkpoint '" + options.checkpoint.path +
                       "': distance array disagrees with the state count");
    std::vector<std::uint32_t> flat;
    reader.section_u32(kSecBuckets, flat);
    std::size_t pos = 0;
    const auto next_flat = [&]() -> std::uint32_t {
      if (pos >= flat.size())
        throw InputError("checkpoint '" + options.checkpoint.path +
                         "': truncated bucket section");
      return flat[pos++];
    };
    const std::uint32_t num_buckets = next_flat();
    buckets.resize(num_buckets);
    for (std::uint32_t b = 0; b < num_buckets; ++b) {
      const std::uint32_t len = next_flat();
      buckets[b].reserve(len);
      for (std::uint32_t i = 0; i < len; ++i) {
        const std::uint32_t id = next_flat();
        if (id >= count)
          throw InputError("checkpoint '" + options.checkpoint.path +
                           "': bucket entry out of range");
        buckets[b].push_back(id);
      }
    }
    if (schedule) {
      reader.section_u32(kSecParent, parent);
      reader.section_u32(kSecEvictOff, evict_off);
      std::vector<std::uint32_t> wide_len;
      reader.section_u32(kSecEvictLen, wide_len);
      reader.section_u32(kSecEvictPool, evict_pool);
      if (parent.size() != count || evict_off.size() != count ||
          wide_len.size() != count)
        throw InputError("checkpoint '" + options.checkpoint.path +
                         "': schedule sections disagree with the state count");
      evict_len.resize(count);
      for (std::size_t id = 0; id < count; ++id)
        evict_len[id] = static_cast<std::uint16_t>(wide_len[id]);
    }
    result.resumed = true;
  } else {
    std::vector<std::uint64_t> start(stride);
    system.initial(start.data());
    interner.intern(start.data());
    dist.push_back(0);
    if (schedule) {
      parent.push_back(StateInterner::kNoState);
      evict_off.push_back(0);
      evict_len.push_back(0);
    }
    buckets.emplace_back();
    buckets[0].push_back(0);
  }

  // Entries still queued.  Checkpoints are cut at bucket boundaries, with
  // every settled bucket already cleared, so the sum over the live buckets
  // is exact on both fresh and resumed solves.
  std::size_t pending = 0;
  for (const std::vector<std::uint32_t>& bucket : buckets)
    pending += bucket.size();

  // The chunked path needs frozen-interner concurrent reads, which the
  // spill layer's residency bookkeeping cannot provide — budgeted solves
  // run the serial loop.
  const bool chunked = options.workers != 1 && !spill;
  std::vector<FtfWaveChunk> chunks;
  std::vector<std::uint32_t> wave;
  // Wave-scoped dedup structures (chunked path), recycled across waves.
  std::vector<FtfDedupSlot> dedup_table;   // kDedupShards slices of shard_cap
  std::size_t dedup_shard_cap = 0;         // slots per shard (power of two)
  std::uint32_t dedup_gen = 0;             // current wave's generation stamp
  std::array<std::uint64_t, kDedupShards> dedup_busy{};
  std::vector<std::uint32_t> chunk_base;   // chunk -> first unresolved ordinal
  std::vector<std::uint32_t> merge_nids;   // unresolved ordinal -> merged id
  std::uint32_t checkpoints_written = 0;

  // Relaxation shared by the serial sink and the chunk merge — exactly the
  // serial order of side effects.
  const auto relax = [&](std::uint32_t nid, bool inserted, std::uint32_t nd,
                         std::uint32_t from, const PageId* ev,
                         std::uint32_t ev_count) {
    if (inserted) {
      dist.push_back(kUnreached);
      if (schedule) {
        parent.push_back(StateInterner::kNoState);
        evict_off.push_back(0);
        evict_len.push_back(0);
      }
    }
    if (dist[nid] <= nd) return;
    dist[nid] = nd;
    if (schedule) {
      parent[nid] = from;
      evict_off[nid] = static_cast<std::uint32_t>(evict_pool.size());
      evict_len[nid] = static_cast<std::uint16_t>(ev_count);
      evict_pool.insert(evict_pool.end(), ev, ev + ev_count);
    }
    if (nd >= buckets.size()) buckets.resize(nd + 1);
    buckets[nd].push_back(nid);
    ++pending;
  };

  for (std::uint32_t d = start_bucket;
       pending > 0 && goal == StateInterner::kNoState; ++d) {
    MCP_ASSERT(d < buckets.size());
    if (!chunked) {
      // Zero-fault self-distance steps append to buckets[d] mid-iteration:
      // index, don't iterate.
      for (std::size_t i = 0; i < buckets[d].size(); ++i) {
        const std::uint32_t id = buckets[d][i];
        --pending;
        if (dist[id] != d) continue;  // stale entry
        if (system.is_terminal(interner.state(id))) {
          goal = id;
          result.min_faults = d;
          break;
        }
        if (options.max_states != 0 && interner.size() > options.max_states) {
          throw_state_limit(result.states_expanded, interner);
        }
        ++result.states_expanded;

        // Allocation sentry (FtfOptions::alloc_guard): every expansion after
        // the first (which warms the step scratch) runs guarded — only the
        // relaxation sink below, a declared amortized growth point, may
        // allocate; an allocation inside the expansion kernel itself throws.
        std::optional<AllocGuard> expand_guard;
        if (options.alloc_guard && result.states_expanded > 1) {
          expand_guard.emplace("ftf expansion kernel");
        }

        system.expand(interner.state(id), scratch,
                      [&](const PackedOutcome& outcome) {
          // Declared growth: the relaxation sink's flat arrays (interner
          // arena/table via intern(), distance/parent/eviction arrays,
          // bucket queue) all grow amortized as new states are discovered.
          AllocAllow allow;
          const std::uint32_t nd =
              d + static_cast<std::uint32_t>(outcome.fault_count());
          const auto [nid, inserted] = interner.intern(outcome.next);
          relax(nid, inserted, nd, id,
                outcome.evictions.data(),
                static_cast<std::uint32_t>(outcome.evictions.size()));
        });
      }
    } else {
      std::size_t i = 0;
      while (i < buckets[d].size() && goal == StateInterner::kNoState) {
        // Serial pre-scan: replay the pop/staleness bookkeeping for the
        // next wave.  Terminality is checked by the workers — the merge
        // stops at the first terminal entry, exactly where the serial loop
        // stops.
        wave.clear();
        const std::size_t scan_end = std::min(buckets[d].size(), i + kWaveCap);
        for (std::size_t j = i; j < scan_end; ++j) {
          const std::uint32_t id = buckets[d][j];
          --pending;
          if (dist[id] != d) continue;  // stale entry
          wave.push_back(id);
        }
        i = scan_end;

        if (!wave.empty()) {
          const std::size_t num_chunks =
              (wave.size() + kFtfChunkStates - 1) / kFtfChunkStates;
          {
            // Declared growth: per-chunk buffers appear as waves widen.
            AllocAllow allow;
            if (chunks.size() < num_chunks) chunks.resize(num_chunks);
          }
          const auto expand_chunk = [&](std::size_t c) {
            const std::uint64_t cpu0 = thread_cpu_ns();
            FtfWaveChunk& out = chunks[c];
            out.clear();
            {
              // Declared growth: first-use warm-up — a chunk index first
              // used on a later (wider) wave starts with cold scratch.
              AllocAllow allow;
              out.scratch.work.reserve(stride);
              out.scratch.locked.reserve(stride);
              out.scratch.evictions.reserve(system.num_cores());
            }
            std::optional<AllocGuard> chunk_guard;
            if (options.alloc_guard) {
              chunk_guard.emplace("ftf expansion chunk");
            }
            const std::size_t begin = c * kFtfChunkStates;
            const std::size_t end =
                std::min(wave.size(), begin + kFtfChunkStates);
            for (std::size_t s = begin; s < end; ++s) {
              const std::uint64_t* state = interner.state(wave[s]);
              if (system.is_terminal(state)) {
                // The merge discards this entry and everything after it;
                // later chunks expand speculatively (dead work only on the
                // solve's final wave).
                AllocAllow terminal_allow;
                out.terminals.push_back(1);
                out.entry_counts.push_back(0);
                break;
              }
              std::uint32_t count = 0;
              system.expand(state, out.scratch,
                            [&](const PackedOutcome& outcome) {
                const std::uint32_t nd =
                    d + static_cast<std::uint32_t>(outcome.fault_count());
                const std::uint64_t hash =
                    StateInterner::hash_words(outcome.next, stride);
                const std::uint32_t rid = interner.find(outcome.next, hash);
                // Frozen-distance drop: the merge only ever lowers dist, so
                // dist[rid] <= nd now means the serial relaxation would be
                // a no-op at merge time too.
                if (rid != StateInterner::kNoState && dist[rid] <= nd) return;
                // Declared growth: wave emission buffers (recycled; grow
                // only while a wave widens past the chunk's past peaks).
                AllocAllow allow;
                out.resolved.push_back(rid);
                out.nds.push_back(nd);
                if (rid == StateInterner::kNoState) {
                  out.shard_emissions[(hash >> 60) % kDedupShards].push_back(
                      static_cast<std::uint32_t>(out.hashes.size()));
                  out.hashes.push_back(hash);
                  out.words.insert(out.words.end(), outcome.next,
                                   outcome.next + stride);
                }
                if (schedule) {
                  out.evict_lens.push_back(
                      static_cast<std::uint32_t>(outcome.evictions.size()));
                  out.evicts.insert(out.evicts.end(),
                                    outcome.evictions.begin(),
                                    outcome.evictions.end());
                }
                ++count;
              });
              AllocAllow allow;  // declared growth: per-entry buffers
              out.terminals.push_back(0);
              out.entry_counts.push_back(count);
            }
            out.busy_ns = thread_cpu_ns() - cpu0;
          };
          const std::uint64_t wall0 = wall_ns();
          {
            // Declared growth: pool dispatch packages the chunk tasks on
            // the heap.
            AllocAllow allow;
            ThreadPool::global().run_indexed(num_chunks, expand_chunk,
                                             options.workers);
          }

          // Sharded dedup of the unresolved emissions (parallel): shard
          // ownership is keyed on the hash's top bits, and every shard
          // scans the chunks in serial-emission order, so the winner of
          // each distinct new state is its serial-first occurrence at any
          // worker count.
          std::uint32_t total_unres = 0;
          {
            AllocAllow allow;  // declared growth: dedup directory/table
            if (chunk_base.size() < num_chunks) chunk_base.resize(num_chunks);
            for (std::size_t c = 0; c < num_chunks; ++c) {
              chunk_base[c] = total_unres;
              total_unres +=
                  static_cast<std::uint32_t>(chunks[c].hashes.size());
              chunks[c].dedup.resize(chunks[c].hashes.size());
            }
            std::size_t cap = 16;
            while (cap < 2 * static_cast<std::size_t>(total_unres)) cap <<= 1;
            if (cap > dedup_shard_cap) {
              dedup_shard_cap = cap;
              dedup_table.assign(kDedupShards * cap, FtfDedupSlot{});
              dedup_gen = 0;  // fresh slots: restart the generation stamps
            }
            if (merge_nids.size() < total_unres) merge_nids.resize(total_unres);
          }
          if (total_unres > 0) {
            ++dedup_gen;
            const auto dedup_shard = [&](std::size_t s) {
              const std::uint64_t cpu0 = thread_cpu_ns();
              std::optional<AllocGuard> shard_guard;
              if (options.alloc_guard) shard_guard.emplace("ftf dedup shard");
              const std::size_t mask = dedup_shard_cap - 1;
              FtfDedupSlot* slots = dedup_table.data() + s * dedup_shard_cap;
              for (std::size_t c = 0; c < num_chunks; ++c) {
                FtfWaveChunk& out = chunks[c];
                for (const std::uint32_t u : out.shard_emissions[s]) {
                  const std::uint64_t h = out.hashes[u];
                  const std::uint64_t* w = out.words.data() + u * stride;
                  std::size_t slot = static_cast<std::size_t>(h) & mask;
                  for (;;) {
                    FtfDedupSlot& cand = slots[slot];
                    if (cand.gen != dedup_gen) {
                      cand.hash = h;
                      cand.words = w;
                      cand.ordinal =
                          chunk_base[c] + static_cast<std::uint32_t>(u);
                      cand.gen = dedup_gen;
                      out.dedup[u] = kDedupWinner;
                      break;
                    }
                    if (cand.hash == h &&
                        std::memcmp(cand.words, w,
                                    stride * sizeof(std::uint64_t)) == 0) {
                      out.dedup[u] = cand.ordinal;
                      break;
                    }
                    slot = (slot + 1) & mask;
                  }
                }
              }
              dedup_busy[s] = thread_cpu_ns() - cpu0;
            };
            {
              AllocAllow allow;  // declared growth: pool dispatch
              ThreadPool::global().run_indexed(kDedupShards, dedup_shard,
                                               options.workers);
            }
            for (const std::uint64_t busy : dedup_busy)
              result.expand_busy_ns += busy;
          }
          result.expand_wall_ns += wall_ns() - wall0;
          for (std::size_t c = 0; c < num_chunks; ++c)
            result.expand_busy_ns += chunks[c].busy_ns;

          // Serial merge in chunk order — the exact serial interleaving,
          // including the terminal cut and the per-entry max_states aborts.
          AllocAllow allow;  // declared growth: relaxation arrays (as serial)
          for (std::size_t c = 0;
               c < num_chunks && goal == StateInterner::kNoState; ++c) {
            const FtfWaveChunk& out = chunks[c];
            std::size_t e = 0;   // emission cursor
            std::size_t uw = 0;  // unresolved-emission cursor
            std::size_t ev = 0;  // eviction cursor
            for (std::size_t le = 0; le < out.entry_counts.size(); ++le) {
              const std::uint32_t id = wave[c * kFtfChunkStates + le];
              if (out.terminals[le] != 0) {
                goal = id;
                result.min_faults = d;
                break;
              }
              if (options.max_states != 0 &&
                  interner.size() > options.max_states) {
                throw_state_limit(result.states_expanded, interner);
              }
              ++result.states_expanded;
              const std::uint32_t count = out.entry_counts[le];
              for (std::uint32_t k = 0; k < count; ++k, ++e) {
                std::uint32_t nid = out.resolved[e];
                bool inserted = false;
                if (nid == StateInterner::kNoState) {
                  if (out.dedup[uw] == kDedupWinner) {
                    nid = interner.insert_absent_hashed(
                        out.words.data() + uw * stride, out.hashes[uw]);
                    inserted = true;
                  } else {
                    nid = merge_nids[out.dedup[uw]];
                  }
                  merge_nids[chunk_base[c] + uw] = nid;
                  ++uw;
                }
                const std::uint32_t ev_count =
                    schedule ? out.evict_lens[e] : 0;
                const PageId* evp = out.evicts.data() + ev;
                ev += ev_count;
                relax(nid, inserted, out.nds[e], id, evp, ev_count);
              }
            }
          }
        }
      }
    }

    // Bucket d is settled: no relaxation can ever target it again (nd >= d),
    // so its queue storage is dead — free it now, keeping the live-bucket
    // suffix as the only queue memory (the Dial queue's settled prefix is
    // the first thing to go under memory pressure).
    std::vector<std::uint32_t>().swap(buckets[d]);

    if (goal == StateInterner::kNoState && pending > 0 &&
        options.checkpoint.enabled() &&
        (d + 1) % std::max<std::uint32_t>(options.checkpoint.every, 1) == 0) {
      checkpoint::Writer writer(checkpoint::kKindFtf, fp);
      const std::size_t count = interner.size();
      const std::vector<std::uint64_t> scalars = {
          d + 1, result.states_expanded, count};
      writer.section(kSecScalars, scalars);
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
      writer.section(kSecDist, checkpoint::pack_u32(dist));
      std::vector<std::uint32_t> flat;
      flat.push_back(static_cast<std::uint32_t>(buckets.size()));
      for (const std::vector<std::uint32_t>& bucket : buckets) {
        flat.push_back(static_cast<std::uint32_t>(bucket.size()));
        flat.insert(flat.end(), bucket.begin(), bucket.end());
      }
      writer.section(kSecBuckets, checkpoint::pack_u32(flat));
      if (schedule) {
        writer.section(kSecParent, checkpoint::pack_u32(parent));
        writer.section(kSecEvictOff, checkpoint::pack_u32(evict_off));
        std::vector<std::uint32_t> wide_len(evict_len.begin(),
                                            evict_len.end());
        writer.section(kSecEvictLen, checkpoint::pack_u32(wide_len));
        writer.section(kSecEvictPool, checkpoint::pack_u32(evict_pool));
      }
      writer.write(options.checkpoint.path);
      ++checkpoints_written;
      if (options.checkpoint.halt_after_checkpoints != 0 &&
          checkpoints_written >= options.checkpoint.halt_after_checkpoints) {
        throw SolveInterrupted(
            "solve_ftf: halted by test hook after " +
            std::to_string(checkpoints_written) + " checkpoints");
      }
    }
  }

  MCP_REQUIRE(goal != StateInterner::kNoState,
              "solve_ftf: no terminal state reachable");
  result.states_stored = interner.size();
  result.arena_bytes = interner.arena_bytes();
  result.peak_bytes_in_ram = interner.peak_bytes_in_ram();
  result.bytes_spilled = interner.bytes_spilled();
  // Checked builds: the interner is structurally sound after the search.
  MCP_CHECKED_ONLY(interner.validate());

  if (schedule) {
    // Walk parent ids back to the start; flatten per-step eviction spans in
    // forward order.
    std::vector<std::uint32_t> chain;
    for (std::uint32_t cur = goal; parent[cur] != StateInterner::kNoState;
         cur = parent[cur]) {
      chain.push_back(cur);
    }
    std::reverse(chain.begin(), chain.end());
    for (std::uint32_t cur : chain) {
      const PageId* first = evict_pool.data() + evict_off[cur];
      result.schedule.insert(result.schedule.end(), first,
                             first + evict_len[cur]);
    }
    MCP_ASSERT(result.schedule.size() == result.min_faults);
  }
  return result;
}

}  // namespace mcp
