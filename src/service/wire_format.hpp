// mcpwire v1 — the binary, zero-copy trace/request wire format of the mcpd
// service layer (docs/MCPD.md has the full spec tables).
//
// A wire *document* is a contiguous little-endian byte buffer (a file, an
// mmap'd region, or an in-process message) laid out as:
//
//   magic "MCPWIRE1" (8 bytes)
//   frame*
//
// and every frame is
//
//   u32 type        FrameType below
//   u32 payload_len bytes, always a multiple of 8 (alignment invariant)
//   u64 session     session id the frame addresses
//   payload_len bytes of payload
//
// so a reader walks frames with header arithmetic only and hands out
// *views* into the buffer — request chunks are never re-parsed per request
// the way the mcptrace text format is (core/trace_io.hpp).  All integers
// are little-endian; the load/store helpers below compile to plain loads
// on little-endian targets and byte-swap elsewhere.
//
// Request frames:    kSessionOpen, kRequestChunk, kRequestRun,
//                    kSessionClose, kQueryFaults, kQueryFaultCurve,
//                    kQueryPartition.
// Response frames:   kFaultCounts, kFaultCurve, kPartitionAdvice, kError.
//
// encode_trace()/decode_trace() convert between a materialized RequestSet
// and a single-session wire document, so every existing text trace feeds
// the daemon: read_trace() -> encode_trace() is the text-to-binary
// converter, and the round trip is bit-exact (tests/service).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/request.hpp"
#include "core/types.hpp"

namespace mcp::wire {

inline constexpr std::array<char, 8> kMagic = {'M', 'C', 'P', 'W',
                                               'I', 'R', 'E', '1'};
inline constexpr std::size_t kMagicSize = kMagic.size();
inline constexpr std::size_t kFrameHeaderSize = 16;

/// Spec-level sanity bounds.  A session open whose fields exceed these is
/// rejected before any allocation is sized from them, so a corrupted (or
/// hostile) document cannot make the decoder or the daemon reserve
/// memory proportional to an attacker-chosen 32-bit value.
inline constexpr std::uint32_t kMaxWireCores = kMaxInputCores;
inline constexpr std::uint32_t kMaxWireCacheCells = 1u << 28;
/// mcpd's engines index per-page state by id, so it drops a request frame
/// holding a page id >= this as a bad frame: page-indexed arrays stay at
/// most 2^24 entries long and kInvalidPage never reaches them.
inline constexpr std::uint32_t kMaxWirePageId = kInputPageBound;

enum class FrameType : std::uint32_t {
  kSessionOpen = 1,
  kRequestChunk = 2,
  kSessionClose = 3,
  kQueryFaults = 4,
  kQueryFaultCurve = 5,
  kQueryPartition = 6,
  kFaultCounts = 7,
  kFaultCurve = 8,
  kPartitionAdvice = 9,
  kError = 10,
  kRequestRun = 11,
};

/// The strategy a session runs; the service instantiates the matching
/// library strategy object at session open (mcpd.cpp).
enum class StrategyKind : std::uint32_t {
  kSharedLru = 0,       ///< S_LRU: one shared LRU over the whole cache.
  kSharedFifo = 1,      ///< S_FIFO.
  kStaticEvenLru = 2,   ///< sP^even_LRU: even static partition, LRU parts.
  kStaticEvenFifo = 3,  ///< sP^even_FIFO.
};

[[nodiscard]] std::string to_string(StrategyKind kind);

/// kSessionOpen payload (16 bytes): the session's model parameters.
struct SessionParams {
  std::uint32_t num_cores = 0;      ///< p
  std::uint32_t cache_size = 0;     ///< K
  std::uint32_t fault_penalty = 0;  ///< tau
  StrategyKind strategy = StrategyKind::kSharedLru;

  friend bool operator==(const SessionParams&, const SessionParams&) = default;
};
// Wire-layout invariants (the kSessionOpen encoder/decoder walk fields at
// these offsets; see encode/decode in wire_format.cpp).
static_assert(std::is_trivially_copyable_v<SessionParams>);
static_assert(std::is_standard_layout_v<SessionParams>);
static_assert(sizeof(SessionParams) == 16 && alignof(SessionParams) == 4);
static_assert(offsetof(SessionParams, num_cores) == 0);
static_assert(offsetof(SessionParams, cache_size) == 4);
static_assert(offsetof(SessionParams, fault_penalty) == 8);
static_assert(offsetof(SessionParams, strategy) == 12);
static_assert(sizeof(StrategyKind) == 4 && sizeof(FrameType) == 4);

/// One (core, page) request pair as it travels in a kRequestChunk payload.
struct WirePair {
  std::uint32_t core = 0;
  std::uint32_t page = 0;

  friend bool operator==(const WirePair&, const WirePair&) = default;
};
// A kRequestChunk payload is `count x WirePair` with no padding: the pair
// array's in-memory layout must equal its wire layout field-for-field.
static_assert(std::is_trivially_copyable_v<WirePair>);
static_assert(std::is_standard_layout_v<WirePair>);
static_assert(sizeof(WirePair) == 8 && alignof(WirePair) == 4);
static_assert(offsetof(WirePair, core) == 0);
static_assert(offsetof(WirePair, page) == 4);

// The frame header is `u32 type, u32 payload_len, u64 session`.
static_assert(kFrameHeaderSize ==
              2 * sizeof(std::uint32_t) + sizeof(std::uint64_t));

// --- little-endian primitives ----------------------------------------------

[[nodiscard]] inline std::uint32_t load_u32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = ((v & 0xff000000u) >> 24) | ((v & 0x00ff0000u) >> 8) |
        ((v & 0x0000ff00u) << 8) | ((v & 0x000000ffu) << 24);
  }
  return v;
}

[[nodiscard]] inline std::uint64_t load_u64(const std::byte* p) noexcept {
  const std::uint64_t lo = load_u32(p);
  const std::uint64_t hi = load_u32(p + 4);
  return lo | (hi << 32);
}

inline void store_u32(std::byte* p, std::uint32_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    v = ((v & 0xff000000u) >> 24) | ((v & 0x00ff0000u) >> 8) |
        ((v & 0x0000ff00u) << 8) | ((v & 0x000000ffu) << 24);
  }
  std::memcpy(p, &v, sizeof(v));
}

inline void store_u64(std::byte* p, std::uint64_t v) noexcept {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

// --- frame views -----------------------------------------------------------

/// One parsed frame: a (type, session, payload) view into the document
/// buffer.  The payload span aliases the buffer — zero copies; the buffer
/// must outlive the view.
struct FrameView {
  FrameType type = FrameType::kSessionOpen;
  std::uint64_t session = 0;
  std::span<const std::byte> payload;
};

/// kRequestChunk payload view: `u32 count, u32 reserved, count x WirePair`.
/// pair(i) decodes in place — the pairs are never materialized unless the
/// consumer copies them.
class ChunkView {
 public:
  explicit ChunkView(const FrameView& frame);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] WirePair pair(std::size_t i) const noexcept {
    const std::byte* p = data_ + i * sizeof(WirePair);
    return WirePair{load_u32(p), load_u32(p + 4)};
  }

 private:
  const std::byte* data_ = nullptr;
  std::size_t count_ = 0;
};

/// kRequestRun payload view: `u32 core, u32 count, count x u32 page`,
/// padded to the format's 8-byte alignment.  The compact form of
/// kRequestChunk for a single core's consecutive requests — the shape
/// every encoder here emits anyway — at half the bytes per pair; on a
/// little-endian host the page array is already a PageId array, so the
/// ingest path reduces to a bulk copy (page_bytes()).
class RunView {
 public:
  explicit RunView(const FrameView& frame);

  [[nodiscard]] std::uint32_t core() const noexcept { return core_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] PageId page(std::size_t i) const noexcept {
    return load_u32(data_ + i * 4);
  }
  /// The run's raw little-endian page words (size() * 4 bytes, 4-aligned).
  [[nodiscard]] const std::byte* page_bytes() const noexcept { return data_; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t count_ = 0;
  std::uint32_t core_ = 0;
};
// page_bytes() hands the wire words to a bulk memcpy into PageId storage
// on little-endian hosts (mcpd ingest): a page word and a PageId must be
// the same 4 bytes, and the endianness must be one the load/store
// primitives handle (no mixed/PDP byte orders).
static_assert(sizeof(PageId) == 4 && std::is_trivially_copyable_v<PageId>);
static_assert(std::endian::native == std::endian::little ||
              std::endian::native == std::endian::big);

/// kQueryFaults / kQueryFaultCurve / kQueryPartition payload:
/// `u64 query_id, u32 max_k, u32 reserved` (max_k used by curve queries).
struct QueryView {
  std::uint64_t query_id = 0;
  std::uint32_t max_k = 0;
};

/// kFaultCounts payload: per-core fault totals and completion times of the
/// session as simulated so far, plus whether the session has finished (all
/// cores ended after a kSessionClose).
struct FaultCountsReply {
  std::uint64_t query_id = 0;
  bool finished = false;
  Count requests_served = 0;
  std::vector<Count> per_core_faults;
  std::vector<Time> completion_times;
  Time end_time = 0;
};

/// kFaultCurve payload: per-core LRU fault curves f_j(0..max_k) of the
/// session's trace (Mattson kernel, policies/mattson.hpp).
struct FaultCurveReply {
  std::uint64_t query_id = 0;
  std::uint32_t max_k = 0;
  std::vector<std::vector<Count>> curves;  ///< [core][k], k = 0..max_k.
};

/// kPartitionAdvice payload: a static partition minimizing the summed LRU
/// fault curves over the session's trace (>= 1 cell per core).
struct PartitionAdviceReply {
  std::uint64_t query_id = 0;
  std::vector<std::uint32_t> cells_per_core;
  Count predicted_faults = 0;
};

/// kError payload: a query the daemon could not answer (infeasible
/// parameters, parked-query overflow, or an answer-time failure).  Sent in
/// place of the normal reply so blocking clients fail instead of waiting
/// forever.
struct ErrorReply {
  std::uint64_t query_id = 0;
  std::string message;
};

// --- writer ----------------------------------------------------------------

/// Append-only wire document builder.  A default-constructed writer starts
/// a fresh document (magic included); take() yields the bytes.
class WireWriter {
 public:
  WireWriter();

  void session_open(std::uint64_t session, const SessionParams& params);
  void request_chunk(std::uint64_t session, std::span<const WirePair> pairs);
  /// Chunk of one core's pages (the common converter shape).
  void request_chunk(std::uint64_t session, std::uint32_t core,
                     std::span<const PageId> pages);
  /// Same requests as the single-core request_chunk at half the wire
  /// bytes (kRequestRun).
  void request_run(std::uint64_t session, std::uint32_t core,
                   std::span<const PageId> pages);
  void session_close(std::uint64_t session);
  void query_faults(std::uint64_t session, std::uint64_t query_id);
  void query_fault_curve(std::uint64_t session, std::uint64_t query_id,
                         std::uint32_t max_k);
  void query_partition(std::uint64_t session, std::uint64_t query_id);

  void fault_counts(std::uint64_t session, const FaultCountsReply& reply);
  void fault_curve(std::uint64_t session, const FaultCurveReply& reply);
  void partition_advice(std::uint64_t session,
                        const PartitionAdviceReply& reply);
  void error_reply(std::uint64_t session, const ErrorReply& reply);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buf_); }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return buf_;
  }

 private:
  /// Opens a frame, returns the payload's offset in buf_.
  std::size_t begin_frame(FrameType type, std::uint64_t session,
                          std::size_t payload_len);

  std::vector<std::byte> buf_;
};

// --- reader ----------------------------------------------------------------

/// Walks the frames of a wire document.  Malformed input throws InputError
/// naming the byte offset of the defect; a clean end returns false from
/// next().  The reader never copies payload bytes.
class WireReader {
 public:
  /// Validates the magic; `data` must stay alive while views are used.
  explicit WireReader(std::span<const std::byte> data);

  /// Advances to the next frame.  False at a clean end of document.
  bool next(FrameView& frame);

  /// Current read position (bytes from the start of the document).
  [[nodiscard]] std::size_t offset() const noexcept { return pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Parses a frame *without* the document magic (the shard ingress path:
/// frames are routed individually).  `offset_in_doc` seeds error messages.
[[nodiscard]] FrameView parse_frame(std::span<const std::byte> bytes,
                                    std::size_t offset_in_doc = 0);

// Payload decoders (validate lengths; throw InputError on mismatch).
[[nodiscard]] SessionParams decode_session_open(const FrameView& frame);
[[nodiscard]] QueryView decode_query(const FrameView& frame);
[[nodiscard]] FaultCountsReply decode_fault_counts(const FrameView& frame);
[[nodiscard]] FaultCurveReply decode_fault_curve(const FrameView& frame);
[[nodiscard]] PartitionAdviceReply decode_partition_advice(
    const FrameView& frame);
[[nodiscard]] ErrorReply decode_error(const FrameView& frame);

// --- trace conversion (text <-> binary) ------------------------------------

/// Encodes `requests` as a single-session wire document: kSessionOpen,
/// round-robin kRequestChunk frames of at most `chunk_pairs` pairs each
/// (cores interleaved chunk-by-chunk, preserving every core's order), and
/// kSessionClose.  This is the bridge from the text formats: feed it the
/// result of read_trace()/read_trace_pairs().
[[nodiscard]] std::vector<std::byte> encode_trace(
    const RequestSet& requests, std::uint64_t session,
    const SessionParams& params, std::size_t chunk_pairs = 256);

/// A decoded single-session trace document.
struct DecodedTrace {
  std::uint64_t session = 0;
  SessionParams params;
  RequestSet requests;
  bool closed = false;
};

/// Replays a single-session document's open/chunk/close frames back into a
/// RequestSet.  Throws InputError on multi-session documents, frames after
/// close, chunks before open, or any malformed frame.
[[nodiscard]] DecodedTrace decode_trace(std::span<const std::byte> data);

/// File conveniences (whole-file read/write; the format is mmap-able but
/// plain buffered I/O keeps these dependency-free).
void save_wire_trace(const std::string& path, const RequestSet& requests,
                     std::uint64_t session, const SessionParams& params,
                     std::size_t chunk_pairs = 256);
[[nodiscard]] DecodedTrace load_wire_trace(const std::string& path);

}  // namespace mcp::wire
