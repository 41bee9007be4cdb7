#include "offline/spill_arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "core/error.hpp"
#include "core/sentry.hpp"

namespace mcp {

namespace {

constexpr std::uint64_t kSegmentMagic = 0x6d63705f73706c6cULL;  // "mcp_spll"
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::size_t kHeaderBytes = 4096;  ///< page-aligned data extents
constexpr std::size_t kDefaultSegmentBytes = std::size_t{1} << 20;

/// On-file header preceding each spill segment's data extent.  Written once
/// when the segment is created; `SpillArena::validate` re-reads it through
/// the mapping so silent file corruption (or a stride mismatch after a bad
/// resume) fails loudly under MCP_CHECKED.
struct SegmentHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t index;
  std::uint64_t stride;
  std::uint64_t block_capacity;
  std::uint64_t data_bytes;
};
static_assert(sizeof(SegmentHeader) <= kHeaderBytes);

[[noreturn]] void throw_errno(const char* what) {
  std::ostringstream os;
  os << "SpillArena: " << what << " failed: " << std::strerror(errno);
  throw InputError(os.str());
}

/// Creates an unlinked temporary file in `dir` (or TMPDIR / /tmp): the file
/// vanishes with the process — including on SIGKILL — so spill storage can
/// never leak onto disk.  Checkpoints therefore re-embed spilled data
/// instead of referencing the spill file.
int open_unlinked_temp(const std::string& dir) {
  std::string base = dir;
  if (base.empty()) {
    const char* env = std::getenv("TMPDIR");
    base = (env != nullptr && *env != '\0') ? env : "/tmp";
  }
  std::string tmpl = base + "/mcp-spill-XXXXXX";
  const int fd = ::mkstemp(tmpl.data());
  if (fd < 0) throw_errno("mkstemp");
  if (::unlink(tmpl.c_str()) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("unlink");
  }
  return fd;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillArena

SpillArena::SpillArena(std::size_t stride, StorageBudget budget)
    : stride_(stride), budget_(std::move(budget)) {
  MCP_REQUIRE(stride_ > 0, "SpillArena stride must be positive");
  spilling_ = budget_.active();
  std::size_t seg_bytes =
      budget_.segment_bytes != 0 ? budget_.segment_bytes : kDefaultSegmentBytes;
  // Blocks per segment is the largest power of two whose data fits, so a
  // block id splits into (segment, offset) with a shift and a mask and a
  // block never straddles segments.
  const std::size_t block_bytes = stride_ * sizeof(std::uint64_t);
  std::size_t blocks = std::max<std::size_t>(seg_bytes / block_bytes, 1);
  log2_blocks_ = static_cast<std::size_t>(std::bit_width(blocks) - 1);
  block_mask_ = static_cast<std::uint32_t>((std::size_t{1} << log2_blocks_) - 1);
  segment_data_bytes_ = (std::size_t{1} << log2_blocks_) * block_bytes;
  if (spilling_) {
    MCP_REQUIRE(budget_.ram_bytes >= 2 * segment_data_bytes_,
                "StorageBudget.ram_bytes below two segments; raise the "
                "budget or shrink segment_bytes");
    // Each segment's file extent (header + data) is rounded up to a page so
    // every segment's mmap offset stays page-aligned.
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    segment_file_bytes_ =
        (kHeaderBytes + segment_data_bytes_ + page - 1) / page * page;
    fd_ = open_unlinked_temp(budget_.dir);
  }
}

SpillArena::~SpillArena() {
  for (Segment& seg : segments_) {
    if (seg.map != nullptr) ::munmap(seg.map, seg.map_bytes);
  }
  if (fd_ >= 0) ::close(fd_);
}

void SpillArena::reserve(std::size_t blocks) {
  AllocAllow allow;
  segments_.reserve((blocks >> log2_blocks_) + 1);
}

void SpillArena::charge(std::size_t bytes) const {
  resident_bytes_ += bytes;
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
}

void SpillArena::add_segment() {
  AllocAllow allow;
  Segment seg;
  if (!spilling_) {
    const std::size_t words = segment_data_bytes_ / sizeof(std::uint64_t);
    // Left uninitialized: appends write every word before any read.
    seg.heap = std::make_unique_for_overwrite<std::uint64_t[]>(words);
    seg.data = seg.heap.get();
  } else {
    const std::uint32_t index = static_cast<std::uint32_t>(segments_.size());
    const std::size_t map_bytes = segment_file_bytes_;
    const off_t offset = static_cast<off_t>(index) * static_cast<off_t>(map_bytes);
    if (::ftruncate(fd_, offset + static_cast<off_t>(map_bytes)) != 0)
      throw_errno("ftruncate");
    void* map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                       fd_, offset);
    if (map == MAP_FAILED) throw_errno("mmap");
    SegmentHeader header{};
    header.magic = kSegmentMagic;
    header.version = kSegmentVersion;
    header.index = index;
    header.stride = stride_;
    header.block_capacity = std::uint64_t{1} << log2_blocks_;
    header.data_bytes = segment_data_bytes_;
    std::memcpy(map, &header, sizeof(header));
    seg.map = map;
    seg.map_bytes = map_bytes;
    seg.data = reinterpret_cast<std::uint64_t*>(static_cast<char*>(map) +
                                                kHeaderBytes);
  }
  seg.resident = true;
  seg.last_touch = ++clock_;
  segments_.push_back(std::move(seg));
  charge(segment_data_bytes_);
  if (spilling_) enforce_budget(&segments_.back());
}

std::uint32_t SpillArena::append(const std::uint64_t* words) {
  const std::size_t seg_index = num_blocks_ >> log2_blocks_;
  if (seg_index == segments_.size()) add_segment();
  Segment& seg = segments_[seg_index];
  if (spilling_) {
    if (!seg.resident) fault_in(seg);
    seg.last_touch = ++clock_;
    seg.dirty = true;
  }
  const std::size_t slot = num_blocks_ & block_mask_;
  std::memcpy(seg.data + slot * stride_, words,
              stride_ * sizeof(std::uint64_t));
  return static_cast<std::uint32_t>(num_blocks_++);
}

void SpillArena::fault_in(const Segment& seg) const {
  // The MAP_SHARED mapping is still valid after eviction; marking the
  // segment resident and re-charging the budget is pure accounting — the
  // kernel reloads the madvise'd pages from the spill file on first touch.
  seg.resident = true;
  charge(segment_data_bytes_);
  enforce_budget(&seg);
}

void SpillArena::evict(const Segment& seg) const {
  // MS_SYNC guarantees a dirty data extent is durably in the file before
  // the pages are dropped; a clean one already is.  MADV_DONTNEED releases
  // the RAM without disturbing the mapping.
  if (seg.dirty) {
    if (::msync(seg.map, seg.map_bytes, MS_SYNC) != 0) throw_errno("msync");
    seg.dirty = false;
    bytes_spilled_ += segment_data_bytes_;
  }
  if (::madvise(seg.map, seg.map_bytes, MADV_DONTNEED) != 0)
    throw_errno("madvise");
  seg.resident = false;
  resident_bytes_ -= segment_data_bytes_;
}

void SpillArena::enforce_budget(const Segment* keep) const {
  const Segment* const append_segment = &segments_.back();
  while (resident_bytes_ > budget_.ram_bytes) {
    const Segment* victim = nullptr;
    for (const Segment& seg : segments_) {
      if (!seg.resident || &seg == keep || &seg == append_segment) continue;
      if (victim == nullptr || seg.last_touch < victim->last_touch)
        victim = &seg;
    }
    if (victim == nullptr) break;  // only `keep` and the append segment
    evict(*victim);
  }
}

void SpillArena::validate() const {
  const std::size_t expect_segments =
      (num_blocks_ + (std::size_t{1} << log2_blocks_) - 1) >> log2_blocks_;
  MCP_ASSERT_MSG(segments_.size() == expect_segments,
                 "segment directory size does not match block count");
  std::size_t resident = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    MCP_ASSERT_MSG(seg.data != nullptr, "segment has no storage");
    if (seg.resident) resident += segment_data_bytes_;
    if (!spilling_) {
      MCP_ASSERT_MSG(seg.resident, "heap segment marked non-resident");
      continue;
    }
    // Re-read the on-file header through the shared mapping; any mismatch
    // means the spill file was corrupted or the arena geometry drifted.
    SegmentHeader header{};
    std::memcpy(&header, seg.map, sizeof(header));
    std::ostringstream os;
    os << "spill segment " << i << " header";
    const std::string where = os.str();
    MCP_ASSERT_MSG(header.magic == kSegmentMagic, where + ": bad magic");
    MCP_ASSERT_MSG(header.version == kSegmentVersion, where + ": bad version");
    MCP_ASSERT_MSG(header.index == i, where + ": index mismatch");
    MCP_ASSERT_MSG(header.stride == stride_, where + ": stride mismatch");
    MCP_ASSERT_MSG(header.block_capacity == (std::uint64_t{1} << log2_blocks_),
                   where + ": block capacity mismatch");
    MCP_ASSERT_MSG(header.data_bytes == segment_data_bytes_,
                   where + ": data size mismatch");
  }
  MCP_ASSERT_MSG(resident == resident_bytes_,
                 "resident-byte accounting out of sync");
  MCP_ASSERT_MSG(!spilling_ || resident_bytes_ <=
                     std::max(budget_.ram_bytes, 2 * segment_data_bytes_),
                 "resident bytes exceed the storage budget");
}

// ---------------------------------------------------------------------------
// RecordLog

RecordLog::RecordLog(StorageBudget budget) : budget_(std::move(budget)) {
  spilling_ = budget_.active();
  if (spilling_) fd_ = open_unlinked_temp(budget_.dir);
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t RecordLog::append(const std::uint64_t* words, std::size_t count) {
  AllocAllow allow;
  const std::size_t index = offsets_.size();
  if (!spilling_) {
    offsets_.push_back(index);
    lengths_.push_back(count);
    records_.emplace_back(words, words + count);
    return index;
  }
  const std::size_t bytes = count * sizeof(std::uint64_t);
  const off_t offset =
      static_cast<off_t>(file_words_) * static_cast<off_t>(sizeof(std::uint64_t));
  std::size_t written = 0;
  while (written < bytes) {
    const ssize_t n =
        ::pwrite(fd_, reinterpret_cast<const char*>(words) + written,
                 bytes - written, offset + static_cast<off_t>(written));
    if (n < 0) throw_errno("pwrite");
    written += static_cast<std::size_t>(n);
  }
  offsets_.push_back(file_words_);
  lengths_.push_back(count);
  file_words_ += count;
  bytes_spilled_ += bytes;
  return index;
}

void RecordLog::read(std::size_t index, std::vector<std::uint64_t>& out) const {
  MCP_ASSERT_MSG(index < offsets_.size(), "RecordLog record index out of range");
  const std::size_t count = lengths_[index];
  out.resize(count);
  if (!spilling_) {
    const std::vector<std::uint64_t>& rec = records_[index];
    std::copy(rec.begin(), rec.end(), out.begin());
    return;
  }
  const std::size_t bytes = count * sizeof(std::uint64_t);
  const off_t offset = static_cast<off_t>(offsets_[index]) *
                       static_cast<off_t>(sizeof(std::uint64_t));
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::pread(fd_, reinterpret_cast<char*>(out.data()) + got,
                              bytes - got, offset + static_cast<off_t>(got));
    if (n < 0) throw_errno("pread");
    MCP_ASSERT_MSG(n > 0, "RecordLog spill file truncated");
    got += static_cast<std::size_t>(n);
  }
}

std::size_t RecordLog::bytes_in_ram() const noexcept {
  if (spilling_) return offsets_.size() * 2 * sizeof(std::size_t);
  std::size_t total = 0;
  for (const std::vector<std::uint64_t>& rec : records_)
    total += rec.size() * sizeof(std::uint64_t);
  return total;
}

}  // namespace mcp
