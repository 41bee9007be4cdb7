#include "core/trace_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/error.hpp"

namespace mcp {

void write_trace(std::ostream& os, const RequestSet& requests) {
  os << "mcptrace 1\n";
  os << "cores " << requests.num_cores() << '\n';
  for (CoreId core = 0; core < requests.num_cores(); ++core) {
    const RequestSequence& seq = requests.sequence(core);
    os << "seq " << core << ' ' << seq.size();
    for (PageId page : seq) os << ' ' << page;
    os << '\n';
  }
}

RequestSet read_trace(std::istream& is) {
  std::string line;
  std::size_t num_cores = 0;
  bool saw_header = false;
  bool saw_cores = false;
  std::vector<RequestSequence> seqs;
  std::vector<bool> seen;

  std::size_t lineno = 0;
  std::size_t byte_offset = 0;  // offset of the current line's first byte
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t line_start = byte_offset;
    byte_offset += line.size() + 1;  // + the newline getline consumed
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    const auto fail = [&](const std::string& why) -> void {
      throw InputError("trace line " + std::to_string(lineno) + " (byte " +
                       std::to_string(line_start) + "): " + why);
    };
    if (!saw_header) {
      int version = 0;
      if (keyword != "mcptrace" || !(ls >> version) || version != 1) {
        fail("expected header 'mcptrace 1'");
      }
      saw_header = true;
    } else if (keyword == "cores") {
      if (saw_cores) fail("duplicate 'cores' line");
      if (!(ls >> num_cores) || num_cores == 0) fail("bad core count");
      if (num_cores > kMaxInputCores) {
        fail("core count above " + std::to_string(kMaxInputCores));
      }
      seqs.resize(num_cores);
      seen.assign(num_cores, false);
      saw_cores = true;
    } else if (keyword == "seq") {
      if (!saw_cores) fail("'seq' before 'cores'");
      std::size_t core = 0;
      std::size_t n = 0;
      if (!(ls >> core >> n)) fail("bad 'seq' header");
      if (core >= num_cores) fail("core id out of range");
      if (seen[core]) fail("duplicate sequence for core " + std::to_string(core));
      seen[core] = true;
      // Sized by what the line can hold (a page takes at least two
      // characters), never by the declared count alone.
      std::vector<PageId> pages;
      pages.reserve(std::min(n, line.size() / 2));
      for (std::size_t i = 0; i < n; ++i) {
        // 64-bit: an id past PageId's range (or a negative one, which
        // unsigned extraction wraps) fails the bound check, not the read.
        std::uint64_t page = 0;
        if (!(ls >> page)) fail("sequence shorter than declared length");
        if (page >= kInputPageBound) {
          fail("page id " + std::to_string(page) + " at or above 2^24");
        }
        pages.push_back(static_cast<PageId>(page));
      }
      std::uint64_t extra = 0;
      if (ls >> extra) fail("sequence longer than declared length");
      seqs[core] = RequestSequence(std::move(pages));
    } else {
      fail("unknown keyword '" + keyword + "'");
    }
  }

  if (!saw_header) throw InputError("empty trace: missing 'mcptrace 1' header");
  if (!saw_cores) throw InputError("trace missing 'cores' line");
  for (std::size_t core = 0; core < num_cores; ++core) {
    if (!seen[core]) {
      throw InputError("trace missing sequence for core " + std::to_string(core));
    }
  }
  return RequestSet(std::move(seqs));
}

RequestSet read_trace_pairs(std::istream& is) {
  std::vector<RequestSequence> seqs;
  std::string line;
  std::size_t lineno = 0;
  std::size_t byte_offset = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t line_start = byte_offset;
    byte_offset += line.size() + 1;
    if (line.empty() || line[0] == '#') continue;
    const auto fail = [&](const std::string& why) -> void {
      throw InputError("pairs line " + std::to_string(lineno) + " (byte " +
                       std::to_string(line_start) + "): " + why);
    };
    std::istringstream ls(line);
    std::uint64_t core = 0;
    std::uint64_t page = 0;
    if (!(ls >> core >> page)) fail("expected '<core> <page>'");
    std::string extra;
    if (ls >> extra) fail("trailing tokens");
    if (core >= kMaxInputCores) {
      fail("core id at or above " + std::to_string(kMaxInputCores));
    }
    if (page >= kInputPageBound) {
      fail("page id " + std::to_string(page) + " at or above 2^24");
    }
    if (core >= seqs.size()) seqs.resize(core + 1);
    seqs[core].push_back(static_cast<PageId>(page));
  }
  if (seqs.empty()) throw InputError("pairs trace: no requests");
  return RequestSet(std::move(seqs));
}

void save_trace(const std::string& path, const RequestSet& requests) {
  std::ofstream os(path);
  if (!os) throw InputError("cannot open for writing: " + path);
  write_trace(os, requests);
  if (!os) throw InputError("write failed: " + path);
}

RequestSet load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw InputError("cannot open for reading: " + path);
  return read_trace(is);
}

}  // namespace mcp
