// Unit tests for mcptrace text serialization (core/trace_io.hpp).
#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/error.hpp"
#include "core/sentry.hpp"

namespace mcp {
namespace {

RequestSet sample() {
  RequestSet rs;
  rs.add_sequence(RequestSequence{1, 2, 3});
  rs.add_sequence(RequestSequence{});
  rs.add_sequence(RequestSequence{7, 7});
  return rs;
}

TEST(TraceIo, RoundTrip) {
  const RequestSet original = sample();
  std::stringstream ss;
  write_trace(ss, original);
  const RequestSet loaded = read_trace(ss);
  EXPECT_EQ(loaded, original);
}

TEST(TraceIo, WrittenFormatIsStable) {
  std::stringstream ss;
  write_trace(ss, sample());
  EXPECT_EQ(ss.str(),
            "mcptrace 1\n"
            "cores 3\n"
            "seq 0 3 1 2 3\n"
            "seq 1 0\n"
            "seq 2 2 7 7\n");
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "mcptrace 1\n"
      "# another\n"
      "cores 1\n"
      "seq 0 2 4 5\n");
  const RequestSet rs = read_trace(ss);
  EXPECT_EQ(rs.num_cores(), 1u);
  EXPECT_EQ(rs.sequence(0).size(), 2u);
}

TEST(TraceIo, SequencesInAnyOrder) {
  std::stringstream ss(
      "mcptrace 1\ncores 2\nseq 1 1 9\nseq 0 1 8\n");
  const RequestSet rs = read_trace(ss);
  EXPECT_EQ(rs.sequence(0)[0], 8u);
  EXPECT_EQ(rs.sequence(1)[0], 9u);
}

/// The InputError message produced by `fn`, or "" if nothing was thrown.
/// Error-path tests assert on substrings: the messages are part of the
/// trace format's user interface (they name the line and the defect).
template <typename Fn>
std::string input_error_message(Fn&& fn) {
  try {
    fn();
  } catch (const InputError& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream ss("cores 1\nseq 0 0\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("mcptrace 1"), std::string::npos) << message;
}

TEST(TraceIo, RejectsWrongVersion) {
  std::stringstream ss("mcptrace 2\ncores 1\nseq 0 0\n");
  EXPECT_THROW((void)read_trace(ss), InputError);
}

TEST(TraceIo, RejectsMissingSequence) {
  std::stringstream ss("mcptrace 1\ncores 2\nseq 0 0\n");
  EXPECT_THROW((void)read_trace(ss), InputError);
}

TEST(TraceIo, RejectsDuplicateSequence) {
  std::stringstream ss("mcptrace 1\ncores 1\nseq 0 0\nseq 0 0\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("duplicate sequence for core 0"), std::string::npos)
      << message;
}

TEST(TraceIo, RejectsCoreOutOfRange) {
  std::stringstream ss("mcptrace 1\ncores 1\nseq 1 0\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("core id out of range"), std::string::npos)
      << message;
}

TEST(TraceIo, RejectsShortSequence) {
  std::stringstream ss("mcptrace 1\ncores 1\nseq 0 3 1 2\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("shorter than declared length"), std::string::npos)
      << message;
}

TEST(TraceIo, RejectsLongSequence) {
  std::stringstream ss("mcptrace 1\ncores 1\nseq 0 1 1 2\n");
  EXPECT_THROW((void)read_trace(ss), InputError);
}

TEST(TraceIo, RejectsUnknownKeyword) {
  std::stringstream ss("mcptrace 1\ncores 1\nbogus\n");
  EXPECT_THROW((void)read_trace(ss), InputError);
}

TEST(TraceIo, RejectsReservedPageId) {
  // kInvalidPage would wrap page_bound() to 0 and reach the engine's page
  // index; the loader names the line and byte instead.  "mcptrace 1\n" is
  // 11 bytes and "cores 1\n" 8 more, so the seq line starts at byte 19.
  std::stringstream ss(
      "mcptrace 1\ncores 1\nseq 0 3 4294967295 1 4294967295\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("(byte 19)"), std::string::npos) << message;
  EXPECT_NE(message.find("page id 4294967295"), std::string::npos) << message;
}

TEST(TraceIo, PageIdBoundIsTwoToTheTwentyFour) {
  std::stringstream ok("mcptrace 1\ncores 1\nseq 0 1 16777215\n");
  EXPECT_EQ(read_trace(ok).page_bound(), kInputPageBound);
  for (const char* page : {"16777216", "4294967296", "-1"}) {
    std::stringstream ss(std::string("mcptrace 1\ncores 1\nseq 0 1 ") + page +
                         "\n");
    EXPECT_THROW((void)read_trace(ss), InputError) << page;
  }
}

TEST(TraceIo, HugeDeclaredLengthIsAnInputError) {
  // Not std::length_error: the loader never sizes a vector from the count.
  std::stringstream ss("mcptrace 1\ncores 1\nseq 0 4611686018427387904 1\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("shorter than declared length"), std::string::npos)
      << message;
}

TEST(TraceIo, DeclaredSizesAllocateNothingUpFront) {
  // A declared length of 10^9 with one page, and the largest core count,
  // allocate in proportion to the document, not to the declarations.
  const auto bytes_to_fail = [](const std::string& doc) {
    const std::uint64_t before = sentry::thread_alloc_stats().bytes_allocated;
    std::stringstream ss(doc);
    EXPECT_THROW((void)read_trace(ss), InputError) << doc;
    return sentry::thread_alloc_stats().bytes_allocated - before;
  };
  EXPECT_LT(bytes_to_fail("mcptrace 1\ncores 1\nseq 0 1000000000 7\n"),
            std::uint64_t{1} << 16);
  EXPECT_LT(bytes_to_fail("mcptrace 1\ncores 65536\nseq 0 1000000000 7\n"),
            std::uint64_t{1} << 23);  // 2^16 empty sequences plus flags
}

TEST(TraceIo, RejectsCoreCountAboveBound) {
  for (const char* cores : {"65537", "4000000000", "18446744073709551615"}) {
    std::stringstream ss(std::string("mcptrace 1\ncores ") + cores + "\n");
    const std::string message =
        input_error_message([&] { (void)read_trace(ss); });
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
  std::stringstream ok("mcptrace 1\ncores 65536\n");
  EXPECT_THROW((void)read_trace(ok), InputError);  // sequences still missing
}

TEST(TraceIoPairs, RejectsCoreIdAboveBound) {
  std::stringstream ss("0 1\n65536 2\n");
  const std::string message =
      input_error_message([&] { (void)read_trace_pairs(ss); });
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("core id"), std::string::npos) << message;
  std::stringstream ok("65535 2\n");
  EXPECT_EQ(read_trace_pairs(ok).num_cores(), std::size_t{kMaxInputCores});
}

TEST(TraceIoPairs, RejectsReservedPageId) {
  std::stringstream ss("0 1\n1 4294967295\n");
  const std::string message =
      input_error_message([&] { (void)read_trace_pairs(ss); });
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("(byte 4)"), std::string::npos) << message;
  EXPECT_NE(message.find("page id 4294967295"), std::string::npos) << message;
}

TEST(TraceIoPairs, ParsesInterleavedPairs) {
  std::stringstream ss(
      "# core page\n"
      "0 10\n"
      "1 20\n"
      "0 11\n"
      "\n"
      "1 21\n"
      "0 10\n");
  const RequestSet rs = read_trace_pairs(ss);
  ASSERT_EQ(rs.num_cores(), 2u);
  EXPECT_EQ(rs.sequence(0), (RequestSequence{10, 11, 10}));
  EXPECT_EQ(rs.sequence(1), (RequestSequence{20, 21}));
}

TEST(TraceIoPairs, UnmentionedCoresGetEmptySequences) {
  std::stringstream ss("2 5\n");
  const RequestSet rs = read_trace_pairs(ss);
  ASSERT_EQ(rs.num_cores(), 3u);
  EXPECT_TRUE(rs.sequence(0).empty());
  EXPECT_TRUE(rs.sequence(1).empty());
  EXPECT_EQ(rs.sequence(2).size(), 1u);
}

TEST(TraceIoPairs, RejectsMalformedLines) {
  {
    std::stringstream ss("0\n");
    const std::string message =
        input_error_message([&] { (void)read_trace_pairs(ss); });
    EXPECT_NE(message.find("line 1"), std::string::npos) << message;
    EXPECT_NE(message.find("expected '<core> <page>'"), std::string::npos)
        << message;
  }
  {
    std::stringstream ss("0 1 2\n");
    const std::string message =
        input_error_message([&] { (void)read_trace_pairs(ss); });
    EXPECT_NE(message.find("trailing tokens"), std::string::npos) << message;
  }
  {
    std::stringstream ss("");
    const std::string message =
        input_error_message([&] { (void)read_trace_pairs(ss); });
    EXPECT_NE(message.find("no requests"), std::string::npos) << message;
  }
}

TEST(TraceIoPairs, ErrorNamesTheOffendingLine) {
  std::stringstream ss("0 1\n1 2\nbroken\n");
  const std::string message =
      input_error_message([&] { (void)read_trace_pairs(ss); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

TEST(TraceIoPairs, ErrorNamesTheByteOffset) {
  // "0 1\n" is 4 bytes, "1 2\n" is 4 more: the broken line starts at byte 8.
  std::stringstream ss("0 1\n1 2\nbroken\n");
  const std::string message =
      input_error_message([&] { (void)read_trace_pairs(ss); });
  EXPECT_NE(message.find("(byte 8)"), std::string::npos) << message;
}

TEST(TraceIo, ErrorNamesTheByteOffset) {
  // Offsets: "mcptrace 1\n"=11, "cores 2\n"=8, "seq 0 1 5\n"=10 -> the bad
  // core id on line 4 starts at byte 29.
  std::stringstream ss("mcptrace 1\ncores 2\nseq 0 1 5\nseq 9 0\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("(byte 29)"), std::string::npos) << message;
  EXPECT_NE(message.find("core id out of range"), std::string::npos)
      << message;
}

TEST(TraceIo, ByteOffsetCountsSkippedCommentLines) {
  // Comment and blank lines advance the byte offset even though they are
  // not parsed: "# hi\n"=5, "\n"=1, so the bad header starts at byte 6.
  std::stringstream ss("# hi\n\nnot-a-header\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("(byte 6)"), std::string::npos) << message;
}

TEST(TraceIo, MissingCoresLineNamed) {
  std::stringstream ss("mcptrace 1\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("missing 'cores' line"), std::string::npos)
      << message;
}

TEST(TraceIo, MissingSequenceNamesTheCore) {
  std::stringstream ss("mcptrace 1\ncores 3\nseq 0 0\nseq 2 0\n");
  const std::string message =
      input_error_message([&] { (void)read_trace(ss); });
  EXPECT_NE(message.find("missing sequence for core 1"), std::string::npos)
      << message;
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/mcp_trace_test.txt";
  save_trace(path, sample());
  EXPECT_EQ(load_trace(path), sample());
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/definitely/missing.txt"), InputError);
}

}  // namespace
}  // namespace mcp
