// Unit tests for partition utilities (strategies/partition.hpp).
#include "strategies/partition.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <set>

#include "core/error.hpp"

namespace mcp {
namespace {

TEST(Partition, EvenPartitionExact) {
  const Partition p = even_partition(8, 4);
  const Partition expected = {2, 2, 2, 2};
  EXPECT_EQ(p, expected);
}

TEST(Partition, EvenPartitionWithRemainder) {
  const Partition p = even_partition(10, 4);
  const Partition expected = {3, 3, 2, 2};
  EXPECT_EQ(p, expected);
}

TEST(Partition, EvenPartitionRequiresEnoughCells) {
  EXPECT_THROW((void)even_partition(3, 4), ModelError);
  EXPECT_THROW((void)even_partition(4, 0), ModelError);
}

TEST(Partition, ValidateAcceptsGoodPartition) {
  EXPECT_NO_THROW(validate_partition({3, 2, 3}, 8, 3));
}

TEST(Partition, ValidateRejectsBadPartitions) {
  EXPECT_THROW(validate_partition({3, 2}, 8, 3), ModelError);      // wrong p
  EXPECT_THROW(validate_partition({3, 2, 2}, 8, 3), ModelError);   // sum != K
  EXPECT_THROW(validate_partition({8, 0, 0}, 8, 3), ModelError);   // part < 1
  EXPECT_NO_THROW(validate_partition({8, 0, 0}, 8, 3, /*min=*/0));
}

TEST(Partition, EnumerateMatchesCount) {
  for (std::size_t K = 2; K <= 9; ++K) {
    for (std::size_t p = 1; p <= 4; ++p) {
      if (K < p) continue;
      const auto all = enumerate_partitions(K, p);
      EXPECT_EQ(all.size(), count_partitions(K, p)) << "K=" << K << " p=" << p;
      std::set<Partition> unique(all.begin(), all.end());
      EXPECT_EQ(unique.size(), all.size());  // no duplicates
      for (const Partition& part : all) {
        EXPECT_EQ(part.size(), p);
        EXPECT_EQ(std::accumulate(part.begin(), part.end(), std::size_t{0}), K);
        for (std::size_t k : part) EXPECT_GE(k, 1u);
      }
    }
  }
}

TEST(Partition, EnumerateKnownSmallCase) {
  const auto all = enumerate_partitions(4, 2);
  const std::vector<Partition> expected = {{1, 3}, {2, 2}, {3, 1}};
  EXPECT_EQ(all, expected);
}

TEST(Partition, CountPartitionsFormula) {
  EXPECT_EQ(count_partitions(8, 1), 1u);
  EXPECT_EQ(count_partitions(8, 2), 7u);    // C(7,1)
  EXPECT_EQ(count_partitions(8, 8), 1u);    // all ones
  EXPECT_EQ(count_partitions(3, 4), 0u);    // infeasible
  EXPECT_EQ(count_partitions(6, 3, 2), 1u); // {2,2,2} only
  // C(67,33) = 14,226,520,737,620,288,370 fits in 64 bits, though a 64-bit
  // running product overflows on the way to it.
  EXPECT_EQ(count_partitions(68, 34), 14226520737620288370u);
  // C(199,15) is about 1.35e22: the count saturates.
  EXPECT_EQ(count_partitions(200, 16),
            std::numeric_limits<std::size_t>::max());
}

TEST(Partition, MinPerCoreHonoredInEnumeration) {
  const auto all = enumerate_partitions(6, 2, 2);
  const std::vector<Partition> expected = {{2, 4}, {3, 3}, {4, 2}};
  EXPECT_EQ(all, expected);
}

TEST(Partition, ToString) {
  EXPECT_EQ(partition_to_string({4, 2, 2}), "[4,2,2]");
  EXPECT_EQ(partition_to_string({}), "[]");
}

}  // namespace
}  // namespace mcp
