// Unit tests for common utilities: RNG, stats, CSV, CLI, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strfmt.hpp"
#include "common/parallel.hpp"

using namespace sldf;

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Rng r(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int c : seen) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GeometricSkipMeanMatchesRate) {
  Rng r(13);
  const double p = 0.05;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(r.geometric_skip(p)) + 1.0;
  const double mean = sum / n;  // expected 1/p = 20
  EXPECT_NEAR(mean, 1.0 / p, 1.0);
}

TEST(Rng, GeometricSkipEdgeCases) {
  Rng r(17);
  EXPECT_EQ(r.geometric_skip(1.0), 0u);
  EXPECT_EQ(r.geometric_skip(0.0), ~0ULL);
}

TEST(Histogram, QuantilesOfUniformRamp) {
  Histogram h(1.0);
  for (int i = 0; i < 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 500.0, 2.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 2.0);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, WritesRowsToFile) {
  const auto path = std::filesystem::temp_directory_path() / "sldf_test.csv";
  {
    CsvWriter w(path.string(), {"a", "b"});
    w.row(std::vector<double>{1.5, 2.0});
  }
  std::ifstream in(path);
  std::string l1, l2;
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1.5,2");
  std::filesystem::remove(path);
}

TEST(Csv, RaggedRowThrows) {
  const auto path = std::filesystem::temp_directory_path() / "sldf_test2.csv";
  CsvWriter w(path.string(), {"a", "b"});
  EXPECT_THROW(w.row(std::vector<double>{1.0}), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "positional", "--rate=0.5", "--out",
                        "file.csv", "--quick"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_TRUE(cli.has("quick"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(cli.get("out"), "file.csv");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(strf("empty"), "empty");
}

TEST(Parallel, ParallelForRunsAll) {
  std::atomic<int> sum{0};
  parallel_for(100, 4, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(Parallel, ParallelForPropagatesException) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(8, 2,
                            [&](std::size_t i) {
                              ++ran;
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);  // the other tasks still ran
}
