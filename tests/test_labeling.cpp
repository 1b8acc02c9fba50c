// Property tests for the labeling engine and label-monotone routing tables
// (paper §IV-B): label bijectivity, snake adjacency, up/down-path existence
// and monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "route/mesh_routing.hpp"
#include "topo/labeling.hpp"

using namespace sldf;
using namespace sldf::topo;
using sldf::route::MonotoneTables;

class LabelingParam
    : public ::testing::TestWithParam<std::tuple<int, int, Labeling>> {};

TEST_P(LabelingParam, LabelsAreAPermutation) {
  const auto [mx, my, kind] = GetParam();
  const auto labels = make_labels(mx, my, kind);
  std::set<std::int32_t> uniq(labels.begin(), labels.end());
  EXPECT_EQ(uniq.size(), static_cast<std::size_t>(mx * my));
  EXPECT_EQ(*uniq.begin(), 0);
  EXPECT_EQ(*uniq.rbegin(), mx * my - 1);
}

TEST_P(LabelingParam, MonotonePathsExistWhereExpected) {
  const auto [mx, my, kind] = GetParam();
  const auto labels = make_labels(mx, my, kind);
  MonotoneTables t(mx, my, labels);
  const int P = mx * my;
  int missing_up = 0;
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      if (s == d) continue;
      if (labels[static_cast<std::size_t>(s)] <
          labels[static_cast<std::size_t>(d)]) {
        if (t.up_dir(d, s) < 0) ++missing_up;
        EXPECT_LT(t.down_dir(d, s), 0) << "down path cannot ascend";
      }
    }
  }
  if (kind == Labeling::Snake) {
    // Snake guarantee: consecutive labels adjacent => up path for EVERY
    // ascending pair.
    EXPECT_EQ(missing_up, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LabelingParam,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(2, 4, 7),
                       ::testing::Values(Labeling::Snake, Labeling::RowMajor,
                                         Labeling::PerimeterArc)));

TEST(Labeling, RadixSixteenUpPathCoveragePerLabeling) {
  // The 4x4 radix-16 C-group: ascending label pairs with an up-only path.
  // Snake covers every pair; the others leave the gaps the reduced-VC
  // schemes fill with XY fallbacks (configs/ablation-labeling.conf).
  for (const auto [kind, want] : {std::pair{Labeling::Snake, 120},
                                  {Labeling::RowMajor, 84},
                                  {Labeling::PerimeterArc, 108}}) {
    const auto labels = make_labels(4, 4, kind);
    const MonotoneTables t(4, 4, labels);
    int pairs = 0, covered = 0;
    for (int s = 0; s < 16; ++s) {
      for (int d = 0; d < 16; ++d) {
        if (labels[static_cast<std::size_t>(s)] >=
            labels[static_cast<std::size_t>(d)])
          continue;
        ++pairs;
        covered += t.up_dir(d, s) >= 0;
      }
    }
    EXPECT_EQ(pairs, 120) << to_string(kind);
    EXPECT_EQ(covered, want) << to_string(kind);
  }
}

TEST(Labeling, SnakeConsecutiveLabelsAreAdjacent) {
  for (const auto [mx, my] : {std::pair{4, 4}, {8, 4}, {3, 5}}) {
    const auto labels = make_labels(mx, my, Labeling::Snake);
    std::vector<int> pos_of(static_cast<std::size_t>(mx * my));
    for (int p = 0; p < mx * my; ++p)
      pos_of[static_cast<std::size_t>(labels[static_cast<std::size_t>(p)])] =
          p;
    for (int l = 0; l + 1 < mx * my; ++l) {
      const int a = pos_of[static_cast<std::size_t>(l)];
      const int b = pos_of[static_cast<std::size_t>(l + 1)];
      const int dist = std::abs(a % mx - b % mx) + std::abs(a / mx - b / mx);
      EXPECT_EQ(dist, 1) << "labels " << l << "," << l + 1;
    }
  }
}

TEST(Labeling, PerimeterPositionsFormTheRim) {
  const auto rim = perimeter_positions(4, 4);
  EXPECT_EQ(rim.size(), 12u);
  for (auto p : rim) {
    const int x = p % 4, y = p / 4;
    EXPECT_TRUE(x == 0 || x == 3 || y == 0 || y == 3);
  }
  // Ring order: consecutive rim cells are mesh-adjacent (cyclically).
  for (std::size_t i = 0; i < rim.size(); ++i) {
    const int a = rim[i], b = rim[(i + 1) % rim.size()];
    const int dist = std::abs(a % 4 - b % 4) + std::abs(a / 4 - b / 4);
    EXPECT_EQ(dist, 1);
  }
}

TEST(Labeling, PerimeterDegenerateShapes) {
  EXPECT_EQ(perimeter_positions(1, 5).size(), 5u);
  EXPECT_EQ(perimeter_positions(5, 1).size(), 5u);
  EXPECT_EQ(perimeter_positions(2, 2).size(), 4u);
}

TEST(Labeling, PerimeterByLabelSorted) {
  const auto labels = make_labels(4, 4, Labeling::Snake);
  const auto rim = perimeter_by_label(4, 4, labels);
  for (std::size_t i = 0; i + 1 < rim.size(); ++i)
    EXPECT_LT(labels[static_cast<std::size_t>(rim[i])],
              labels[static_cast<std::size_t>(rim[i + 1])]);
}

TEST(Labeling, PerimeterArcPutsRimOnTop) {
  const auto labels = make_labels(4, 4, Labeling::PerimeterArc);
  const auto rim = perimeter_positions(4, 4);
  std::set<int> rimset(rim.begin(), rim.end());
  for (int p = 0; p < 16; ++p) {
    if (rimset.count(p))
      EXPECT_GE(labels[static_cast<std::size_t>(p)], 4);
    else
      EXPECT_LT(labels[static_cast<std::size_t>(p)], 4);
  }
}

TEST(MonotoneTables, PathsAreShortestMonotone) {
  // On a snake-labeled 4x4, walking up_dir from src must reach dst with
  // strictly increasing labels and never loop.
  const int mx = 4, my = 4;
  const auto labels = make_labels(mx, my, Labeling::Snake);
  MonotoneTables t(mx, my, labels);
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (labels[static_cast<std::size_t>(s)] >=
          labels[static_cast<std::size_t>(d)])
        continue;
      int cur = s;
      int prev_label = -1;
      int steps = 0;
      while (cur != d) {
        const int dir = t.up_dir(d, cur);
        ASSERT_GE(dir, 0);
        const int x = cur % mx, y = cur / mx;
        switch (dir) {
          case kEast: cur = y * mx + x + 1; break;
          case kWest: cur = y * mx + x - 1; break;
          case kSouth: cur = (y + 1) * mx + x; break;
          case kNorth: cur = (y - 1) * mx + x; break;
        }
        EXPECT_GT(labels[static_cast<std::size_t>(cur)], prev_label);
        prev_label = labels[static_cast<std::size_t>(cur)];
        ASSERT_LT(++steps, 16);
      }
    }
  }
}
