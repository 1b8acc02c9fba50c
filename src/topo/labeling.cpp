#include "topo/labeling.hpp"

#include <algorithm>
#include <stdexcept>

namespace sldf::topo {

const char* to_string(Labeling l) {
  switch (l) {
    case Labeling::Snake: return "snake";
    case Labeling::RowMajor: return "row-major";
    case Labeling::PerimeterArc: return "perimeter-arc";
  }
  return "?";
}

Labeling parse_labeling(const std::string& s) {
  for (const auto l :
       {Labeling::Snake, Labeling::RowMajor, Labeling::PerimeterArc})
    if (s == to_string(l)) return l;
  throw std::invalid_argument("unknown labeling '" + s + "'");
}

std::vector<std::int32_t> perimeter_positions(int mx, int my) {
  std::vector<std::int32_t> out;
  if (mx <= 0 || my <= 0) return out;
  if (mx == 1) {
    for (int y = 0; y < my; ++y) out.push_back(y * mx);
    return out;
  }
  if (my == 1) {
    for (int x = 0; x < mx; ++x) out.push_back(x);
    return out;
  }
  for (int x = 0; x < mx; ++x) out.push_back(x);                    // top
  for (int y = 1; y < my; ++y) out.push_back(y * mx + (mx - 1));    // right
  for (int x = mx - 2; x >= 0; --x) out.push_back((my - 1) * mx + x);  // bottom
  for (int y = my - 2; y >= 1; --y) out.push_back(y * mx);          // left
  return out;
}

std::vector<std::int32_t> make_labels(int mx, int my, Labeling kind) {
  if (mx <= 0 || my <= 0) throw std::invalid_argument("make_labels: bad dims");
  const auto n = static_cast<std::size_t>(mx) * static_cast<std::size_t>(my);
  std::vector<std::int32_t> labels(n, -1);
  switch (kind) {
    case Labeling::RowMajor:
      for (std::size_t i = 0; i < n; ++i)
        labels[i] = static_cast<std::int32_t>(i);
      break;
    case Labeling::Snake:
      for (int y = 0; y < my; ++y) {
        for (int x = 0; x < mx; ++x) {
          const int xi = (y % 2 == 0) ? x : (mx - 1 - x);
          labels[static_cast<std::size_t>(y) * static_cast<std::size_t>(mx) +
                 static_cast<std::size_t>(xi)] = y * mx + x;
        }
      }
      break;
    case Labeling::PerimeterArc: {
      const auto rim = perimeter_positions(mx, my);
      std::vector<bool> is_rim(n, false);
      for (auto p : rim) is_rim[static_cast<std::size_t>(p)] = true;
      // Interior first (snake over interior cells), then the rim in ring
      // order taking the top labels.
      std::int32_t next = 0;
      for (int y = 0; y < my; ++y) {
        for (int x = 0; x < mx; ++x) {
          const int xi = (y % 2 == 0) ? x : (mx - 1 - x);
          const auto pos = static_cast<std::size_t>(y * mx + xi);
          if (!is_rim[pos]) labels[pos] = next++;
        }
      }
      for (auto p : rim) labels[static_cast<std::size_t>(p)] = next++;
      break;
    }
  }
  return labels;
}

std::vector<std::int32_t> ring_order(int gx, int gy) {
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(gx) * static_cast<std::size_t>(gy));
  const auto at = [gx](int x, int y) {
    return static_cast<std::int32_t>(y * gx + x);
  };
  if (gx < 2 || gy < 2) {
    for (int i = 0; i < gx * gy; ++i) order.push_back(i);
    return order;
  }
  if (gy % 2 == 0) {
    // Top row rightwards, snake down columns 1..gx-1, return up column 0.
    for (int x = 1; x < gx; ++x) order.push_back(at(x, 0));
    for (int x = gx - 1; x >= 1; --x) {
      if ((gx - 1 - x) % 2 == 0)
        for (int y = 1; y < gy; ++y) order.push_back(at(x, y));
      else
        for (int y = gy - 1; y >= 1; --y) order.push_back(at(x, y));
    }
    for (int y = gy - 1; y >= 0; --y) order.push_back(at(0, y));
    return order;
  }
  if (gx % 2 == 0) {
    const auto t = ring_order(gy, gx);  // transpose
    for (auto i : t) order.push_back(at(i / gy, i % gy));
    return order;
  }
  // Both dims odd: no Hamiltonian cycle exists; snake path fallback.
  for (int y = 0; y < gy; ++y) {
    if (y % 2 == 0)
      for (int x = 0; x < gx; ++x) order.push_back(at(x, y));
    else
      for (int x = gx - 1; x >= 0; --x) order.push_back(at(x, y));
  }
  return order;
}

std::vector<std::int32_t> perimeter_by_label(
    int mx, int my, const std::vector<std::int32_t>& labels) {
  auto rim = perimeter_positions(mx, my);
  std::sort(rim.begin(), rim.end(), [&](std::int32_t a, std::int32_t b) {
    return labels[static_cast<std::size_t>(a)] <
           labels[static_cast<std::size_t>(b)];
  });
  return rim;
}

}  // namespace sldf::topo
