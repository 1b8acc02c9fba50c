#include "workload/collectives.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/error.hpp"
#include "topo/hier.hpp"

namespace sldf::workload {

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

void check_sizes(const char* name, std::uint64_t flits, int iters) {
  if (flits == 0)
    throw std::invalid_argument(std::string("workload '") + name +
                                "': message size must be >= 1 flit");
  if (iters < 1)
    throw std::invalid_argument(std::string("workload '") + name +
                                "': iters must be >= 1");
}

/// Groups partitioned by scope, each required to hold >= 2 chips.
/// Chips the active fault mask killed are dropped from their group — the
/// collective reforms over the survivors, the same way a job scheduler
/// would skip a dead board. A group that *structurally* has < 2 chips is a
/// configuration bug (std::invalid_argument); one that the fault mask
/// emptied or reduced below 2 is a runtime condition of this scenario
/// (ScenarioError).
std::vector<std::vector<ChipId>> groups_of_two(
    const sim::Network& net, Scope scope, const char* name,
    const std::vector<ChipId>& subset) {
  auto groups = chip_groups(net, scope, subset);
  for (auto& g : groups) {
    if (g.size() < 2)
      throw std::invalid_argument(std::string("workload '") + name +
                                  "': a " + to_string(scope) +
                                  " scope group has < 2 chips");
    if (!net.has_faults()) continue;
    const std::size_t structural = g.size();
    g.erase(std::remove_if(
                g.begin(), g.end(),
                [&](ChipId c) { return !net.chip_live(c); }),
            g.end());
    if (g.size() < 2)
      throw ScenarioError(
          std::string("workload '") + name + "': a " + to_string(scope) +
          " scope group of " + std::to_string(structural) +
          " chips has " + std::to_string(g.size()) +
          " live chips under the active fault mask (>= 2 required)");
  }
  return groups;
}

}  // namespace

const char* to_string(Scope s) {
  switch (s) {
    case Scope::CGroup: return "cgroup";
    case Scope::WGroup: return "wgroup";
    case Scope::System: return "system";
  }
  return "?";
}

Scope parse_scope(const std::string& s) {
  for (const Scope scope : {Scope::CGroup, Scope::WGroup, Scope::System})
    if (s == to_string(scope)) return scope;
  throw std::invalid_argument("unknown scope '" + s + "'");
}

void narrow_external_messages(const sim::Network& net, WorkloadGraph& g) {
  const auto& hier = net.topo<topo::HierTopo>();
  for (auto& m : g.messages)
    if (hier.chip_cgroup[static_cast<std::size_t>(m.src)] !=
        hier.chip_cgroup[static_cast<std::size_t>(m.dst)])
      m.stripe = 1;
}

std::vector<std::vector<ChipId>> chip_groups(
    const sim::Network& net, Scope scope,
    const std::vector<ChipId>& subset) {
  const auto& hier = net.topo<topo::HierTopo>();
  const auto nchips = static_cast<ChipId>(net.num_chips());
  std::vector<ChipId> pool;
  if (subset.empty()) {
    pool.resize(static_cast<std::size_t>(nchips));
    for (ChipId c = 0; c < nchips; ++c)
      pool[static_cast<std::size_t>(c)] = c;
  } else {
    pool = subset;
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(nchips), 0);
    for (const ChipId c : pool) {
      if (c < 0 || c >= nchips)
        throw std::invalid_argument("chip_groups: chip " + std::to_string(c) +
                                    " out of range (network has " +
                                    std::to_string(nchips) + " chips)");
      if (seen[static_cast<std::size_t>(c)]++)
        throw std::invalid_argument("chip_groups: chip " + std::to_string(c) +
                                    " listed twice");
    }
  }
  std::map<std::int32_t, std::vector<ChipId>> groups;
  for (const ChipId c : pool) {
    std::int32_t key = 0;
    switch (scope) {
      case Scope::CGroup:
        key = hier.chip_cgroup[static_cast<std::size_t>(c)];
        break;
      case Scope::WGroup:
        key = hier.chip_wgroup[static_cast<std::size_t>(c)];
        break;
      case Scope::System: key = 0; break;
    }
    groups[key].push_back(c);
  }
  std::vector<std::vector<ChipId>> out;
  out.reserve(groups.size());
  for (auto& [key, chips] : groups) {
    (void)key;
    std::sort(chips.begin(), chips.end(), [&](ChipId a, ChipId b) {
      const auto ca = hier.chip_cgroup[static_cast<std::size_t>(a)];
      const auto cb = hier.chip_cgroup[static_cast<std::size_t>(b)];
      if (ca != cb) return ca < cb;
      return hier.chip_ring_rank[static_cast<std::size_t>(a)] <
             hier.chip_ring_rank[static_cast<std::size_t>(b)];
    });
    out.push_back(std::move(chips));
  }
  return out;
}

WorkloadGraph ring_allreduce(const sim::Network& net, Scope scope,
                             std::uint64_t vector_flits, int chunks,
                             int iters, const std::vector<ChipId>& subset) {
  check_sizes("ring-allreduce", vector_flits, iters);
  if (chunks < 1)
    throw std::invalid_argument(
        "workload 'ring-allreduce': chunks must be >= 1");
  const auto groups = groups_of_two(net, scope, "ring-allreduce", subset);
  WorkloadGraph g;
  g.name = "ring-allreduce";
  std::size_t max_steps = 0;
  for (const auto& chips : groups)
    max_steps = std::max(max_steps, 2 * (chips.size() - 1));

  for (const auto& chips : groups) {
    const std::size_t n = chips.size();
    const std::size_t steps = 2 * (n - 1);
    const std::uint64_t seg = ceil_div(vector_flits, n);
    const auto nchunks = static_cast<std::size_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(chunks), seg));
    const std::uint64_t base = seg / nchunks;
    const std::uint64_t rem = seg % nchunks;
    // prev[pos][j]: the chunk-j message chip `pos` sent in the previous
    // step (its arrival at the successor gates the successor's next send).
    std::vector<std::vector<MsgId>> prev(n), cur(n);
    for (auto& v : prev) v.resize(nchunks, kInvalidMsg);
    for (auto& v : cur) v.resize(nchunks, kInvalidMsg);
    for (int iter = 0; iter < iters; ++iter) {
      for (std::size_t s = 0; s < steps; ++s) {
        const auto phase =
            static_cast<std::int32_t>(iter * max_steps + s);
        for (std::size_t pos = 0; pos < n; ++pos) {
          const std::size_t pred = (pos + n - 1) % n;
          for (std::size_t j = 0; j < nchunks; ++j) {
            const std::uint64_t flits = base + (j < rem ? 1 : 0);
            const MsgId id =
                g.add(chips[pos], chips[(pos + 1) % n], flits, phase);
            if (s > 0 || iter > 0)
              g.messages[id].deps.push_back(prev[pred][j]);
            cur[pos][j] = id;
          }
        }
        std::swap(prev, cur);
      }
    }
  }
  g.num_phases = static_cast<std::int32_t>(
      static_cast<std::size_t>(iters) * max_steps);
  narrow_external_messages(net, g);
  return g;
}

WorkloadGraph halving_doubling_allreduce(const sim::Network& net, Scope scope,
                                         std::uint64_t vector_flits,
                                         int iters,
                                         const std::vector<ChipId>& subset) {
  check_sizes("halving-doubling-allreduce", vector_flits, iters);
  const auto groups =
      groups_of_two(net, scope, "halving-doubling-allreduce", subset);
  WorkloadGraph g;
  g.name = "halving-doubling-allreduce";
  std::size_t m_max = 0;
  for (const auto& chips : groups) {
    std::size_t m = 0;
    while ((std::size_t{2} << m) <= chips.size()) ++m;
    m_max = std::max(m_max, m);
  }
  // Phase layout per iteration: pre-fold (0), m_max halving steps,
  // m_max doubling steps, post-fold (last).
  const std::size_t phases_per_iter = 2 * m_max + 2;

  for (const auto& chips : groups) {
    const std::size_t n = chips.size();
    std::size_t m = 0;
    while ((std::size_t{2} << m) <= n) ++m;
    const std::size_t pow = std::size_t{1} << m;
    const std::size_t extras = n - pow;
    // Last message delivered INTO each rank in the previous iteration
    // (gates the next iteration's first sends).
    std::vector<MsgId> prev_final_in(n, kInvalidMsg);
    for (int iter = 0; iter < iters; ++iter) {
      const auto base =
          static_cast<std::int32_t>(static_cast<std::size_t>(iter) *
                                    phases_per_iter);
      // Pre-fold: extra rank pow+i contributes its vector to core rank i.
      std::vector<MsgId> pre_in(pow, kInvalidMsg);
      for (std::size_t i = 0; i < extras; ++i) {
        const MsgId id = g.add(chips[pow + i], chips[i], vector_flits, base);
        if (prev_final_in[pow + i] != kInvalidMsg)
          g.messages[id].deps.push_back(prev_final_in[pow + i]);
        pre_in[i] = id;
      }
      // Halving (reduce-scatter): step k exchanges vector/2^(k+1) with the
      // partner at distance pow/2^(k+1).
      std::vector<MsgId> in_prev(pow, kInvalidMsg), in_cur(pow, kInvalidMsg);
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t d = pow >> (k + 1);
        const std::uint64_t flits =
            ceil_div(vector_flits, std::uint64_t{1} << (k + 1));
        const auto phase = static_cast<std::int32_t>(base + 1 + k);
        for (std::size_t r = 0; r < pow; ++r) {
          const std::size_t partner = r ^ d;
          const MsgId id = g.add(chips[r], chips[partner], flits, phase);
          auto& deps = g.messages[id].deps;
          if (k == 0) {
            if (pre_in[r] != kInvalidMsg) deps.push_back(pre_in[r]);
            if (prev_final_in[r] != kInvalidMsg)
              deps.push_back(prev_final_in[r]);
          } else {
            deps.push_back(in_prev[r]);
          }
          in_cur[partner] = id;
        }
        std::swap(in_prev, in_cur);
      }
      // Doubling (allgather): shards double back up.
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t d = std::size_t{1} << k;
        const std::uint64_t flits =
            ceil_div(vector_flits << k, static_cast<std::uint64_t>(pow));
        const auto phase = static_cast<std::int32_t>(base + 1 + m + k);
        for (std::size_t r = 0; r < pow; ++r) {
          const std::size_t partner = r ^ d;
          const MsgId id = g.add(chips[r], chips[partner], flits, phase);
          g.messages[id].deps.push_back(in_prev[r]);
          in_cur[partner] = id;
        }
        std::swap(in_prev, in_cur);
      }
      // Post-fold: core rank i returns the result to extra rank pow+i.
      for (std::size_t r = 0; r < pow; ++r) prev_final_in[r] = in_prev[r];
      const auto post = static_cast<std::int32_t>(base + 1 + 2 * m);
      for (std::size_t i = 0; i < extras; ++i) {
        const MsgId id = g.add(chips[i], chips[pow + i], vector_flits, post);
        g.messages[id].deps.push_back(in_prev[i]);
        prev_final_in[pow + i] = id;
      }
    }
  }
  g.num_phases = static_cast<std::int32_t>(
      static_cast<std::size_t>(iters) * phases_per_iter);
  narrow_external_messages(net, g);
  return g;
}

WorkloadGraph tree_allreduce(const sim::Network& net, Scope scope,
                             std::uint64_t vector_flits, int iters,
                             const std::vector<ChipId>& subset) {
  check_sizes("tree-allreduce", vector_flits, iters);
  const auto groups = groups_of_two(net, scope, "tree-allreduce", subset);
  WorkloadGraph g;
  g.name = "tree-allreduce";
  std::size_t m_max = 0;
  for (const auto& chips : groups) {
    std::size_t m = 0;
    while ((std::size_t{1} << m) < chips.size()) ++m;
    m_max = std::max(m_max, m);
  }
  const std::size_t phases_per_iter = 2 * m_max;

  for (const auto& chips : groups) {
    const std::size_t n = chips.size();
    std::size_t m = 0;
    while ((std::size_t{1} << m) < n) ++m;
    // Broadcast message delivered into each rank last iteration.
    std::vector<MsgId> prev_bcast_in(n, kInvalidMsg);
    for (int iter = 0; iter < iters; ++iter) {
      const auto base =
          static_cast<std::int32_t>(static_cast<std::size_t>(iter) *
                                    phases_per_iter);
      // Binomial reduce toward rank 0: at step k, rank r (r mod 2^(k+1)
      // == 2^k) sends its partial sum to r - 2^k. Each non-root sends
      // exactly once, after all of its own children have arrived.
      std::vector<std::vector<MsgId>> reduce_in(n);
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t bit = std::size_t{1} << k;
        const auto phase = static_cast<std::int32_t>(base + k);
        for (std::size_t r = bit; r < n; r += bit << 1) {
          const MsgId id = g.add(chips[r], chips[r - bit], vector_flits,
                                 phase);
          auto& deps = g.messages[id].deps;
          for (const MsgId child : reduce_in[r]) deps.push_back(child);
          if (prev_bcast_in[r] != kInvalidMsg)
            deps.push_back(prev_bcast_in[r]);
          reduce_in[r - bit].push_back(id);
        }
      }
      // Binomial broadcast back out of rank 0 (mirrored step order).
      std::vector<MsgId> bcast_in(n, kInvalidMsg);
      for (std::size_t k = m; k-- > 0;) {
        const std::size_t bit = std::size_t{1} << k;
        const auto phase =
            static_cast<std::int32_t>(base + m + (m - 1 - k));
        for (std::size_t r = 0; r + bit < n; r += bit << 1) {
          const MsgId id =
              g.add(chips[r], chips[r + bit], vector_flits, phase);
          auto& deps = g.messages[id].deps;
          if (r == 0) {
            for (const MsgId child : reduce_in[0]) deps.push_back(child);
          } else {
            deps.push_back(bcast_in[r]);
          }
          bcast_in[r + bit] = id;
        }
      }
      prev_bcast_in = bcast_in;
    }
  }
  g.num_phases = static_cast<std::int32_t>(
      static_cast<std::size_t>(iters) * phases_per_iter);
  narrow_external_messages(net, g);
  return g;
}

WorkloadGraph all_to_all(const sim::Network& net, Scope scope,
                         std::uint64_t pair_flits, int window, int iters,
                         const std::vector<ChipId>& subset) {
  check_sizes("all-to-all", pair_flits, iters);
  if (window < 0)
    throw std::invalid_argument("workload 'all-to-all': window must be >= 0");
  const auto groups = groups_of_two(net, scope, "all-to-all", subset);
  WorkloadGraph g;
  g.name = "all-to-all";
  std::size_t rounds_max = 0;
  for (const auto& chips : groups)
    rounds_max = std::max(rounds_max, chips.size() - 1);

  for (const auto& chips : groups) {
    const std::size_t n = chips.size();
    const std::size_t rounds = n - 1;
    const auto w = static_cast<std::size_t>(window);
    // by_round[r][i]: message chip i sent in round r+1 of this iteration.
    std::vector<std::vector<MsgId>> by_round(
        rounds, std::vector<MsgId>(n, kInvalidMsg));
    std::vector<MsgId> prev_last(n, kInvalidMsg);
    for (int iter = 0; iter < iters; ++iter) {
      for (std::size_t r = 1; r <= rounds; ++r) {
        const auto phase = static_cast<std::int32_t>(
            static_cast<std::size_t>(iter) * rounds_max + (r - 1));
        for (std::size_t i = 0; i < n; ++i) {
          const MsgId id =
              g.add(chips[i], chips[(i + r) % n], pair_flits, phase);
          if (w > 0) {
            // Sender window: round r waits for the sender's own round
            // r - window to be fully delivered.
            if (r > w)
              g.messages[id].deps.push_back(by_round[r - w - 1][i]);
            else if (prev_last[i] != kInvalidMsg)
              g.messages[id].deps.push_back(prev_last[i]);
          }
          by_round[r - 1][i] = id;
        }
      }
      prev_last = by_round[rounds - 1];
    }
  }
  g.num_phases = static_cast<std::int32_t>(
      static_cast<std::size_t>(iters) * rounds_max);
  narrow_external_messages(net, g);
  return g;
}

WorkloadGraph stencil3d(const sim::Network& net, Scope scope,
                        std::uint64_t halo_flits, int iters, bool periodic,
                        const std::vector<ChipId>& subset) {
  check_sizes("stencil-3d", halo_flits, iters);
  const auto groups = groups_of_two(net, scope, "stencil-3d", subset);
  WorkloadGraph g;
  g.name = "stencil-3d";

  for (const auto& chips : groups) {
    const std::size_t n = chips.size();
    // Most cubic exact factorization x <= y <= z of n (MPI_Dims_create
    // style): every chip participates, so a prime group size degenerates
    // to a 1x1xn chain rather than idling chips.
    std::size_t bx = 1, by = 1, bz = n;
    for (std::size_t x = 1; x * x * x <= n; ++x) {
      if (n % x != 0) continue;
      const std::size_t rest = n / x;
      for (std::size_t y = x; y * y <= rest; ++y) {
        if (rest % y != 0) continue;
        const std::size_t z = rest / y;
        if (z - x < bz - bx) {
          bx = x;
          by = y;
          bz = z;
        }
      }
    }
    const std::size_t dims[3] = {bx, by, bz};
    // Face-neighbour cell indices of each grid cell, deduplicated (a
    // periodic dimension of size 2 reaches the same cell both ways).
    const std::size_t cells = dims[0] * dims[1] * dims[2];
    std::vector<std::vector<std::size_t>> nbrs(cells);
    for (std::size_t iz = 0; iz < dims[2]; ++iz)
      for (std::size_t iy = 0; iy < dims[1]; ++iy)
        for (std::size_t ix = 0; ix < dims[0]; ++ix) {
          const std::size_t cell = ix + dims[0] * (iy + dims[1] * iz);
          const std::size_t c[3] = {ix, iy, iz};
          for (int d = 0; d < 3; ++d) {
            for (int dir = -1; dir <= 1; dir += 2) {
              std::size_t v[3] = {c[0], c[1], c[2]};
              if (dir < 0 && v[d] == 0) {
                if (!periodic) continue;
                v[d] = dims[d] - 1;
              } else if (dir > 0 && v[d] + 1 == dims[d]) {
                if (!periodic) continue;
                v[d] = 0;
              } else {
                v[d] += static_cast<std::size_t>(dir);
              }
              const std::size_t nb = v[0] + dims[0] * (v[1] + dims[1] * v[2]);
              if (nb == cell) continue;  // size-1 wrap
              auto& list = nbrs[cell];
              if (std::find(list.begin(), list.end(), nb) == list.end())
                list.push_back(nb);
            }
          }
        }
    // Iterations: every halo send of iteration t waits on all halos that
    // arrived at its chip in iteration t-1.
    std::vector<std::vector<MsgId>> in_prev(cells), in_cur(cells);
    for (int t = 0; t < iters; ++t) {
      for (auto& v : in_cur) v.clear();
      for (std::size_t cell = 0; cell < cells; ++cell) {
        for (const std::size_t nb : nbrs[cell]) {
          const MsgId id = g.add(chips[cell], chips[nb], halo_flits, t);
          for (const MsgId dep : in_prev[cell])
            g.messages[id].deps.push_back(dep);
          in_cur[nb].push_back(id);
        }
      }
      std::swap(in_prev, in_cur);
    }
  }
  g.num_phases = iters;
  narrow_external_messages(net, g);
  return g;
}

}  // namespace sldf::workload
