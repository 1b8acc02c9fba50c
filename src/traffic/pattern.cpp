#include "traffic/pattern.hpp"

#include <stdexcept>

#include "topo/hier.hpp"
#include "traffic/allreduce.hpp"

namespace sldf::traffic {

UniformTraffic::UniformTraffic(const sim::Network& net)
    : terms_(net.logical_terminals()) {}

NodeId UniformTraffic::dest(const sim::Network&, NodeId src, Rng& rng) {
  if (terms_.size() < 2) return kInvalidNode;
  for (;;) {
    const NodeId d = terms_[rng.below(terms_.size())];
    if (d != src) return d;
  }
}

PermutationTraffic::PermutationTraffic(const sim::Network& net,
                                       Permutation kind)
    : kind_(kind), terms_(net.logical_terminals()) {
  while ((std::size_t{1} << (bits_ + 1)) <= terms_.size()) ++bits_;
  term_index_.assign(net.num_routers(), -1);
  for (std::size_t i = 0; i < terms_.size(); ++i)
    term_index_[static_cast<std::size_t>(terms_[i])] =
        static_cast<std::int32_t>(i);
}

const char* PermutationTraffic::name() const {
  switch (kind_) {
    case Permutation::BitReverse: return "bit-reverse";
    case Permutation::BitShuffle: return "bit-shuffle";
    case Permutation::BitTranspose: return "bit-transpose";
  }
  return "?";
}

NodeId PermutationTraffic::dest(const sim::Network&, NodeId src, Rng& rng) {
  const auto i = static_cast<std::uint32_t>(
      term_index_[static_cast<std::size_t>(src)]);
  const std::uint32_t n_perm = 1u << bits_;
  if (i >= n_perm) {  // outside the permuted sub-cube: uniform fallback
    for (;;) {
      const NodeId d = terms_[rng.below(terms_.size())];
      if (d != src) return d;
    }
  }
  std::uint32_t j = 0;
  switch (kind_) {
    case Permutation::BitReverse:
      for (int b = 0; b < bits_; ++b)
        if (i & (1u << b)) j |= 1u << (bits_ - 1 - b);
      break;
    case Permutation::BitShuffle:
      j = ((i << 1) | (i >> (bits_ - 1))) & (n_perm - 1);
      break;
    case Permutation::BitTranspose: {
      const int half = bits_ / 2;
      const int rest = bits_ - half;
      j = (i >> half) | ((i & ((1u << half) - 1)) << rest);
      break;
    }
  }
  return terms_[j];
}

HotspotTraffic::HotspotTraffic(const sim::Network& net, int hot_groups) {
  const auto& hier = net.topo<topo::HierTopo>();
  const int limit = std::min<std::int32_t>(hot_groups, hier.num_wgroups);
  is_hot_.assign(net.num_routers(), false);
  std::vector<bool> chip_hot(net.num_chips(), false);
  for (ChipId c = 0; c < static_cast<ChipId>(net.num_chips()); ++c) {
    if (hier.chip_wgroup[static_cast<std::size_t>(c)] < limit) {
      chip_hot[static_cast<std::size_t>(c)] = true;
      ++active_chips_;
    }
  }
  for (NodeId n : net.logical_terminals()) {
    if (chip_hot[static_cast<std::size_t>(net.chip_of(n))]) {
      is_hot_[static_cast<std::size_t>(n)] = true;
      hot_terms_.push_back(n);
    }
  }
  if (hot_terms_.size() < 2)
    throw std::invalid_argument("HotspotTraffic: fewer than 2 hot terminals");
}

NodeId HotspotTraffic::dest(const sim::Network&, NodeId src, Rng& rng) {
  if (!is_hot_[static_cast<std::size_t>(src)]) return kInvalidNode;
  for (;;) {
    const NodeId d = hot_terms_[rng.below(hot_terms_.size())];
    if (d != src) return d;
  }
}

WorstCaseTraffic::WorstCaseTraffic(const sim::Network& net) {
  const auto& hier = net.topo<topo::HierTopo>();
  group_terms_.resize(static_cast<std::size_t>(hier.num_wgroups));
  node_group_.assign(net.num_routers(), -1);
  for (NodeId n : net.logical_terminals()) {
    const auto wg = hier.chip_wgroup[static_cast<std::size_t>(net.chip_of(n))];
    group_terms_[static_cast<std::size_t>(wg)].push_back(n);
    node_group_[static_cast<std::size_t>(n)] = wg;
  }
  if (group_terms_.size() < 2)
    throw std::invalid_argument("WorstCaseTraffic: needs >= 2 W-groups");
}

NodeId WorstCaseTraffic::dest(const sim::Network&, NodeId src, Rng& rng) {
  const auto wg = static_cast<std::size_t>(
      node_group_[static_cast<std::size_t>(src)]);
  const auto& peers = group_terms_[(wg + 1) % group_terms_.size()];
  if (peers.empty()) return kInvalidNode;
  return peers[rng.below(peers.size())];
}

namespace {

// Each pattern's options struct; its rows are the options' one declaration.
struct NoOptions {};
struct Hotspot {
  int hot_groups = 4;
};
struct Ring {
  RingScope scope = RingScope::WGroup;
  bool bidir = false;
};

template <typename S, typename Make>
void add_pattern(TrafficRegistry& reg, const char* name, const char* summary,
                 std::vector<core::Option<S>> rows, Make make) {
  reg.add(name, core::RegistryDoc{summary, core::option_docs(rows)},
          [name, rows, make](const sim::Network& net, const core::KvMap& opts)
              -> std::unique_ptr<sim::TrafficSource> {
            return make(net, core::read_options(
                                 rows, S{}, opts,
                                 std::string("traffic '") + name + "'"));
          });
}

void add_permutation(TrafficRegistry& reg, const char* name,
                     const char* summary, Permutation kind) {
  add_pattern<NoOptions>(reg, name, summary, {},
                         [kind](const sim::Network& net, NoOptions) {
                           return std::make_unique<PermutationTraffic>(net,
                                                                       kind);
                         });
}

}  // namespace

TrafficRegistry::TrafficRegistry() {
  add_pattern<NoOptions>(*this, "uniform", "uniform random over all terminals",
                         {}, [](const sim::Network& net, NoOptions) {
                           return std::make_unique<UniformTraffic>(net);
                         });
  add_permutation(*this, "bit-reverse",
                  "bit-reversal permutation over terminal indices",
                  Permutation::BitReverse);
  add_permutation(*this, "bit-shuffle",
                  "bit-shuffle permutation over terminal indices",
                  Permutation::BitShuffle);
  add_permutation(*this, "bit-transpose",
                  "bit-transpose permutation over terminal indices",
                  Permutation::BitTranspose);
  add_pattern<Hotspot>(
      *this, "hotspot", "traffic confined to the first hot_groups W-groups",
      {core::option<Hotspot>("hot_groups", &Hotspot::hot_groups,
                             core::Int<int>{1},
                             "W-groups that exchange traffic")},
      [](const sim::Network& net, const Hotspot& o) {
        return std::make_unique<HotspotTraffic>(net, o.hot_groups);
      });
  add_pattern<NoOptions>(*this, "worst-case",
                         "every W-group i sends to W-group (i+1) mod g", {},
                         [](const sim::Network& net, NoOptions) {
                           return std::make_unique<WorstCaseTraffic>(net);
                         });
  add_pattern<Ring>(
      *this, "ring-allreduce",
      "steady-state ring AllReduce streams (open-loop saturation probe; the "
      "`ring-allreduce` *workload* runs it closed-loop)",
      {core::option<Ring>("scope", &Ring::scope, workload::kScopeCodec,
                          "chips forming one ring"),
       core::option<Ring>("bidir", &Ring::bidir, core::Bool{},
                          "stream to both ring neighbours")},
      [](const sim::Network& net, const Ring& o) {
        return std::make_unique<RingAllReduceTraffic>(net, o.scope, o.bidir);
      });
}

TrafficRegistry& TrafficRegistry::instance() {
  static TrafficRegistry reg;
  return reg;
}

std::unique_ptr<sim::TrafficSource> make_pattern(const std::string& kind,
                                                 const sim::Network& net,
                                                 const core::KvMap& opts) {
  return TrafficRegistry::instance().make(kind, net, opts);
}

}  // namespace sldf::traffic
