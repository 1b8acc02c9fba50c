#include "route/cdg.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/strfmt.hpp"
#include "route/composite.hpp"
#include "route/dragonfly_routing.hpp"
#include "route/swless_routing.hpp"
#include "topo/hier.hpp"

namespace sldf::route {

namespace {

/// Walks packets with route::walk, interning each (channel, VC) resource a
/// walk holds and the edge from the one held before it, and tallies each
/// walk's end into the report.
struct Recorder {
  const sim::Network& net;
  const CdgOptions& opt;
  CdgReport& rep;
  std::unordered_map<std::uint64_t, std::int32_t> res_id;
  std::vector<std::pair<ChanId, VcIx>> res_info;
  std::unordered_set<std::uint64_t> edge_keys;
  std::vector<std::vector<std::int32_t>> adj;
  bool failed = false;  ///< Some walk neither delivered nor hit a dead link.

  std::int32_t resource(ChanId c, VcIx v) {
    const auto key = static_cast<std::uint64_t>(c) *
                         static_cast<std::uint64_t>(net.num_vcs()) +
                     static_cast<std::uint64_t>(v);
    const auto [it, fresh] =
        res_id.emplace(key, static_cast<std::int32_t>(res_info.size()));
    if (fresh) {
      res_info.emplace_back(c, v);
      adj.emplace_back();
    }
    return it->second;
  }

  void edge(std::int32_t a, std::int32_t b) {
    const auto key = (static_cast<std::uint64_t>(a) << 32) |
                     static_cast<std::uint32_t>(b);
    if (edge_keys.insert(key).second) adj[static_cast<std::size_t>(a)].push_back(b);
  }

  /// Walks one packet and tallies how it ended. A walk that stops at a dead
  /// channel keeps its resource chain (the stalled packet holds it forever)
  /// and counts as undeliverable rather than failing the audit.
  void walk(NodeId src, NodeId dst, std::int32_t mid_override, Rng& rng) {
    sim::Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.len = 1;
    net.routing()->init_packet(net, pkt, rng);
    if (mid_override >= -1) pkt.mid_wgroup = mid_override;

    std::int32_t prev = -1;
    std::size_t decisions = 0;
    const WalkEnd end = route::walk(
        net, pkt, opt.max_hops,
        [&](NodeId, const sim::RouteDecision& d, ChanId c) {
          ++decisions;
          if (c == kInvalidChan) return;
          const auto id = resource(c, d.out_vc);
          if (prev >= 0) edge(prev, id);
          prev = id;
        });
    ++rep.paths_walked;
    if (end != WalkEnd::Delivered) ++rep.unreachable;
    if (end == WalkEnd::DeadChannel) ++rep.undeliverable;
    if (end != WalkEnd::Delivered && end != WalkEnd::DeadChannel)
      failed = true;
    // An ejection or a dead link ends the walk on a visited decision, one
    // more than the channels it crossed.
    if (end != WalkEnd::BadPort && end != WalkEnd::HopLimit)
      rep.max_path_hops = std::max(rep.max_path_hops, decisions - 1);
  }
};

/// Iterative DFS cycle finder; fills `cycle` with a witness if one exists.
bool find_cycle(const std::vector<std::vector<std::int32_t>>& adj,
                std::vector<std::int32_t>& cycle) {
  const auto n = adj.size();
  std::vector<std::int8_t> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::int32_t> stack;
  std::vector<std::size_t> iter;
  for (std::size_t s = 0; s < n; ++s) {
    if (color[s] != 0) continue;
    stack.push_back(static_cast<std::int32_t>(s));
    iter.push_back(0);
    color[s] = 1;
    while (!stack.empty()) {
      const auto u = static_cast<std::size_t>(stack.back());
      if (iter.back() < adj[u].size()) {
        const auto v = static_cast<std::size_t>(adj[u][iter.back()++]);
        if (color[v] == 0) {
          color[v] = 1;
          stack.push_back(static_cast<std::int32_t>(v));
          iter.push_back(0);
        } else if (color[v] == 1) {
          // Found a back edge: extract the cycle from the stack.
          auto it = stack.begin();
          while (static_cast<std::size_t>(*it) != v) ++it;
          cycle.assign(it, stack.end());
          return true;
        }
      } else {
        color[u] = 2;
        stack.pop_back();
        iter.pop_back();
      }
    }
  }
  return false;
}

}  // namespace

CdgReport audit_cdg(const sim::Network& net, const CdgOptions& opt) {
  CdgReport rep;
  Recorder w{net, opt, rep, {}, {}, {}, {}};
  Rng rng(42);

  // Every pair is routed inside one fabric: the network itself, or on a
  // composite the source's child (plane sets never cross planes; a wafer
  // stack plans the source leg there), which picks intermediates in its own
  // W-group numbering. Read the mode and the groups from that fabric; a
  // wafer child addresses chips by their column (chip % chips_per_wafer).
  struct Fabric {
    bool valiant = false;
    const topo::HierTopo* hier = nullptr;
  };
  const auto* comp = dynamic_cast<const CompositeRouting*>(net.routing());
  const auto* ctopo =
      dynamic_cast<const topo::CompositeTopo*>(net.topo_info());
  std::vector<Fabric> fabrics(
      static_cast<std::size_t>(std::max(1, net.num_children())));
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    const sim::RoutingAlgorithm* r = comp ? &comp->child(i) : net.routing();
    if (const auto* sw = dynamic_cast<const SwlessRouting*>(r))
      fabrics[i].valiant = sw->mode() != RouteMode::Minimal;
    if (const auto* df = dynamic_cast<const DragonflyRouting*>(r))
      fabrics[i].valiant = df->mode() != RouteMode::Minimal;
    fabrics[i].hier = dynamic_cast<const topo::HierTopo*>(
        ctopo ? ctopo->children[i].get() : net.topo_info());
  }
  const std::size_t cpw = net.chips_per_wafer();
  const auto group_of = [&](const Fabric& f, NodeId n) -> std::int32_t {
    if (!f.hier) return 0;
    return f.hier->chip_wgroup[static_cast<std::size_t>(net.chip_of(n)) %
                               cpw];
  };

  // Faulted networks: dead terminals are skipped, and init_packet's own
  // (fault-aware, deterministically sampled) intermediate choice is
  // audited instead of enumerating/overriding intermediates — an override
  // would walk detours the fault-aware planner specifically avoids. An
  // armed-but-empty mask routes exactly like a pristine network and is
  // audited as one.
  const bool fault_aware = net.has_faults();
  for (NodeId src : net.terminals()) {
    const Fabric& f =
        fabrics[static_cast<std::size_t>(net.child_of_node(src))];
    const std::int32_t num_groups = f.hier ? f.hier->num_wgroups : 1;
    for (NodeId dst : net.terminals()) {
      if (src == dst) continue;
      // Plane sets carry no cross-plane packets.
      if (net.plane_of_node(src) != net.plane_of_node(dst)) continue;
      if (fault_aware && (!net.node_live(src) || !net.node_live(dst))) {
        ++rep.skipped_dead;
        continue;
      }
      const auto gs = group_of(f, src);
      const auto gd = group_of(f, dst);
      if (f.valiant && opt.enumerate_intermediates && !fault_aware &&
          gs != gd && num_groups > 2) {
        for (std::int32_t mid = 0; mid < num_groups; ++mid)
          if (mid != gs && mid != gd) w.walk(src, dst, mid, rng);
      } else {
        w.walk(src, dst, fault_aware ? -2 : -1, rng);
      }
    }
  }

  rep.resources = w.res_info.size();
  rep.edges = w.edge_keys.size();
  std::vector<std::int32_t> cyc;
  const bool has_cycle = find_cycle(w.adj, cyc);
  rep.acyclic = !w.failed && !has_cycle;
  for (auto id : cyc)
    rep.cycle.push_back(w.res_info[static_cast<std::size_t>(id)]);
  return rep;
}

std::string CdgReport::to_string(const sim::Network& net) const {
  std::string s =
      strf("CDG audit: %s | paths=%zu resources=%zu edges=%zu max-hops=%zu",
           acyclic ? "ACYCLIC (deadlock-free)" : "CYCLE FOUND", paths_walked,
           resources, edges, max_path_hops);
  if (unreachable > 0) s += strf(" unreachable=%zu", unreachable);
  if (undeliverable > 0)
    s += strf(" undeliverable=%zu (fault mask)", undeliverable);
  if (skipped_dead > 0)
    s += strf(" skipped=%zu (dead endpoint)", skipped_dead);
  if (!cycle.empty()) {
    s += "\n  witness cycle:";
    for (const auto& [c, v] : cycle) {
      const auto& ch = net.chan(c);
      const auto tn = sldf::to_string(ch.type);
      s += strf(" [%d->%d vc%d %.*s]", ch.src, ch.dst, static_cast<int>(v),
                static_cast<int>(tn.size()), tn.data());
    }
  }
  return s;
}

}  // namespace sldf::route
