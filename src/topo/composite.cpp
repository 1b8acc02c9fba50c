#include "topo/composite.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "route/composite.hpp"

namespace sldf::topo {

namespace {

/// The wafer policy: wafer-major concatenation of the hierarchy tables and
/// the vertical bond columns.
void stack_wafers(sim::Network& net, const CompositeSpec& spec,
                  CompositeTopo& agg) {
  const std::size_t cpw = net.chips_per_wafer();
  agg.chips_per_wafer = static_cast<std::int32_t>(cpw);

  // Wafer w's chip c maps to wafer 0's chip (c % cpw) with group indices
  // offset by w stacks' worth of groups.
  const HierTopo tmpl = static_cast<const HierTopo&>(agg);
  const std::size_t total_chips = net.num_chips();
  agg.chip_cgroup.resize(total_chips);
  agg.chip_wgroup.resize(total_chips);
  agg.chip_ring_rank.resize(total_chips);
  for (std::size_t c = 0; c < total_chips; ++c) {
    const auto w = static_cast<std::int32_t>(c / cpw);
    const std::size_t l = c % cpw;
    agg.chip_cgroup[c] = w * tmpl.num_cgroups + tmpl.chip_cgroup[l];
    agg.chip_wgroup[c] = w * tmpl.num_wgroups + tmpl.chip_wgroup[l];
    agg.chip_ring_rank[c] = tmpl.chip_ring_rank[l];
  }
  agg.num_cgroups = tmpl.num_cgroups * spec.count;
  agg.num_wgroups = tmpl.num_wgroups * spec.count;

  // Every chip column gets all-pairs duplex cables between the wafers'
  // portal routers, so any wafer pair is one vertical hop apart (and faults
  // on one pair can detour through another column, never through a third
  // wafer).
  agg.portal_of_chip.resize(total_chips);
  for (std::size_t c = 0; c < total_chips; ++c)
    agg.portal_of_chip[c] = net.chip_nodes(static_cast<ChipId>(c)).front();
  const auto wn = static_cast<std::size_t>(spec.count);
  agg.vert.assign(cpw * wn * wn, kInvalidChan);
  for (std::size_t col = 0; col < cpw; ++col) {
    const auto cl = static_cast<std::int32_t>(col);
    for (int wa = 0; wa < spec.count; ++wa) {
      for (int wb = wa + 1; wb < spec.count; ++wb) {
        const ChanId fwd = net.add_duplex(
            agg.portal(wa, cl), agg.portal(wb, cl), LinkType::Vertical,
            spec.vertical_latency, spec.vertical_width_num,
            spec.vertical_width_den);
        agg.vert[col * wn * wn + static_cast<std::size_t>(wa) * wn +
                 static_cast<std::size_t>(wb)] = fwd;
        agg.vert[col * wn * wn + static_cast<std::size_t>(wb) * wn +
                 static_cast<std::size_t>(wa)] = fwd + 1;
      }
    }
  }
}

}  // namespace

void build_composite(sim::Network& net, const CompositeSpec& spec,
                     const ChildWirer& wire) {
  const bool wafers = spec.axis == sim::Axis::Wafers;
  const std::string what = wafers ? "wafer" : "plane";
  if (spec.count < 1)
    throw std::invalid_argument(what + ".count must be >= 1, got " +
                                std::to_string(spec.count));
  if (net.num_routers() != 0)
    throw std::invalid_argument(
        "build_composite: network already has routers");

  auto agg = std::make_unique<CompositeTopo>();
  agg->count = spec.count;
  std::vector<std::unique_ptr<sim::RoutingAlgorithm>> routings;
  routings.reserve(static_cast<std::size_t>(spec.count));
  std::size_t chips = 0;  // chips one child spans
  int vc_buf = 0;

  for (int i = 0; i < spec.count; ++i) {
    const std::string child = what + " " + std::to_string(i);
    net.begin_child(spec.axis);
    WiredFabric f = wire(i, net);
    if (f.info == nullptr || f.routing == nullptr || f.num_vcs < 1 ||
        f.vc_buf < 1)
      throw std::invalid_argument(child +
                                  ": child wirer returned an empty fabric");
    // Planes share the chip ids; every wafer adds its own.
    const std::size_t span =
        net.num_chips() - (wafers ? chips * static_cast<std::size_t>(i) : 0);
    if (i == 0) {
      chips = span;
      vc_buf = f.vc_buf;
      agg->child_num_vcs = f.num_vcs;
      const auto* hier = dynamic_cast<const HierTopo*>(f.info.get());
      if (hier == nullptr)
        throw std::invalid_argument(
            child + " fabric has no hierarchy metadata (HierTopo); it "
                    "cannot anchor a composite");
      static_cast<HierTopo&>(*agg) = *hier;
    } else {
      if (span != chips)
        throw std::invalid_argument(
            child + " spans " + std::to_string(span) + " chips, " + what +
            " 0 spans " + std::to_string(chips) + " (every " + what +
            " must cover the same chip count)");
      if (f.vc_buf != vc_buf ||
          (wafers && f.num_vcs != agg->child_num_vcs))
        throw std::invalid_argument(
            child + " wants " + std::to_string(f.num_vcs) + " VCs x " +
            std::to_string(f.vc_buf) + " flits, " + what + " 0 wants " +
            std::to_string(agg->child_num_vcs) + " x " +
            std::to_string(vc_buf) +
            (wafers ? " (all wafers of a stack must be identical)"
                    : " (finalize() applies one depth network-wide)"));
      agg->child_num_vcs = std::max(agg->child_num_vcs, f.num_vcs);
    }
    f.routing->bind_topo(*f.info, f.num_vcs);
    agg->children.push_back(std::move(f.info));
    routings.push_back(std::move(f.routing));
  }

  int num_vcs = agg->child_num_vcs;
  std::unique_ptr<route::CompositeRouting> routing;
  if (wafers) {
    stack_wafers(net, spec, *agg);
    if (spec.count > 1) num_vcs = 2 * num_vcs + 1;
    routing = std::make_unique<route::WaferRouting>(std::move(routings));
  } else {
    routing = std::make_unique<route::PlaneRouting>(std::move(routings));
  }
  routing->bind_topo(*agg, num_vcs);
  net.set_topo_info(std::move(agg));
  net.set_routing(std::move(routing));
  net.finalize(num_vcs, vc_buf);
  net.seal_children(spec.plane_policy);
}

}  // namespace sldf::topo
