// Shared topology-construction fixtures for the test suites: the tiny
// switch-less instance (a=1, b=3, 2x2 single-router chiplets, h=2) and the
// small switch-based Dragonfly (3 switches/group, 2:2, max 7 groups) that
// the topology/routing/fault suites all build, plus a generic routing walk
// used wherever a suite needs to follow the routing function hop by hop.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "route/cdg.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topo/dragonfly.hpp"
#include "topo/swless.hpp"

namespace sldf::testing {

/// Base seed of every randomized (property/fuzz) suite: `SLDF_FUZZ_SEED`
/// in the environment, else the suite's fixed CI default — the same knob
/// everywhere, mirroring how `SLDF_REGEN_GOLDEN` is the one regeneration
/// switch of the golden tiers. Randomized suites must print the seed they
/// ran with in every failure message, so a red run reproduces with one
/// env var and nothing else.
inline std::uint64_t fuzz_seed(std::uint64_t fixed_default) {
  if (const char* env = std::getenv("SLDF_FUZZ_SEED"))
    return std::strtoull(env, nullptr, 0);
  return fixed_default;
}

/// One mutant of `text` for the text-grammar fuzzers: one to three random
/// edits (a byte flipped, inserted or erased, or the rest truncated), each
/// new byte drawn from `alphabet` half the time and from all 256 values
/// otherwise.
inline std::string mutate(std::string text, Rng& rng,
                          const std::string& alphabet) {
  const auto byte = [&] {
    return rng.below(2) == 0 ? alphabet[rng.below(alphabet.size())]
                             : static_cast<char>(rng.below(256));
  };
  for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
    const std::size_t at = text.empty() ? 0 : rng.below(text.size());
    const std::uint64_t op = rng.below(4);
    if (op == 0 && !text.empty())
      text[at] = byte();  // flip
    else if (op == 1)
      text.insert(at, 1, byte());
    else if (op == 2 && !text.empty())
      text.erase(at, 1);
    else if (op == 3)
      text.resize(at);  // truncate
  }
  return text;
}

/// Flit/packet conservation audit over a finished run's ledger: everything
/// injected is delivered, dropped, or still in flight at drain — per plane
/// and in total. Use as EXPECT_TRUE(audit_conservation(res)).
inline ::testing::AssertionResult audit_conservation(
    const sim::SimResult& r) {
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  };
  if (r.generated_packets !=
      r.delivered_total + r.dropped_packets + r.inflight_packets)
    return ::testing::AssertionFailure()
           << "packet ledger: generated " << r.generated_packets
           << " != delivered " << r.delivered_total << " + dropped "
           << r.dropped_packets << " + inflight " << r.inflight_packets;
  if (r.generated_flits != r.ejected_flits + r.lost_flits + r.inflight_flits)
    return ::testing::AssertionFailure()
           << "flit ledger: generated " << r.generated_flits
           << " != ejected " << r.ejected_flits << " + lost " << r.lost_flits
           << " + inflight " << r.inflight_flits;
  if (sum(r.plane_generated) != r.generated_packets)
    return ::testing::AssertionFailure()
           << "plane_generated sums to " << sum(r.plane_generated)
           << ", total is " << r.generated_packets;
  if (sum(r.plane_delivered) != r.delivered_total)
    return ::testing::AssertionFailure()
           << "plane_delivered sums to " << sum(r.plane_delivered)
           << ", total is " << r.delivered_total;
  if (sum(r.plane_dropped) != r.dropped_packets)
    return ::testing::AssertionFailure()
           << "plane_dropped sums to " << sum(r.plane_dropped)
           << ", total is " << r.dropped_packets;
  if (sum(r.plane_inflight) != r.inflight_packets)
    return ::testing::AssertionFailure()
           << "plane_inflight sums to " << sum(r.plane_inflight)
           << ", total is " << r.inflight_packets;
  // Per-plane ledgers must close individually, not just in aggregate.
  for (std::size_t p = 0; p < r.plane_generated.size(); ++p) {
    if (r.plane_generated[p] != r.plane_delivered[p] + r.plane_dropped[p] +
                                    r.plane_inflight[p])
      return ::testing::AssertionFailure()
             << "plane " << p << " ledger: generated "
             << r.plane_generated[p] << " != delivered "
             << r.plane_delivered[p] << " + dropped " << r.plane_dropped[p]
             << " + inflight " << r.plane_inflight[p];
  }
  // Same discipline for the wafer split of a wafer-on-wafer stack.
  if (sum(r.wafer_generated) != r.generated_packets)
    return ::testing::AssertionFailure()
           << "wafer_generated sums to " << sum(r.wafer_generated)
           << ", total is " << r.generated_packets;
  if (sum(r.wafer_delivered) != r.delivered_total)
    return ::testing::AssertionFailure()
           << "wafer_delivered sums to " << sum(r.wafer_delivered)
           << ", total is " << r.delivered_total;
  if (sum(r.wafer_dropped) != r.dropped_packets)
    return ::testing::AssertionFailure()
           << "wafer_dropped sums to " << sum(r.wafer_dropped)
           << ", total is " << r.dropped_packets;
  if (sum(r.wafer_inflight) != r.inflight_packets)
    return ::testing::AssertionFailure()
           << "wafer_inflight sums to " << sum(r.wafer_inflight)
           << ", total is " << r.inflight_packets;
  for (std::size_t w = 0; w < r.wafer_generated.size(); ++w) {
    if (r.wafer_generated[w] != r.wafer_delivered[w] + r.wafer_dropped[w] +
                                    r.wafer_inflight[w])
      return ::testing::AssertionFailure()
             << "wafer " << w << " ledger: generated "
             << r.wafer_generated[w] << " != delivered "
             << r.wafer_delivered[w] << " + dropped " << r.wafer_dropped[w]
             << " + inflight " << r.wafer_inflight[w];
  }
  return ::testing::AssertionSuccess();
}

/// Every field of two SimResults must match exactly: the order-sensitive
/// floating-point latency statistics, the fault accounting, the
/// conservation ledger and the per-plane / per-wafer vectors. Only
/// `phases` is left out: it is host-time and shard-split telemetry, not
/// simulation output. Field by field rather than operator==, so a failure
/// names the field that diverged.
inline void expect_bit_identical(const sim::SimResult& a,
                                 const sim::SimResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.generated_measured, b.generated_measured);
  EXPECT_EQ(a.delivered_measured, b.delivered_measured);
  EXPECT_EQ(a.delivered_total, b.delivered_total);
  EXPECT_EQ(a.suppressed, b.suppressed);
  EXPECT_EQ(a.drained, b.drained);
  for (int h = 0; h < kNumLinkTypes; ++h)
    EXPECT_EQ(a.avg_hops[h], b.avg_hops[h]) << "link type " << h;
  EXPECT_EQ(a.avg_hops_total, b.avg_hops_total);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.dropped_flits, b.dropped_flits);
  EXPECT_EQ(a.rescued_packets, b.rescued_packets);
  EXPECT_EQ(a.generated_packets, b.generated_packets);
  EXPECT_EQ(a.inflight_packets, b.inflight_packets);
  EXPECT_EQ(a.generated_flits, b.generated_flits);
  EXPECT_EQ(a.ejected_flits, b.ejected_flits);
  EXPECT_EQ(a.lost_flits, b.lost_flits);
  EXPECT_EQ(a.inflight_flits, b.inflight_flits);
  EXPECT_EQ(a.plane_generated, b.plane_generated);
  EXPECT_EQ(a.plane_delivered, b.plane_delivered);
  EXPECT_EQ(a.plane_dropped, b.plane_dropped);
  EXPECT_EQ(a.plane_inflight, b.plane_inflight);
  EXPECT_EQ(a.wafer_generated, b.wafer_generated);
  EXPECT_EQ(a.wafer_delivered, b.wafer_delivered);
  EXPECT_EQ(a.wafer_dropped, b.wafer_dropped);
  EXPECT_EQ(a.wafer_inflight, b.wafer_inflight);
}

/// The tiny switch-less instance (core::tiny_swless(); max g = 7, chip ==
/// router) with the suite's scheme, mode and group count (0 = max).
inline topo::SwlessParams tiny_swless_params(
    route::VcScheme scheme = route::VcScheme::Baseline,
    route::RouteMode mode = route::RouteMode::Minimal, int g = 0) {
  topo::SwlessParams p = core::tiny_swless();
  p.g = g;
  p.scheme = scheme;
  p.mode = mode;
  return p;
}

/// The small switch-based Dragonfly (max 7 groups).
inline topo::SwDragonflyParams small_swdf_params(
    int groups = 0, route::RouteMode mode = route::RouteMode::Minimal) {
  topo::SwDragonflyParams p;
  p.switches_per_group = 3;
  p.terminals_per_switch = 2;
  p.globals_per_switch = 2;  // max groups = 7
  p.groups = groups;
  p.mode = mode;
  return p;
}

/// One walk of the routing function src -> dst.
struct RouteWalk {
  bool delivered = false;
  int channel_hops = 0;
  int lr_hops = 0;  ///< Long-reach (local + global) hops.
  int global_hops = 0;
  int vertical_hops = 0;  ///< Inter-wafer bond crossings.
  int max_vc = 0;
  bool vc_monotone = true;        ///< VC never decreases across any hop.
  bool vc_monotone_on_lr = true;  ///< VC never decreases across LR hops.
  bool used_dead_link = false;    ///< Crossed a fault-masked channel.
};

/// Follows the routing function from `s` to `d` with route::walk. `mid`
/// >= -1 overrides the packet's intermediate group after init_packet (pass
/// -2 to keep the choice init_packet made). Stops after `max_hops` channel
/// hops (the walk is then reported undelivered) or on the first dead-link
/// crossing.
inline RouteWalk walk_route(const sim::Network& net, NodeId s, NodeId d,
                            std::int32_t mid, std::uint64_t rng_seed = 9,
                            int max_hops = 256) {
  RouteWalk w;
  sim::Packet pkt;
  pkt.src = s;
  pkt.dst = d;
  Rng rng(rng_seed);
  net.routing()->init_packet(net, pkt, rng);
  if (mid >= -1) pkt.mid_wgroup = mid;
  int last_vc = -1;
  int last_lr_vc = -1;
  const auto end = route::walk(
      net, pkt, static_cast<std::size_t>(max_hops),
      [&](NodeId, const sim::RouteDecision& dec, ChanId c) {
        if (dec.out_vc < last_vc) w.vc_monotone = false;
        last_vc = dec.out_vc;
        if (c == kInvalidChan || !net.chan_live(c)) return;
        const auto& ch = net.chan(c);
        w.max_vc = std::max(w.max_vc, static_cast<int>(dec.out_vc));
        if (ch.type == LinkType::Vertical) ++w.vertical_hops;
        if (ch.type == LinkType::LongReachLocal ||
            ch.type == LinkType::LongReachGlobal) {
          ++w.lr_hops;
          if (ch.type == LinkType::LongReachGlobal) ++w.global_hops;
          if (dec.out_vc <= last_lr_vc) w.vc_monotone_on_lr = false;
          last_lr_vc = dec.out_vc;
        }
        ++w.channel_hops;
      });
  w.delivered = end == route::WalkEnd::Delivered;
  w.used_dead_link = end == route::WalkEnd::DeadChannel;
  return w;
}

}  // namespace sldf::testing
