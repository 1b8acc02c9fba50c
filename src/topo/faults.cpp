#include "topo/faults.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/strfmt.hpp"

namespace sldf::topo {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::Any: return "any";
    case FaultKind::Intra: return "intra";
    case FaultKind::Local: return "local";
    case FaultKind::Global: return "global";
    case FaultKind::Vertical: return "vertical";
  }
  return "?";
}

FaultKind parse_fault_kind(const std::string& s) {
  if (s == "any") return FaultKind::Any;
  if (s == "intra") return FaultKind::Intra;
  if (s == "local") return FaultKind::Local;
  if (s == "global") return FaultKind::Global;
  if (s == "vertical") return FaultKind::Vertical;
  throw std::invalid_argument("unknown fault kind '" + s +
                              "' (expected any|intra|local|global|vertical)");
}

namespace {

/// True when a channel of this type/endpoints belongs to the kind's
/// candidate class. Converter attach links and terminal links are never
/// random-fault candidates: they fail only as part of a chip fault.
bool is_candidate(const sim::Network& net, const sim::Channel& ch,
                  FaultKind kind) {
  const bool mesh =
      (ch.type == LinkType::OnChip || ch.type == LinkType::ShortReach) &&
      net.router(ch.src).kind == NodeKind::Core &&
      net.router(ch.dst).kind == NodeKind::Core;
  switch (kind) {
    case FaultKind::Intra: return mesh;
    case FaultKind::Local: return ch.type == LinkType::LongReachLocal;
    case FaultKind::Global: return ch.type == LinkType::LongReachGlobal;
    case FaultKind::Vertical: return ch.type == LinkType::Vertical;
    case FaultKind::Any:
      return mesh || ch.type == LinkType::LongReachLocal ||
             ch.type == LinkType::LongReachGlobal ||
             ch.type == LinkType::Vertical;
  }
  return false;
}

/// fault.plane filter: -1 admits every plane.
bool plane_admits(const sim::Network& net, const sim::Channel& ch,
                  int plane) {
  return plane < 0 || net.plane_of_node(ch.src) == plane;
}

/// The kind's duplex cables (a failed cable takes both directions down,
/// keyed by the unordered endpoint pair) in seeded-permutation order. The
/// static injector fails the first n entries and an online timeline's
/// level n is the same prefix, so a higher rate's set contains a lower
/// rate's.
std::vector<std::vector<ChanId>> permuted_cables(const sim::Network& net,
                                                 FaultKind kind,
                                                 std::uint64_t seed,
                                                 int plane) {
  std::map<std::pair<NodeId, NodeId>, std::vector<ChanId>> cables;
  for (std::size_t i = 0; i < net.num_channels(); ++i) {
    const auto c = static_cast<ChanId>(i);
    const sim::Channel& ch = net.chan(c);
    if (!is_candidate(net, ch, kind)) continue;
    if (!plane_admits(net, ch, plane)) continue;
    cables[{std::min(ch.src, ch.dst), std::max(ch.src, ch.dst)}].push_back(c);
  }
  std::vector<std::vector<ChanId>> out;
  out.reserve(cables.size());
  for (auto& [key, chans] : cables) out.push_back(std::move(chans));
  Rng rng(seed);
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.below(out.size() - i));
    std::swap(out[i], out[j]);
  }
  return out;
}

}  // namespace

FaultReport inject_faults(sim::Network& net, const FaultSpec& spec) {
  if (!spec.active())
    throw std::invalid_argument("inject_faults: spec has no faults");
  if (spec.rate < 0.0 || spec.rate > 1.0)
    throw std::invalid_argument("inject_faults: rate must be in [0, 1]");
  net.enable_fault_mask();

  FaultReport rep;

  const auto cables = permuted_cables(net, spec.kind, spec.seed, spec.plane);
  rep.candidate_cables = cables.size();
  const auto n_fail = static_cast<std::size_t>(
      std::llround(spec.rate * static_cast<double>(cables.size())));
  for (std::size_t i = 0; i < n_fail; ++i)
    for (const ChanId c : cables[i]) net.disable_channel(c);
  rep.failed_cables = n_fail;

  for (const ChipId chip : spec.chips) {
    if (chip < 0 || chip >= static_cast<ChipId>(net.num_chips()))
      throw std::invalid_argument(
          strf("inject_faults: chip %d out of range (network has %zu chips)",
               chip, net.num_chips()));
    for (const NodeId n : net.chip_nodes(chip)) net.disable_node(n);
  }
  rep.failed_chips = spec.chips.size();

  rep.dead_channels = net.num_dead_channels();
  rep.dead_nodes = net.num_dead_nodes();
  return rep;
}

std::string FaultReport::to_string() const {
  return strf(
      "faults: %zu/%zu cables failed, %zu chips failed "
      "(%zu channels, %zu nodes dead)",
      failed_cables, candidate_cables, failed_chips, dead_channels,
      dead_nodes);
}

FaultAudit audit_fault_routing(const sim::Network& net,
                               std::size_t max_hops) {
  FaultAudit audit;
  Rng rng(12345);  // Fixed: the audit itself is deterministic.
  for (const NodeId src : net.terminals()) {
    for (const NodeId dst : net.terminals()) {
      if (src == dst) continue;
      // Planes are disjoint rails: no route crosses planes, so only
      // same-plane pairs are meaningful walks (single-plane: always true).
      if (net.plane_of_node(src) != net.plane_of_node(dst)) continue;
      if (!net.node_live(src) || !net.node_live(dst)) {
        ++audit.skipped_dead;
        continue;
      }
      ++audit.pairs;
      sim::Packet pkt;
      pkt.src = src;
      pkt.dst = dst;
      pkt.len = 1;
      net.routing()->init_packet(net, pkt, rng);
      NodeId cur = src;
      PortIx in_port = net.router(src).inj_port;
      std::size_t hops = 0;
      for (;;) {
        const auto d = net.routing()->route(net, cur, in_port, pkt);
        const auto& r = net.router(cur);
        if (d.out_port < 0 ||
            d.out_port >= static_cast<PortIx>(r.out.size())) {
          ++audit.unreachable;
          break;
        }
        const ChanId c =
            r.out[static_cast<std::size_t>(d.out_port)].out_chan;
        if (c == kInvalidChan) {  // ejection
          if (cur != dst) ++audit.unreachable;
          audit.max_hops_seen = std::max(audit.max_hops_seen, hops);
          break;
        }
        if (!net.chan_live(c)) {
          ++audit.dead_link_uses;
          ++audit.unreachable;
          break;
        }
        const auto& ch = net.chan(c);
        cur = ch.dst;
        in_port = ch.dst_port;
        if (++hops > max_hops) {  // livelocked walk
          ++audit.unreachable;
          break;
        }
      }
    }
  }
  return audit;
}

std::string FaultAudit::to_string() const {
  return strf(
      "fault audit: %zu pairs walked, %zu unreachable "
      "(%zu dead-link uses), %zu pairs skipped (dead endpoint), "
      "max hops %zu",
      pairs, unreachable, dead_link_uses, skipped_dead, max_hops_seen);
}

// ---------------------------------------------------------------------------
// Fault event timeline: parsing.
// ---------------------------------------------------------------------------

namespace {

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool parse_verb(const std::string& v, bool& fail) {
  if (v == "fail") return fail = true, true;
  if (v == "repair") return fail = false, true;
  return false;
}

bool parse_cycle(const std::string& s, Cycle& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (~0ULL - static_cast<std::uint64_t>(c - '0')) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

bool parse_rate(const std::string& s, double& out) {
  if (s.empty()) return false;
  std::size_t consumed = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  if (consumed != s.size() || !(v >= 0.0 && v <= 1.0)) return false;
  out = v;
  return true;
}

/// Parses the `<what>` payload shared by both formats when it arrives as a
/// single token: `chip<N>` or `<kind>=<rate>`.
bool parse_what(const std::string& what, FaultEvent& ev) {
  if (what.rfind("chip", 0) == 0) {
    const std::string num = what.substr(4);
    Cycle id = 0;
    if (!parse_cycle(num, id) || id > 0x7fffffffULL) return false;
    ev.is_chip = true;
    ev.chip = static_cast<ChipId>(id);
    return true;
  }
  const auto eq = what.find('=');
  if (eq == std::string::npos) return false;
  try {
    ev.kind = parse_fault_kind(trimmed(what.substr(0, eq)));
  } catch (const std::invalid_argument&) {
    return false;
  }
  ev.is_chip = false;
  return parse_rate(trimmed(what.substr(eq + 1)), ev.rate);
}

void check_ordered(const FaultTimeline& tl, const std::string& where) {
  for (std::size_t i = 1; i < tl.events.size(); ++i) {
    if (tl.events[i].at < tl.events[i - 1].at)
      throw FaultError(
          strf("%s: events out of order (cycle %llu after %llu); the "
               "timeline must be non-decreasing in cycle",
               where.c_str(),
               static_cast<unsigned long long>(tl.events[i].at),
               static_cast<unsigned long long>(tl.events[i - 1].at)));
  }
}

}  // namespace

FaultTimeline parse_fault_events(const std::string& s) {
  FaultTimeline tl;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto semi = s.find(';', pos);
    const std::string tok = trimmed(
        s.substr(pos, semi == std::string::npos ? std::string::npos
                                                : semi - pos));
    pos = semi == std::string::npos ? s.size() + 1 : semi + 1;
    if (tok.empty()) continue;
    const auto bad = [&tok]() -> FaultError {
      return FaultError(strf(
          "fault.events: bad event '%s' (expected "
          "fail|repair@<cycle>:<kind>=<rate> or fail|repair@<cycle>:chip<N>)",
          tok.c_str()));
    };
    const auto at_pos = tok.find('@');
    if (at_pos == std::string::npos) throw bad();
    const auto colon = tok.find(':', at_pos + 1);
    if (colon == std::string::npos) throw bad();
    FaultEvent ev;
    if (!parse_verb(trimmed(tok.substr(0, at_pos)), ev.fail)) throw bad();
    if (!parse_cycle(trimmed(tok.substr(at_pos + 1, colon - at_pos - 1)),
                     ev.at))
      throw bad();
    if (!parse_what(trimmed(tok.substr(colon + 1)), ev)) throw bad();
    tl.events.push_back(ev);
  }
  check_ordered(tl, "fault.events");
  return tl;
}

FaultTimeline parse_fault_schedule(std::istream& in,
                                   const std::string& origin) {
  std::string line;
  std::size_t lineno = 0;
  const auto err = [&](const std::string& msg) -> FaultError {
    return FaultError(strf("%s:%zu: %s", origin.c_str(), lineno, msg.c_str()));
  };

  // Header.
  if (!std::getline(in, line)) throw err("empty fault schedule");
  ++lineno;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (trimmed(line) != "sldf-faults 1")
    throw err("bad header (expected 'sldf-faults 1')");

  FaultTimeline tl;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trimmed(line);
    if (line.empty()) continue;

    // Tokenize: verb cycle what [arg].
    std::vector<std::string> toks;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])))
        ++i;
      std::size_t j = i;
      while (j < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[j])))
        ++j;
      if (j > i) toks.push_back(line.substr(i, j - i));
      i = j;
    }
    if (toks.size() != 4)
      throw err(
          "expected 'fail|repair <cycle> chip <N>' or "
          "'fail|repair <cycle> <kind> <rate>'");
    FaultEvent ev;
    if (!parse_verb(toks[0], ev.fail))
      throw err("unknown verb '" + toks[0] + "' (expected fail|repair)");
    if (!parse_cycle(toks[1], ev.at))
      throw err("bad cycle '" + toks[1] + "'");
    if (toks[2] == "chip") {
      Cycle id = 0;
      if (!parse_cycle(toks[3], id) || id > 0x7fffffffULL)
        throw err("bad chip id '" + toks[3] + "'");
      ev.is_chip = true;
      ev.chip = static_cast<ChipId>(id);
    } else {
      try {
        ev.kind = parse_fault_kind(toks[2]);
      } catch (const std::invalid_argument& e) {
        throw err(e.what());
      }
      if (!parse_rate(toks[3], ev.rate))
        throw err("bad rate '" + toks[3] + "' (expected a number in [0, 1])");
    }
    if (!tl.events.empty() && ev.at < tl.events.back().at)
      throw err(strf("cycle %llu precedes the previous event's cycle %llu; "
                     "the timeline must be non-decreasing in cycle",
                     static_cast<unsigned long long>(ev.at),
                     static_cast<unsigned long long>(tl.events.back().at)));
    tl.events.push_back(ev);
  }
  return tl;
}

FaultTimeline load_fault_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw FaultError("cannot open fault schedule file '" + path + "'");
  return parse_fault_schedule(in, path);
}

// ---------------------------------------------------------------------------
// Fault event timeline: resolution against a finalized network.
// ---------------------------------------------------------------------------

namespace {

struct KindState {
  std::vector<std::vector<ChanId>> cables;  ///< Permuted duplex cables.
  std::size_t level = 0;                    ///< Dead prefix length.
};

}  // namespace

sim::FaultSchedule resolve_timeline(const sim::Network& net,
                                    const FaultTimeline& timeline,
                                    const FaultSpec& base) {
  if (base.rate < 0.0 || base.rate > 1.0)
    throw FaultError("resolve_timeline: base rate must be in [0, 1]");
  check_ordered(timeline, "resolve_timeline");

  std::map<FaultKind, KindState> kinds;
  const auto kind_state = [&](FaultKind k) -> KindState& {
    auto it = kinds.find(k);
    if (it == kinds.end())
      it = kinds
               .emplace(k, KindState{permuted_cables(net, k, base.seed,
                                                     base.plane),
                                     0})
               .first;
    return it->second;
  };

  // Model: a directed channel is dead while any failed cable covers it or
  // either endpoint node is dead. Counted (not boolean) because FaultKind::Any
  // and a specific kind can fail the same cable independently.
  std::vector<std::uint32_t> cable_dead(net.num_channels(), 0);
  std::vector<std::uint8_t> node_dead(net.num_routers(), 0);
  std::vector<std::uint8_t> chip_dead(net.num_chips(), 0);
  const auto chan_dead = [&](ChanId c) {
    const sim::Channel& ch = net.chan(c);
    return cable_dead[static_cast<std::size_t>(c)] > 0 ||
           node_dead[static_cast<std::size_t>(ch.src)] != 0 ||
           node_dead[static_cast<std::size_t>(ch.dst)] != 0;
  };
  const auto set_level = [&](KindState& ks, std::size_t lvl) {
    while (ks.level < lvl) {
      for (const ChanId c : ks.cables[ks.level])
        ++cable_dead[static_cast<std::size_t>(c)];
      ++ks.level;
    }
    while (ks.level > lvl) {
      --ks.level;
      for (const ChanId c : ks.cables[ks.level])
        --cable_dead[static_cast<std::size_t>(c)];
    }
  };

  // Cycle-0 state: the static injection the network was built with.
  if (base.rate > 0.0) {
    KindState& ks = kind_state(base.kind);
    set_level(ks, static_cast<std::size_t>(std::llround(
                      base.rate * static_cast<double>(ks.cables.size()))));
  }
  for (const ChipId chip : base.chips) {
    if (chip < 0 || chip >= static_cast<ChipId>(net.num_chips()))
      throw FaultError(strf("resolve_timeline: base chip %d out of range",
                            chip));
    chip_dead[static_cast<std::size_t>(chip)] = 1;
    for (const NodeId n : net.chip_nodes(chip))
      node_dead[static_cast<std::size_t>(n)] = 1;
  }

  // The model's cycle-0 state must agree with the network's current mask;
  // a mismatched base spec would make every diff below nonsense.
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    if ((node_dead[i] != 0) != !net.node_live(static_cast<NodeId>(i)))
      throw FaultError(
          strf("resolve_timeline: base spec disagrees with the network's "
               "fault state at node %zu (wrong seed/rate/kind/chips?)",
               i));
  }
  for (std::size_t i = 0; i < net.num_channels(); ++i) {
    if (chan_dead(static_cast<ChanId>(i)) !=
        !net.chan_live(static_cast<ChanId>(i)))
      throw FaultError(
          strf("resolve_timeline: base spec disagrees with the network's "
               "fault state at channel %zu (wrong seed/rate/kind?)",
               i));
  }

  std::vector<std::uint8_t> prev_chan(net.num_channels());
  for (std::size_t i = 0; i < net.num_channels(); ++i)
    prev_chan[i] = chan_dead(static_cast<ChanId>(i)) ? 1 : 0;
  std::vector<std::uint8_t> prev_node = node_dead;

  sim::FaultSchedule sched;
  std::size_t ei = 0;
  const auto& evs = timeline.events;
  while (ei < evs.size()) {
    const Cycle at = evs[ei].at;
    for (; ei < evs.size() && evs[ei].at == at; ++ei) {
      const FaultEvent& e = evs[ei];
      if (e.is_chip) {
        if (e.chip < 0 || e.chip >= static_cast<ChipId>(net.num_chips()))
          throw FaultError(strf(
              "resolve_timeline: chip %d out of range at cycle %llu "
              "(network has %zu chips)",
              e.chip, static_cast<unsigned long long>(e.at),
              net.num_chips()));
        auto& dead = chip_dead[static_cast<std::size_t>(e.chip)];
        if (e.fail && dead)
          throw FaultError(strf(
              "resolve_timeline: fail of already-failed chip %d at cycle "
              "%llu",
              e.chip, static_cast<unsigned long long>(e.at)));
        if (!e.fail && !dead)
          throw FaultError(strf(
              "resolve_timeline: repair of live chip %d at cycle %llu",
              e.chip, static_cast<unsigned long long>(e.at)));
        dead = e.fail ? 1 : 0;
        for (const NodeId n : net.chip_nodes(e.chip))
          node_dead[static_cast<std::size_t>(n)] = dead;
      } else {
        KindState& ks = kind_state(e.kind);
        const auto lvl = static_cast<std::size_t>(std::llround(
            e.rate * static_cast<double>(ks.cables.size())));
        if (e.fail && lvl < ks.level)
          throw FaultError(strf(
              "resolve_timeline: fail event at cycle %llu lowers the %s "
              "level (%zu -> %zu cables); use repair to lower a rate",
              static_cast<unsigned long long>(e.at), to_string(e.kind),
              ks.level, lvl));
        if (!e.fail && lvl > ks.level)
          throw FaultError(strf(
              "resolve_timeline: repair event at cycle %llu raises the %s "
              "level (%zu -> %zu cables); use fail to raise a rate",
              static_cast<unsigned long long>(e.at), to_string(e.kind),
              ks.level, lvl));
        set_level(ks, lvl);
      }
    }

    sim::FaultStep step;
    step.at = at;
    for (std::size_t i = 0; i < net.num_routers(); ++i) {
      if (node_dead[i] == prev_node[i]) continue;
      (node_dead[i] ? step.fail_nodes : step.repair_nodes)
          .push_back(static_cast<NodeId>(i));
      prev_node[i] = node_dead[i];
    }
    for (std::size_t i = 0; i < net.num_channels(); ++i) {
      const std::uint8_t cur = chan_dead(static_cast<ChanId>(i)) ? 1 : 0;
      if (cur == prev_chan[i]) continue;
      (cur ? step.fail_chans : step.repair_chans)
          .push_back(static_cast<ChanId>(i));
      prev_chan[i] = cur;
    }
    if (!step.fail_nodes.empty() || !step.repair_nodes.empty() ||
        !step.fail_chans.empty() || !step.repair_chans.empty())
      sched.steps.push_back(std::move(step));
  }
  return sched;
}

// ---------------------------------------------------------------------------
// Fault event timeline: instant audits.
// ---------------------------------------------------------------------------

TimelineAudit audit_at(sim::Network& net, Cycle t, std::size_t max_hops) {
  const sim::FaultSchedule* sched = net.fault_schedule();
  if (sched == nullptr || !net.has_fault_baseline())
    throw FaultError(
        "audit_at: network has no attached fault schedule and captured "
        "baseline (built without a fault timeline?)");

  const auto apply = [&net](const sim::FaultStep& s) {
    for (const NodeId n : s.fail_nodes) net.set_node_alive(n, false);
    for (const ChanId c : s.fail_chans) net.disable_channel(c);
    for (const ChanId c : s.repair_chans) net.enable_channel(c, 0);
    for (const NodeId n : s.repair_nodes) net.set_node_alive(n, true);
  };

  TimelineAudit ta;
  ta.at = t;
  net.restore_fault_baseline();
  std::size_t i = 0;
  for (; i < sched->steps.size() && sched->steps[i].at <= t; ++i)
    apply(sched->steps[i]);
  ta.snapshot = audit_fault_routing(net, max_hops);
  for (; i < sched->steps.size(); ++i) apply(sched->steps[i]);
  ta.settled = audit_fault_routing(net, max_hops);
  net.restore_fault_baseline();
  return ta;
}

std::string TimelineAudit::to_string() const {
  return strf(
      "timeline audit @%llu: %zu unreachable now (%zu transient, heal by "
      "the end of the timeline; %zu permanent), settled audit: %s",
      static_cast<unsigned long long>(at), snapshot.unreachable,
      transient_unreachable(), settled.unreachable,
      settled.to_string().c_str());
}

}  // namespace sldf::topo
