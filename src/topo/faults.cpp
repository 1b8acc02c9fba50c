#include "topo/faults.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/cli.hpp"
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
/// keyed by the unordered endpoint pair) in seeded-permutation order. A
/// kind's level n, static or online, fails the first n entries, so a
/// higher rate's set contains a lower rate's.
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

struct KindState {
  std::vector<std::vector<ChanId>> cables;  ///< Permuted duplex cables.
  std::size_t level = 0;                    ///< Dead prefix length.
};

/// The one fault-state model: per-kind dead prefixes of the seeded cable
/// permutations plus a dead flag per chip. The static spec sets its
/// cycle-0 state and timeline events move it; take_step() turns each move
/// into the concrete node and channel transitions of a sim::FaultStep. A
/// directed channel is dead while any failed cable covers it or either
/// endpoint node is dead; cables are counted, not flagged, because
/// FaultKind::Any and a specific kind can fail the same cable independently.
class LevelModel {
 public:
  LevelModel(const sim::Network& net, const FaultSpec& spec)
      : net_(net),
        seed_(spec.seed),
        plane_(spec.plane),
        cable_dead_(net.num_channels(), 0),
        node_dead_(net.num_routers(), 0),
        chip_dead_(net.num_chips(), 0),
        prev_chan_(net.num_channels(), 0),
        prev_node_(net.num_routers(), 0) {}

  /// The kind's cables, enumerated and permuted on first use.
  KindState& kind(FaultKind k) {
    auto it = kinds_.find(k);
    if (it == kinds_.end())
      it = kinds_
               .emplace(k, KindState{permuted_cables(net_, k, seed_, plane_),
                                     0})
               .first;
    return it->second;
  }

  /// round(rate * candidates): the dead prefix a rate stands for.
  static std::size_t level_of(const KindState& ks, double rate) {
    return static_cast<std::size_t>(
        std::llround(rate * static_cast<double>(ks.cables.size())));
  }

  void set_level(KindState& ks, std::size_t lvl) {
    for (; ks.level < lvl; ++ks.level)
      for (const ChanId c : ks.cables[ks.level])
        ++cable_dead_[static_cast<std::size_t>(c)];
    while (ks.level > lvl) {
      --ks.level;
      for (const ChanId c : ks.cables[ks.level])
        --cable_dead_[static_cast<std::size_t>(c)];
    }
  }

  [[nodiscard]] std::size_t num_chips() const { return chip_dead_.size(); }
  [[nodiscard]] bool chip_dead(ChipId chip) const {
    return chip_dead_[static_cast<std::size_t>(chip)] != 0;
  }
  void set_chip(ChipId chip, bool dead) {
    chip_dead_[static_cast<std::size_t>(chip)] = dead ? 1 : 0;
    for (const NodeId n : net_.chip_nodes(chip))
      node_dead_[static_cast<std::size_t>(n)] = dead ? 1 : 0;
  }

  /// The transitions since the previous call (since all-live on the
  /// first), stamped `at`. Lists come out in ascending id order, each
  /// channel once however many causes it has.
  sim::FaultStep take_step(Cycle at) {
    sim::FaultStep step;
    step.at = at;
    for (std::size_t i = 0; i < node_dead_.size(); ++i) {
      if (node_dead_[i] == prev_node_[i]) continue;
      (node_dead_[i] ? step.fail_nodes : step.repair_nodes)
          .push_back(static_cast<NodeId>(i));
      prev_node_[i] = node_dead_[i];
    }
    for (std::size_t i = 0; i < cable_dead_.size(); ++i) {
      const sim::Channel& ch = net_.chan(static_cast<ChanId>(i));
      const std::uint8_t dead =
          cable_dead_[i] > 0 ||
                  node_dead_[static_cast<std::size_t>(ch.src)] != 0 ||
                  node_dead_[static_cast<std::size_t>(ch.dst)] != 0
              ? 1
              : 0;
      if (dead == prev_chan_[i]) continue;
      (dead ? step.fail_chans : step.repair_chans)
          .push_back(static_cast<ChanId>(i));
      prev_chan_[i] = dead;
    }
    return step;
  }

 private:
  const sim::Network& net_;
  std::uint64_t seed_;
  int plane_;
  std::map<FaultKind, KindState> kinds_;
  std::vector<std::uint32_t> cable_dead_;
  std::vector<std::uint8_t> node_dead_;
  std::vector<std::uint8_t> chip_dead_;
  std::vector<std::uint8_t> prev_chan_;  ///< Channel state at the last step.
  std::vector<std::uint8_t> prev_node_;
};

/// Moves the model through the timeline's events, one FaultStep per cycle
/// that changes anything. Validates verbs against the model's state: a
/// fail must not lower a level, a repair must not raise one, and a chip
/// event must flip its chip.
sim::FaultSchedule resolve_timeline(LevelModel& model,
                                    const FaultTimeline& timeline) {
  const std::size_t num_chips = model.num_chips();
  sim::FaultSchedule sched;
  const auto& evs = timeline.events;
  for (std::size_t ei = 0; ei < evs.size();) {
    const Cycle at = evs[ei].at;
    for (; ei < evs.size() && evs[ei].at == at; ++ei) {
      const FaultEvent& e = evs[ei];
      const auto cycle = static_cast<unsigned long long>(e.at);
      if (e.is_chip) {
        if (e.chip < 0 || e.chip >= static_cast<ChipId>(num_chips))
          throw FaultError(strf(
              "fault timeline: chip %d out of range at cycle %llu "
              "(network has %zu chips)",
              e.chip, cycle, num_chips));
        if (e.fail == model.chip_dead(e.chip))
          throw FaultError(strf("fault timeline: %s chip %d at cycle %llu",
                                e.fail ? "fail of already-failed"
                                       : "repair of live",
                                e.chip, cycle));
        model.set_chip(e.chip, e.fail);
      } else {
        KindState& ks = model.kind(e.kind);
        const std::size_t lvl = LevelModel::level_of(ks, e.rate);
        if (e.fail ? lvl < ks.level : lvl > ks.level)
          throw FaultError(strf(
              "fault timeline: %s event at cycle %llu %s the %s level "
              "(%zu -> %zu cables); use %s to %s a rate",
              e.fail ? "fail" : "repair", cycle,
              e.fail ? "lowers" : "raises", to_string(e.kind), ks.level, lvl,
              e.fail ? "repair" : "fail", e.fail ? "lower" : "raise"));
        model.set_level(ks, lvl);
      }
    }
    sim::FaultStep step = model.take_step(at);
    if (!step.fail_nodes.empty() || !step.repair_nodes.empty() ||
        !step.fail_chans.empty() || !step.repair_chans.empty())
      sched.steps.push_back(std::move(step));
  }
  return sched;
}

// ---- the timeline grammar --------------------------------------------------

/// One `<fail|repair>@<cycle>:<what>` event. Returns false on a malformed
/// event; an unknown kind throws parse_fault_kind's std::invalid_argument.
bool parse_event(const std::string& tok, FaultEvent& ev) {
  const auto at_pos = tok.find('@');
  if (at_pos == std::string::npos) return false;
  const auto colon = tok.find(':', at_pos + 1);
  if (colon == std::string::npos) return false;
  const std::string verb = Cli::trim(tok.substr(0, at_pos));
  if (verb != "fail" && verb != "repair") return false;
  ev.fail = verb == "fail";
  if (!Cli::parse_u64(tok.substr(at_pos + 1, colon - at_pos - 1), ev.at))
    return false;
  const std::string what = Cli::trim(tok.substr(colon + 1));
  if (what.rfind("chip", 0) == 0) {
    std::uint64_t id = 0;
    // Digits only: `chip 3` and `chip-2` are malformed.
    if (what.find_first_not_of("0123456789", 4) != std::string::npos ||
        !Cli::parse_u64(what.substr(4), id) || id > 0x7fffffffULL)
      return false;
    ev.is_chip = true;
    ev.chip = static_cast<ChipId>(id);
    return true;
  }
  const auto eq = what.find('=');
  if (eq == std::string::npos) return false;
  ev.kind = parse_fault_kind(Cli::trim(what.substr(0, eq)));
  return Cli::parse_double(what.substr(eq + 1), ev.rate) && ev.rate >= 0.0 &&
         ev.rate <= 1.0;
}

}  // namespace

std::string to_string(const FaultEvent& e) {
  const auto at = static_cast<unsigned long long>(e.at);
  const char* verb = e.fail ? "fail" : "repair";
  return e.is_chip ? strf("%s@%llu:chip%d", verb, at, e.chip)
                   : strf("%s@%llu:%s=%g", verb, at, to_string(e.kind), e.rate);
}

FaultTimeline parse_fault_events(const std::string& s,
                                 const std::string& origin) {
  FaultTimeline tl;
  std::size_t line = 1;
  for (std::size_t pos = 0; pos < s.size(); ++line) {
    const std::size_t eol = std::min(s.find('\n', pos), s.size());
    const std::string row = s.substr(pos, std::min(s.find('#', pos), eol) - pos);
    pos = eol + 1;
    const auto err = [&](const std::string& msg) {
      return FaultError(strf("%s:%zu: %s", origin.c_str(), line, msg.c_str()));
    };
    for (std::size_t b = 0; b <= row.size();) {
      const std::size_t semi = std::min(row.find(';', b), row.size());
      const std::string tok = Cli::trim(row.substr(b, semi - b));
      b = semi + 1;
      if (tok.empty()) continue;
      FaultEvent ev;
      bool ok = false;
      try {
        ok = parse_event(tok, ev);
      } catch (const std::invalid_argument& e) {  // unknown kind
        throw err(e.what());
      }
      if (!ok)
        throw err("bad event '" + tok +
                  "' (expected fail|repair@<cycle>:<kind>=<rate> or "
                  "fail|repair@<cycle>:chip<N>)");
      if (!tl.events.empty() && ev.at < tl.events.back().at)
        throw err(strf("cycle %llu precedes the previous event's cycle %llu; "
                       "the timeline must be non-decreasing in cycle",
                       static_cast<unsigned long long>(ev.at),
                       static_cast<unsigned long long>(tl.events.back().at)));
      tl.events.push_back(ev);
    }
  }
  return tl;
}

FaultTimeline parse_fault_schedule(std::istream& in,
                                   const std::string& origin) {
  std::string header;
  if (!std::getline(in, header))
    throw FaultError(origin +
                     ":1: empty fault schedule (expected the header "
                     "'sldf-faults 2')");
  header = Cli::trim(header);
  if (header == "sldf-faults 1")
    throw FaultError(origin +
                     ":1: 'sldf-faults 1' is no longer read; write the "
                     "header 'sldf-faults 2' and events in the fault.events "
                     "grammar, one per line or ';'-separated, e.g. "
                     "'fail@100:global=0.1'");
  if (header != "sldf-faults 2")
    throw FaultError(origin + ":1: bad header '" + header +
                     "' (expected 'sldf-faults 2')");
  std::string body;
  // The body starts at line 2; a leading newline keeps the line numbers.
  body.push_back('\n');
  body.append(std::istreambuf_iterator<char>(in), {});
  return parse_fault_events(body, origin);
}

FaultTimeline load_fault_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw FaultError("cannot open fault schedule file '" + path + "'");
  return parse_fault_schedule(in, path);
}

FaultTimeline load_timeline(const FaultSpec& spec) {
  if (!spec.events.empty() && !spec.schedule.empty())
    throw FaultError(
        "scenario sets both fault.events and fault.schedule; give the "
        "timeline one way");
  if (!spec.events.empty()) return parse_fault_events(spec.events);
  if (!spec.schedule.empty()) return load_fault_schedule(spec.schedule);
  return {};
}

FaultReport inject_faults(sim::Network& net, const FaultSpec& spec) {
  if (!spec.armed())
    throw std::invalid_argument("inject_faults: spec has no faults");
  if (spec.rate < 0.0 || spec.rate > 1.0)
    throw std::invalid_argument("inject_faults: rate must be in [0, 1]");
  for (const ChipId chip : spec.chips)
    if (chip < 0 || chip >= static_cast<ChipId>(net.num_chips()))
      throw std::invalid_argument(
          strf("inject_faults: chip %d out of range (network has %zu chips)",
               chip, net.num_chips()));
  // A timeline over a fault-free cycle-0 state still needs the mask armed:
  // fault steps rewrite live port records at runtime.
  net.enable_fault_mask();
  const FaultTimeline timeline = load_timeline(spec);

  LevelModel model(net, spec);
  FaultReport rep;
  if (spec.active()) {
    KindState& ks = model.kind(spec.kind);
    rep.candidate_cables = ks.cables.size();
    rep.failed_cables = LevelModel::level_of(ks, spec.rate);
    model.set_level(ks, rep.failed_cables);
    for (const ChipId chip : spec.chips) model.set_chip(chip, true);
    rep.failed_chips = spec.chips.size();
  }
  net.apply_fault_lists(model.take_step(0), 0);
  net.capture_fault_baseline();
  if (spec.has_timeline()) {
    auto sched = std::make_shared<sim::FaultSchedule>(
        resolve_timeline(model, timeline));
    sched->rescue = spec.rescue;
    net.set_fault_schedule(std::move(sched));
  }
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

// ---------------------------------------------------------------------------
// Fault event timeline: instant audits.
// ---------------------------------------------------------------------------

TimelineAudit audit_at(sim::Network& net, Cycle t, std::size_t max_hops) {
  const sim::FaultSchedule* sched = net.fault_schedule();
  if (sched == nullptr || !net.has_fault_baseline())
    throw FaultError(
        "audit_at: network has no attached fault schedule and captured "
        "baseline (built without a fault timeline?)");

  route::CdgOptions opt;
  opt.max_hops = max_hops;
  TimelineAudit ta;
  ta.at = t;
  net.restore_fault_baseline();
  std::size_t i = 0;
  for (; i < sched->steps.size() && sched->steps[i].at <= t; ++i)
    net.apply_fault_lists(sched->steps[i], 0);
  ta.snapshot = route::audit_cdg(net, opt);
  for (; i < sched->steps.size(); ++i)
    net.apply_fault_lists(sched->steps[i], 0);
  ta.settled = route::audit_cdg(net, opt);
  net.restore_fault_baseline();
  return ta;
}

std::string TimelineAudit::to_string() const {
  return strf(
      "timeline audit @%llu: %zu of %zu walks unreachable (%zu transient, "
      "heal by the end of the timeline; %zu permanent), %zu pairs skipped "
      "(dead endpoint)",
      static_cast<unsigned long long>(at), snapshot.unreachable,
      snapshot.paths_walked, transient_unreachable(), settled.unreachable,
      snapshot.skipped_dead);
}

}  // namespace sldf::topo
