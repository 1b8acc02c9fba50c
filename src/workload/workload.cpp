#include "workload/workload.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace sldf::workload {

namespace {

/// Closed-loop runs generate nothing by rate; the engine still requires a
/// TrafficSource, so hand it one that is never consulted.
class NullTraffic final : public sim::TrafficSource {
 public:
  NodeId dest(const sim::Network&, NodeId, Rng&) override {
    return kInvalidNode;
  }
  [[nodiscard]] const char* name() const override { return "closed-loop"; }
};

struct MsgState {
  std::uint32_t pkts_total = 0;
  std::uint32_t pkts_sent = 0;
  std::uint32_t pkts_done = 0;
  std::uint32_t deps_left = 0;
  Cycle t_ready = 0;
  Cycle t_done = 0;
  /// 0 = pending/running, 1 = completed, 2 = failed (lost a packet to a
  /// fault drop), 3 = orphaned (a dependency failed, or its chip died
  /// before it issued). 2/3 are terminal without ever completing.
  std::uint8_t status = 0;
};

/// Per-chip issue queue: ready messages are pumped into the source
/// terminals strictly in ready order (head-of-line), which models one send
/// queue per chip and keeps packet issue — and therefore the routing RNG
/// stream — deterministic.
struct ChipQueue {
  std::vector<MsgId> q;
  std::size_t head = 0;
  bool active = false;

  [[nodiscard]] bool empty() const { return head >= q.size(); }
  void compact() {
    if (empty()) {
      q.clear();
      head = 0;
    }
  }
};

class Runner final : public sim::PacketListener {
 public:
  Runner(sim::Network& net, const WorkloadGraph& graph,
         const WorkloadRunConfig& cfg)
      : net_(net), graph_(graph), cfg_(cfg) {
    state_.resize(graph.messages.size());
    chip_q_.resize(net.num_chips());
    // Dependent adjacency (CSR) + initial dependency counts.
    dep_base_.assign(graph.messages.size() + 1, 0);
    for (const auto& m : graph.messages)
      for (const MsgId d : m.deps) ++dep_base_[d + 1];
    for (std::size_t i = 1; i < dep_base_.size(); ++i)
      dep_base_[i] += dep_base_[i - 1];
    dep_list_.resize(dep_base_.back());
    std::vector<std::uint32_t> fill(dep_base_.begin(), dep_base_.end() - 1);
    for (MsgId m = 0; m < graph.messages.size(); ++m) {
      const auto& spec = graph_.messages[m];
      for (const MsgId d : spec.deps) dep_list_[fill[d]++] = m;
      MsgState& st = state_[m];
      st.deps_left = static_cast<std::uint32_t>(spec.deps.size());
      const auto plen = static_cast<std::uint64_t>(cfg.sim.pkt_len);
      st.pkts_total =
          static_cast<std::uint32_t>((spec.flits + plen - 1) / plen);
    }
  }

  WorkloadResult run() {
    net_.reset_dynamic_state();
    sim::SimConfig sc = cfg_.sim;
    sc.inj_rate_per_chip = 0.0;  // purely closed-loop
    NullTraffic none;
    sim::Simulator sim(net_, sc, none);
    sim.set_listener(this);
    sim_ = &sim;

    // Roots (no dependencies) become ready at cycle 0, in id order; roots
    // with a future issue timestamp park in the timed queue instead.
    for (MsgId m = 0; m < graph_.messages.size(); ++m)
      if (state_[m].deps_left == 0) make_ready(m, 0);

    const auto total = static_cast<std::uint64_t>(graph_.messages.size());
    bool hit_horizon = false;
    // Terminal = completed + failed + orphaned: a lossy fault timeline
    // surfaces its failed messages and the run ends, instead of hanging
    // on deliveries that can never happen.
    while (done_ + failed_msgs_ + orphaned_msgs_ < total) {
      // Idle-cycle elision: when no chip has anything to issue this cycle,
      // let the engine jump ahead — bounded by the next timed release (the
      // only future work the engine cannot see) and the horizon. A stalled
      // graph (nothing in flight, nothing timed) must NOT skip, so the
      // dependency-cycle diagnostic below still fires instead of silently
      // running to the horizon.
      if (active_.empty() && (in_flight_ > 0 || !timed_.empty()))
        sim.try_skip_idle(timed_.empty()
                              ? cfg_.max_cycles
                              : std::min<Cycle>(cfg_.max_cycles,
                                                timed_.top().first));
      if (sim.now() >= cfg_.max_cycles) {
        hit_horizon = true;
        break;
      }
      release_timed(sim.now());
      pump_all();
      if (in_flight_ == 0 && active_.empty() && timed_.empty())
        throw std::runtime_error(
            "workload '" + graph_.name +
            "' stalled with nothing in flight (dependency cycle?)");
      sim.step();
    }
    return summarize(sim, !hit_horizon && done_ == total);
  }

  void on_packet_delivered(const sim::Packet& p, Cycle now) override {
    if (p.tag == sim::kNoTag) return;
    const MsgId m = p.tag;
    MsgState& st = state_[m];
    --in_flight_;
    ++packets_delivered_;
    flits_delivered_ += p.len;
    if (++st.pkts_done < st.pkts_total) return;
    // Message complete: record, then release dependents.
    st.status = 1;
    st.t_done = now;
    end_cycle_ = now;
    ++done_;
    for (std::uint32_t i = dep_base_[m]; i < dep_base_[m + 1]; ++i) {
      const MsgId d = dep_list_[i];
      if (--state_[d].deps_left == 0 && state_[d].status == 0)
        make_ready(d, now);
    }
  }

  void on_packet_dropped(const sim::Packet& p, Cycle /*now*/) override {
    if (p.tag == sim::kNoTag) return;
    --in_flight_;
    fail_message(p.tag, 2);
  }

 private:
  /// Marks `m` failed (kind 2) or orphaned (kind 3) and transitively
  /// orphans every dependent — none of them can ever become ready, and
  /// without this the run loop would wait on them forever. Iterative
  /// worklist: dependency chains (e.g. ring collectives) can be thousands
  /// of messages deep.
  void fail_message(MsgId m, std::uint8_t kind) {
    if (state_[m].status != 0) return;
    state_[m].status = kind;
    kind == 2 ? ++failed_msgs_ : ++orphaned_msgs_;
    std::vector<MsgId> work{m};
    while (!work.empty()) {
      const MsgId cur = work.back();
      work.pop_back();
      for (std::uint32_t i = dep_base_[cur]; i < dep_base_[cur + 1]; ++i) {
        const MsgId d = dep_list_[i];
        if (state_[d].status != 0) continue;
        state_[d].status = 3;
        ++orphaned_msgs_;
        work.push_back(d);
      }
    }
  }
  /// Dependencies satisfied: enqueue now, or park until the message's
  /// issue timestamp when that is still in the future.
  void make_ready(MsgId m, Cycle now) {
    const Cycle at = graph_.messages[m].issue;
    if (at > now) {
      timed_.push({at, m});
      return;
    }
    enqueue(m, now);
  }

  /// Moves every parked message whose issue time has arrived into its chip
  /// queue, in (issue, id) order — deterministic regardless of how the
  /// heap was filled.
  void release_timed(Cycle now) {
    while (!timed_.empty() && timed_.top().first <= now) {
      const MsgId m = timed_.top().second;
      timed_.pop();
      enqueue(m, now);
    }
  }

  void enqueue(MsgId m, Cycle now) {
    state_[m].t_ready = now;
    const ChipId c = graph_.messages[m].src;
    ChipQueue& cq = chip_q_[static_cast<std::size_t>(c)];
    cq.q.push_back(m);
    if (!cq.active) {
      cq.active = true;
      active_.push_back(c);
    }
  }

  /// Pushes packets of `cq`'s ready messages until the queue drains or a
  /// terminal refuses (backpressure). Returns true when drained.
  bool pump_chip(ChipQueue& cq) {
    while (!cq.empty()) {
      const MsgId m = cq.q[cq.head];
      const MessageSpec& spec = graph_.messages[m];
      MsgState& st = state_[m];
      if (st.status != 0) {  // failed mid-transfer: stop sending its packets
        ++cq.head;
        continue;
      }
      if (!net_.chip_live(spec.src) || !net_.chip_live(spec.dst)) {
        // A fault step killed an endpoint chip under this queued message.
        // Never started -> orphaned; partially sent -> failed (its landed
        // packets are half a transfer that can no longer finish).
        fail_message(m, st.pkts_sent == 0 ? std::uint8_t{3} : std::uint8_t{2});
        ++cq.head;
        continue;
      }
      // Striping runs over the LOGICAL terminal slots of the chip pair
      // (the plane-0 prefix of chip_nodes); on a multi-plane network the
      // engine remaps each packet to its selected plane's twins, and the
      // collective phase index rides along as the rail hint for the
      // collective-aware plane policy.
      const auto& snodes = net_.chip_nodes(spec.src);
      const auto& dnodes = net_.chip_nodes(spec.dst);
      const std::size_t ssz = net_.logical_chip_size(spec.src);
      const std::size_t dsz = net_.logical_chip_size(spec.dst);
      const std::size_t lanes =
          spec.stripe > 0
              ? std::min<std::size_t>(static_cast<std::size_t>(spec.stripe),
                                      std::min(ssz, dsz))
              : std::max(ssz, dsz);
      const auto plen = static_cast<std::uint64_t>(cfg_.sim.pkt_len);
      while (st.pkts_sent < st.pkts_total) {
        const std::uint32_t q = st.pkts_sent;
        // Stripe packets across the chip's terminal slots, slot j -> slot
        // j, exercising the parallel chip-boundary links of the wafer mesh
        // (or only the first `stripe` slots when the generator narrowed
        // the message to match an external port).
        const std::size_t slot = q % lanes;
        const NodeId sn = snodes[slot % ssz];
        const NodeId dn = dnodes[slot % dsz];
        int len = static_cast<int>(plen);
        if (q + 1 == st.pkts_total)
          len = static_cast<int>(spec.flits - static_cast<std::uint64_t>(q) *
                                                  plen);
        if (!sim_->inject_packet(sn, dn, len, m,
                                 static_cast<std::uint32_t>(spec.phase)))
          return false;
        ++st.pkts_sent;
        ++in_flight_;
        ++packets_;
      }
      ++cq.head;
    }
    cq.compact();
    return true;
  }

  void pump_all() {
    std::size_t i = 0;
    while (i < active_.size()) {
      const ChipId c = active_[i];
      ChipQueue& cq = chip_q_[static_cast<std::size_t>(c)];
      if (pump_chip(cq)) {
        cq.active = false;
        active_[i] = active_.back();  // deterministic swap-remove
        active_.pop_back();
      } else {
        ++i;  // blocked on a full terminal queue: retry next cycle
      }
    }
  }

  WorkloadResult summarize(const sim::Simulator& sim, bool completed) const {
    WorkloadResult r;
    r.workload = graph_.name;
    r.completed = completed;
    r.cycles = completed ? end_cycle_ : sim.now();
    r.messages = graph_.messages.size();
    r.packets = packets_;
    r.packets_delivered = packets_delivered_;
    r.flit_hops = sim.flit_hops();
    r.ejected_flits = sim.ejected_flits();
    r.failed_messages = failed_msgs_;
    r.orphaned_messages = orphaned_msgs_;
    r.dropped_packets = sim.dropped_packets();
    r.rescued_packets = sim.rescued_packets();
    r.engine = sim.phases();
    r.phases.resize(static_cast<std::size_t>(graph_.num_phases));
    if (cfg_.record_msgs) r.msgs.resize(graph_.messages.size());
    std::vector<bool> part(net_.num_chips(), false);
    double lat_sum = 0.0;
    for (MsgId m = 0; m < graph_.messages.size(); ++m) {
      const auto& spec = graph_.messages[m];
      const MsgState& st = state_[m];
      r.flits += spec.flits;
      part[static_cast<std::size_t>(spec.src)] = true;
      part[static_cast<std::size_t>(spec.dst)] = true;
      PhaseResult& ph = r.phases[static_cast<std::size_t>(spec.phase)];
      ++ph.messages;
      ph.flits += spec.flits;
      const bool msg_done = st.pkts_done == st.pkts_total;
      if (msg_done) {
        const auto lat = static_cast<double>(st.t_done - st.t_ready);
        lat_sum += lat;
        r.max_msg_cycles = std::max(r.max_msg_cycles, lat);
        ph.completed = std::max(ph.completed, st.t_done);
      }
      if (cfg_.record_msgs)
        r.msgs[m] = MsgRecord{st.t_ready, msg_done ? st.t_done : 0, msg_done};
    }
    r.chips = static_cast<int>(std::count(part.begin(), part.end(), true));
    if (done_ > 0) r.avg_msg_cycles = lat_sum / static_cast<double>(done_);
    // Achieved bandwidth counts *delivered* payload, so a run aborted at
    // max_cycles reports its true sustained rate, not the graph total.
    if (r.cycles > 0 && r.chips > 0)
      r.gbps_per_chip = static_cast<double>(flits_delivered_) *
                        cfg_.flit_bytes * cfg_.freq_ghz /
                        (static_cast<double>(r.cycles) *
                         static_cast<double>(r.chips));
    return r;
  }

  sim::Network& net_;
  const WorkloadGraph& graph_;
  const WorkloadRunConfig& cfg_;
  sim::Simulator* sim_ = nullptr;

  std::vector<MsgState> state_;
  std::vector<std::uint32_t> dep_base_;  ///< CSR offsets: msg -> dependents.
  std::vector<MsgId> dep_list_;
  std::vector<ChipQueue> chip_q_;
  std::vector<ChipId> active_;  ///< Chips with a non-empty issue queue.
  /// Messages whose dependencies are met but whose issue timestamp is
  /// still in the future, keyed (issue, id); empty for untimed graphs.
  std::priority_queue<std::pair<Cycle, MsgId>,
                      std::vector<std::pair<Cycle, MsgId>>,
                      std::greater<>>
      timed_;

  std::uint64_t in_flight_ = 0;  ///< Packets injected but not yet delivered.
  std::uint64_t done_ = 0;       ///< Messages fully delivered.
  std::uint64_t failed_msgs_ = 0;
  std::uint64_t orphaned_msgs_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t flits_delivered_ = 0;  ///< Payload flits fully delivered.
  Cycle end_cycle_ = 0;          ///< Cycle of the latest message completion.
};

}  // namespace

void validate(const WorkloadGraph& graph, const sim::Network& net) {
  const auto nchips = static_cast<ChipId>(net.num_chips());
  const auto n = static_cast<MsgId>(graph.messages.size());
  if (n == 0)
    throw std::invalid_argument("workload '" + graph.name +
                                "': empty message graph");
  for (MsgId m = 0; m < n; ++m) {
    const auto& spec = graph.messages[m];
    const std::string at =
        "workload '" + graph.name + "' message " + std::to_string(m);
    if (spec.src < 0 || spec.src >= nchips || spec.dst < 0 ||
        spec.dst >= nchips)
      throw std::invalid_argument(at + ": chip id out of range");
    if (spec.src == spec.dst)
      throw std::invalid_argument(at + ": src == dst");
    // A message on a fault-killed chip could never inject or eject: the
    // run would stall (or trip engine asserts) mid-simulation. Reject the
    // placement up front as a structured scenario error instead.
    if (!net.chip_live(spec.src) || !net.chip_live(spec.dst))
      throw ScenarioError(
          at + ": chip " +
          std::to_string(net.chip_live(spec.src) ? spec.dst : spec.src) +
          " is dead under the active fault mask");
    if (spec.flits == 0)
      throw std::invalid_argument(at + ": zero-flit message");
    if (spec.stripe < 0)
      throw std::invalid_argument(at + ": negative stripe");
    if (spec.phase < 0 || spec.phase >= graph.num_phases)
      throw std::invalid_argument(at + ": phase out of range");
    for (const MsgId d : spec.deps)
      if (d >= n)
        throw std::invalid_argument(at + ": dependency id out of range");
  }
}

WorkloadResult run_workload(sim::Network& net, const WorkloadGraph& graph,
                            const WorkloadRunConfig& cfg) {
  validate(graph, net);
  if (cfg.sim.pkt_len < 1)
    throw std::invalid_argument("run_workload: pkt_len must be >= 1");
  Runner runner(net, graph, cfg);
  return runner.run();
}

}  // namespace sldf::workload
