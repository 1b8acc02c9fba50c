#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "sim/checkpoint.hpp"

namespace sldf::sim {

NodeId Network::add_router(NodeKind kind) {
  Router r;
  r.kind = kind;
  routers_.push_back(std::move(r));
  node_chip_.push_back(kInvalidChip);
  return static_cast<NodeId>(routers_.size() - 1);
}

ChanId Network::add_channel(NodeId src, NodeId dst, LinkType type, int latency,
                            int width_num, int width_den) {
  if (latency < 1) throw std::invalid_argument("channel latency must be >= 1");
  if (width_num < 1 || width_den < 1)
    throw std::invalid_argument("channel width must be positive");
  Channel c;
  c.src = src;
  c.dst = dst;
  c.type = type;
  c.latency = static_cast<std::uint8_t>(latency);
  c.width_num = static_cast<std::uint16_t>(width_num);
  c.width_den = static_cast<std::uint16_t>(width_den);

  Router& rs = router(src);
  Router& rd = router(dst);
  c.src_port = static_cast<PortIx>(rs.out.size());
  c.dst_port = static_cast<PortIx>(rd.in.size());

  const ChanId id = static_cast<ChanId>(channels_.size());
  OutputPort op;
  op.out_chan = id;
  rs.out.push_back(std::move(op));
  InputPort ip;
  ip.in_chan = id;
  rd.in.push_back(std::move(ip));

  channels_.push_back(std::move(c));
  return id;
}

ChanId Network::add_duplex(NodeId a, NodeId b, LinkType type, int latency,
                           int width_num, int width_den) {
  const ChanId fwd = add_channel(a, b, type, latency, width_num, width_den);
  add_channel(b, a, type, latency, width_num, width_den);
  return fwd;
}

void Network::make_terminal(NodeId core, ChipId chip) {
  chip += chip_offset_;  // wafer stacks: builder-local chip -> global chip
  Router& r = router(core);
  if (r.has_terminal()) throw std::logic_error("terminal already attached");
  // Injection input port.
  InputPort ip;
  ip.in_chan = kInvalidChan;
  r.inj_port = static_cast<PortIx>(r.in.size());
  r.in.push_back(std::move(ip));
  // Ejection output port.
  OutputPort op;
  op.out_chan = kInvalidChan;
  r.eject_port = static_cast<PortIx>(r.out.size());
  r.out.push_back(std::move(op));

  if (chip >= static_cast<ChipId>(chip_nodes_.size()))
    chip_nodes_.resize(static_cast<std::size_t>(chip) + 1);
  chip_nodes_[static_cast<std::size_t>(chip)].push_back(core);
  node_chip_[static_cast<std::size_t>(core)] = chip;
  terminal_nodes_.push_back(core);
}

void Network::finalize(int num_vcs, int vc_buf_flits) {
  if (num_vcs < 1 || vc_buf_flits < 1)
    throw std::invalid_argument("finalize: bad vc configuration");
  num_vcs_ = num_vcs;
  vc_buf_ = vc_buf_flits;

  // Per-router flat port offsets (prefix sums over port counts, plus a
  // sentinel so per-router counts are base[r+1] - base[r]).
  in_port_base_.resize(routers_.size() + 1);
  out_port_base_.resize(routers_.size() + 1);
  std::uint64_t in_ports = 0;
  std::uint64_t out_ports = 0;
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    in_port_base_[i] = static_cast<std::uint32_t>(in_ports);
    out_port_base_[i] = static_cast<std::uint32_t>(out_ports);
    in_ports += routers_[i].in.size();
    out_ports += routers_[i].out.size();
  }
  in_port_base_[routers_.size()] = static_cast<std::uint32_t>(in_ports);
  out_port_base_[routers_.size()] = static_cast<std::uint32_t>(out_ports);
  const std::uint64_t n_ivc = in_ports * static_cast<std::uint64_t>(num_vcs);
  const std::uint64_t n_ovc = out_ports * static_cast<std::uint64_t>(num_vcs);
  if (n_ivc > std::numeric_limits<std::uint32_t>::max() ||
      n_ovc > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("finalize: network exceeds 2^32 VCs");
  num_in_ports_ = static_cast<std::uint32_t>(in_ports);
  num_out_ports_ = static_cast<std::uint32_t>(out_ports);
  node_meta_.resize(routers_.size());
  for (std::size_t i = 0; i < routers_.size(); ++i)
    node_meta_[i] =
        (static_cast<std::uint32_t>(
             static_cast<std::uint16_t>(routers_[i].eject_port))
         << 8) |
        static_cast<std::uint32_t>(routers_[i].kind);

  // Packed-width capacity checks: every quantity narrowed by the packed
  // port record is validated here, so an oversized build fails loudly at
  // finalize instead of silently truncating counters mid-run.
  if (vc_buf_flits > 0x7fff)
    throw ScenarioError(
        "finalize: vc_buf " + std::to_string(vc_buf_flits) +
        " exceeds the packed credit width (max 32767)");
  if (num_vcs > 0xff)
    throw ScenarioError("finalize: num_vcs " + std::to_string(num_vcs) +
                        " exceeds the packed VC width (max 255)");
  if (out_ports >= (1u << 23))
    throw ScenarioError(
        "finalize: " + std::to_string(out_ports) +
        " output ports exceed the packed credit-event width (max 8388607)");
  for (std::size_t i = 0; i < routers_.size(); ++i)
    if (routers_[i].in.size() > 0xff)
      throw ScenarioError(
          "finalize: router " + std::to_string(i) + " has " +
          std::to_string(routers_[i].in.size()) +
          " input ports, exceeding the packed requester width (max 255)");

  // Flat VC state + one FIFO arena for every input VC.
  fifos_.init(static_cast<std::size_t>(n_ivc),
              static_cast<std::uint32_t>(vc_buf_flits),
              pack_ivc(kInvalidPort, kInvalidVc, IvcState::Idle));

  // Cache each channel's destination offset for the delivery hot path and
  // the compact chan -> src_port table for the routing hot path.
  src_port_by_chan_.resize(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i].dst_vc_base =
        in_vc_index(channels_[i].dst, channels_[i].dst_port, 0);
    src_port_by_chan_[i] = channels_[i].src_port;
  }

  // Lay out the per-output-port records: five fixed words + one u32 word
  // per VC holding the two u16 lanes (credit word + requester slot). The
  // stride is exact — no power-of-two rounding — so nvc=4 costs 36 bytes
  // per port instead of the former 64.
  port_stride_ = kOvc0 + static_cast<std::uint32_t>(num_vcs);
  port_state_.assign(
      static_cast<std::size_t>(num_out_ports_) * port_stride_, 0);
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    const Router& r = routers_[i];
    for (std::size_t p = 0; p < r.out.size(); ++p) {
      std::uint32_t* rec =
          port_rec(static_cast<std::uint32_t>(out_port_base_[i] + p));
      if (r.out[p].out_chan != kInvalidChan) {
        const Channel& c = chan(r.out[p].out_chan);
        rec[kDstVcBase] = c.dst_vc_base;
        rec[kDstNode] = static_cast<std::uint32_t>(c.dst);
        rec[kLinkMeta] =
            static_cast<std::uint32_t>(c.latency) |
            (static_cast<std::uint32_t>(c.type) << 8) |
            (static_cast<std::uint32_t>(c.width_num) << 16) |
            (static_cast<std::uint32_t>(c.width_den) << 24);
        if (c.width_num > 0xff || c.width_den > 0xff)
          throw std::invalid_argument(
              "finalize: channel width terms must be <= 255");
      } else {
        rec[kDstNode] = static_cast<std::uint32_t>(kInvalidNode);
      }
    }
  }

  // Credit-return wiring per input port.
  credit_return_by_port_.assign(num_in_ports_, CreditReturn{});
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    const Router& r = routers_[i];
    for (std::size_t p = 0; p < r.in.size(); ++p) {
      CreditReturn& cr = credit_return_by_port_[in_port_base_[i] + p];
      if (r.in[p].in_chan != kInvalidChan) {
        const Channel& c = chan(r.in[p].in_chan);
        // Low 24 bits: the flat upstream output port (fits — finalize
        // already rejected builds with >= 2^23 output ports).
        cr.meta = out_port_index(c.src, c.src_port) |
                  (static_cast<std::uint32_t>(c.latency) << 24);
        cr.src = c.src;
      }
    }
  }

  init_port_dynamic_state();
}

void Network::init_port_dynamic_state() {
  for (std::uint32_t p = 0; p < num_out_ports_; ++p) {
    std::uint32_t* rec = port_rec(p);
    const std::uint32_t meta = rec[kLinkMeta];
    const std::uint32_t wnum = (meta >> 16) & 0xff;
    const std::uint32_t wden = meta >> 24;
    // SA count = 0, rr = 0, and a full token bucket (token_cap) in the
    // high half; 0 for ejection ports and disabled channels (wnum == 0:
    // the bucket must stay empty across resets).
    rec[0] = wnum == 0 ? 0 : (wnum + wden) << 16;
    rec[kTokenCycle] = 0;
    std::uint16_t* ov = ovc16(rec);
    for (int v = 0; v < num_vcs_; ++v)
      ov[v] = static_cast<std::uint16_t>(vc_buf_ << 1);
    for (int v = 0; v < num_vcs_; ++v)
      ov[num_vcs_ + v] = 0;
  }
}

void Network::restore_fault_baseline() {
  if (!has_fault_baseline()) return;
  bool changed = false;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (chan_alive_[i] == baseline_chan_alive_[i]) continue;
    changed = true;
    const Channel& ch = channels_[i];
    std::uint32_t* rec = port_rec(out_port_index(ch.src, ch.src_port));
    if (baseline_chan_alive_[i]) {
      chan_alive_[i] = 1;
      --dead_channels_;
      rec[kLinkMeta] |= static_cast<std::uint32_t>(ch.width_num) << 16;
      rec[0] = (rec[0] & 0xffffu) |
               ((static_cast<std::uint32_t>(ch.width_num) +
                 static_cast<std::uint32_t>(ch.width_den))
                << 16);
      rec[kTokenCycle] = 0;
    } else {
      chan_alive_[i] = 0;
      ++dead_channels_;
      rec[kLinkMeta] &= ~(0xffu << 16);
      rec[0] &= 0xffffu;  // bucket -> 0; count/rr untouched
    }
  }
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    if (node_alive_[i] == baseline_node_alive_[i]) continue;
    changed = true;
    node_alive_[i] = baseline_node_alive_[i];
    dead_nodes_ += baseline_node_alive_[i] ? -1 : 1;
  }
  if (changed) ++fault_epoch_;
}

void Network::reset_dynamic_state() {
  // Rewind any online fail/repair transitions to the captured cycle-0
  // baseline BEFORE re-deriving port state: init_port_dynamic_state()
  // computes token buckets from the kLinkMeta width bytes, which the
  // restore flips. Without a captured baseline the mask is left untouched
  // (static faults survive resets, as before).
  restore_fault_baseline();
  fifos_.reset(pack_ivc(kInvalidPort, kInvalidVc, IvcState::Idle));
  init_port_dynamic_state();
}

void Network::enable_fault_mask() {
  if (!finalized())
    throw std::logic_error("enable_fault_mask: network not finalized");
  if (chan_alive_.empty()) chan_alive_.assign(channels_.size(), 1);
  if (node_alive_.empty()) node_alive_.assign(routers_.size(), 1);
}

void Network::disable_channel(ChanId c) {
  if (!has_fault_mask())
    throw std::logic_error("disable_channel: fault mask not enabled");
  auto& alive = chan_alive_[static_cast<std::size_t>(c)];
  if (alive == 0) return;
  alive = 0;
  ++dead_channels_;
  // Rewrite the source output-port record: token width -> 0, bucket -> 0.
  // The bucket never refills (refresh adds elapsed * 0), so even a routing
  // decision that targets this port can never move a flit over the link.
  const Channel& ch = chan(c);
  std::uint32_t* rec = port_rec(out_port_index(ch.src, ch.src_port));
  rec[kLinkMeta] &= ~(0xffu << 16);  // width_num = 0
  rec[0] &= 0xffffu;                 // bucket = 0; count/rr untouched
}

void Network::disable_node(NodeId n) {
  if (!has_fault_mask())
    throw std::logic_error("disable_node: fault mask not enabled");
  auto& alive = node_alive_[static_cast<std::size_t>(n)];
  if (alive != 0) {
    alive = 0;
    ++dead_nodes_;
  }
  for (std::size_t i = 0; i < channels_.size(); ++i)
    if (channels_[i].src == n || channels_[i].dst == n)
      disable_channel(static_cast<ChanId>(i));
}

void Network::enable_channel(ChanId c, Cycle now) {
  if (!has_fault_mask())
    throw std::logic_error("enable_channel: fault mask not enabled");
  auto& alive = chan_alive_[static_cast<std::size_t>(c)];
  if (alive != 0) return;
  alive = 1;
  --dead_channels_;
  // Undo the disable_channel() record rewrite: width back from the
  // immutable Channel, bucket full (matching init_port_dynamic_state),
  // refresh clock re-based at `now` so the dead period refills nothing.
  const Channel& ch = chan(c);
  std::uint32_t* rec = port_rec(out_port_index(ch.src, ch.src_port));
  rec[kLinkMeta] |= static_cast<std::uint32_t>(ch.width_num) << 16;
  rec[0] = (rec[0] & 0xffffu) |
           ((static_cast<std::uint32_t>(ch.width_num) +
             static_cast<std::uint32_t>(ch.width_den))
            << 16);
  rec[kTokenCycle] = static_cast<std::uint32_t>(now);
}

void Network::set_node_alive(NodeId n, bool alive) {
  if (!has_fault_mask())
    throw std::logic_error("set_node_alive: fault mask not enabled");
  auto& a = node_alive_[static_cast<std::size_t>(n)];
  if ((a != 0) == alive) return;
  a = alive ? 1 : 0;
  dead_nodes_ += alive ? -1 : 1;
}

void Network::capture_fault_baseline() {
  if (!has_fault_mask())
    throw std::logic_error("capture_fault_baseline: fault mask not enabled");
  baseline_chan_alive_ = chan_alive_;
  baseline_node_alive_ = node_alive_;
}

void Network::checkpoint(CheckpointIo& io) {
  fifos_.checkpoint(io);
  io.fixed(port_state_, "port record");
  // The mask arrays may legitimately be empty on both sides (no faults).
  io.fixed(chan_alive_, "channel mask");
  io.fixed(node_alive_, "node mask");
  io.pod(dead_channels_);
  io.pod(dead_nodes_);
  io.pod(fault_epoch_);
}

std::vector<std::uint32_t> Network::shard_bounds(int shards) const {
  if (!finalized())
    throw std::logic_error("shard_bounds: network not finalized");
  if (shards < 1) throw std::invalid_argument("shard_bounds: shards < 1");
  const auto n = static_cast<std::uint32_t>(routers_.size());
  std::vector<std::uint32_t> bounds(static_cast<std::size_t>(shards) + 1);
  bounds[0] = 0;
  bounds[static_cast<std::size_t>(shards)] = n;
  for (int k = 1; k < shards; ++k) {
    // Ideal cut: the router whose flat output-port offset first reaches an
    // equal share of the total port count (ports ~ per-router work).
    const std::uint64_t target = static_cast<std::uint64_t>(num_out_ports_) *
                                 static_cast<std::uint64_t>(k) /
                                 static_cast<std::uint64_t>(shards);
    std::uint32_t b = static_cast<std::uint32_t>(
        std::lower_bound(out_port_base_.begin(),
                         out_port_base_.begin() + n,
                         static_cast<std::uint32_t>(target)) -
        out_port_base_.begin());
    // Snap forward to the next chip boundary so no chip is split. Nodes
    // without a chip (converters) are valid boundaries as-is.
    while (b > 0 && b < n &&
           node_chip_[b] != kInvalidChip &&
           node_chip_[b] == node_chip_[b - 1])
      ++b;
    bounds[static_cast<std::size_t>(k)] =
        std::max(b, bounds[static_cast<std::size_t>(k) - 1]);
  }
  return bounds;
}

void Network::begin_plane() {
  if (planes_sealed_)
    throw std::logic_error("begin_plane: planes already sealed");
  if (!wafer_node_base_.empty())
    throw std::logic_error(
        "begin_plane: planes and wafers are mutually exclusive axes");
  plane_node_base_.push_back(static_cast<std::uint32_t>(routers_.size()));
  plane_term_base_.push_back(
      static_cast<std::uint32_t>(terminal_nodes_.size()));
}

void Network::seal_planes(int policy) {
  if (planes_sealed_) throw std::logic_error("seal_planes: already sealed");
  if (plane_node_base_.empty())
    throw std::logic_error("seal_planes: no begin_plane() marks");
  if (!finalized())
    throw std::logic_error("seal_planes: network not finalized");
  plane_node_base_.push_back(static_cast<std::uint32_t>(routers_.size()));
  plane_term_base_.push_back(
      static_cast<std::uint32_t>(terminal_nodes_.size()));
  planes_sealed_ = true;  // arms plane_of_node for the scans below
  plane_policy_ = policy;
  const int K = num_planes();

  logical_terminals_.assign(
      terminal_nodes_.begin(),
      terminal_nodes_.begin() + static_cast<std::ptrdiff_t>(
                                    plane_term_base_[1]));

  // Per-chip plane segments: chip_nodes entries arrive in plane build
  // order, so each plane's nodes form one contiguous run per chip.
  chip_plane_off_.assign(
      num_chips() * (static_cast<std::size_t>(K) + 1), 0);
  node_plane_slot_.assign(routers_.size(), 0);
  std::vector<std::uint32_t> seen(static_cast<std::size_t>(K));
  for (std::size_t c = 0; c < num_chips(); ++c) {
    std::uint32_t* off =
        &chip_plane_off_[c * (static_cast<std::size_t>(K) + 1)];
    std::fill(seen.begin(), seen.end(), 0u);
    int prev = 0;
    for (const NodeId n : chip_nodes_[c]) {
      const int p = plane_of_node(n);
      if (p < prev) {
        planes_sealed_ = false;
        throw std::logic_error(
            "seal_planes: chip node list is not plane-contiguous");
      }
      prev = p;
      node_plane_slot_[static_cast<std::size_t>(n)] =
          seen[static_cast<std::size_t>(p)]++;
      ++off[p + 1];
    }
    for (int p = 0; p < K; ++p) {
      off[p + 1] += off[p];
      if (off[p + 1] == off[p]) {
        planes_sealed_ = false;
        throw std::invalid_argument(
            "seal_planes: plane " + std::to_string(p) +
            " has no terminal node on chip " + std::to_string(c) +
            " (every plane must cover every logical chip)");
      }
    }
  }
}

void Network::begin_wafer() {
  if (wafers_sealed_)
    throw std::logic_error("begin_wafer: wafers already sealed");
  if (!plane_node_base_.empty())
    throw std::logic_error(
        "begin_wafer: planes and wafers are mutually exclusive axes");
  wafer_node_base_.push_back(static_cast<std::uint32_t>(routers_.size()));
  wafer_chip_base_.push_back(static_cast<std::uint32_t>(num_chips()));
  chip_offset_ = static_cast<ChipId>(num_chips());
}

void Network::seal_wafers() {
  if (wafers_sealed_) throw std::logic_error("seal_wafers: already sealed");
  if (wafer_node_base_.empty())
    throw std::logic_error("seal_wafers: no begin_wafer() marks");
  if (!finalized())
    throw std::logic_error("seal_wafers: network not finalized");
  wafer_node_base_.push_back(static_cast<std::uint32_t>(routers_.size()));
  wafer_chip_base_.push_back(static_cast<std::uint32_t>(num_chips()));
  // Every wafer must span the same chip count: wafer_of_chip divides by it,
  // and the cross-wafer twin-column mapping (dst chip % chips_per_wafer)
  // relies on the wafer-major layout being uniform.
  const std::uint32_t cpw = wafer_chip_base_[1] - wafer_chip_base_[0];
  for (std::size_t w = 1; w + 1 < wafer_chip_base_.size(); ++w) {
    if (wafer_chip_base_[w + 1] - wafer_chip_base_[w] != cpw)
      throw std::logic_error(
          "seal_wafers: wafer " + std::to_string(w) + " spans " +
          std::to_string(wafer_chip_base_[w + 1] - wafer_chip_base_[w]) +
          " chips, expected " + std::to_string(cpw));
  }
  if (cpw == 0) throw std::logic_error("seal_wafers: empty wafer");
  wafers_sealed_ = true;
}

std::size_t Network::num_dead_channels() const { return dead_channels_; }

std::size_t Network::num_dead_nodes() const { return dead_nodes_; }

}  // namespace sldf::sim
