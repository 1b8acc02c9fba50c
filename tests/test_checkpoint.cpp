// Checkpoint suite: golden hashes that pin the checkpoint byte stream, and
// restore's validation of the structure it reads.
//
// Each golden case saves a checkpoint at a fixed mid-run cycle of a
// fixed-seed tiny spec and compares the FNV-1a hash of the whole stream
// against a checked-in value. A changed hash means a field was added,
// dropped, reordered or re-sized — i.e. a stream written by another build
// would no longer restore — so a refactor of the checkpoint code must leave
// every hash untouched. (The stream carries no host-dependent bytes: Packet
// and the wheel records have no padding, and the engine is bit-
// deterministic for fixed seeds and every shard count.)
//
// To regenerate after an *intentional* format change (bump the magic too):
//   SLDF_REGEN_GOLDEN=1 ./build/test_checkpoint
// and paste the printed rows over kGolden below.
//
// A checkpoint is input from outside the program, so restore must reject a
// corrupt stream with std::runtime_error — never index out of bounds or
// misplace state: neither a malformed structure nor an id (packet, router,
// VC, credit lane) outside what it names. The corruption cases run on the
// smallest fabric so that every prefix of a mid-run stream stays
// affordable under ASan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/simulator.hpp"
#include "traffic/pattern.hpp"

using namespace sldf;

namespace {

struct GoldenCheckpoint {
  const char* name;
  const char* config;  ///< Scenario-file text (parse_scenario_text input).
  Cycle at;            ///< Cycle the checkpoint is saved at.
  std::uint64_t fnv1a;
};

constexpr const char* kWindow =
    "topology = tiny-swless\ntraffic = uniform\nrates = 0.2\n"
    "warmup = 100\nmeasure = 300\ndrain = 600\nseed = 11\n";

const std::vector<GoldenCheckpoint>& golden_cases() {
  static const std::vector<GoldenCheckpoint> cases = {
      // Saved between the fail and the repair: dead-cable masks and a
      // half-consumed fault schedule.
      {"fault-timeline",
       "fault.seed = 5\nfault.events = fail@150:local=0.3;repair@400:local=0\n",
       200, 0xba73767ea98f9550ull},
      {"planes-k2", "plane.count = 2\nplane.policy = rr\n", 200,
       0xb1e8484f000b2302ull},
      {"wafers-w2", "wafer.count = 2\n", 200, 0xae503c308b346255ull},
  };
  return cases;
}

core::ScenarioSpec spec_of(const char* config) {
  const auto series =
      core::parse_scenario_text(std::string(kWindow) + config);
  EXPECT_EQ(series.size(), 1u);
  return series.at(0);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One engine over its own build of `s` (the Simulator borrows the
/// network and the traffic pattern, so they live alongside it).
struct Engine {
  explicit Engine(const core::ScenarioSpec& s, sim::SimContext* ctx = nullptr) {
    sim::SimConfig cfg = s.sim;
    cfg.inj_rate_per_chip = s.rates.at(0);
    core::build_network(net, s);
    pat = traffic::make_pattern(s.traffic, net, s.traffic_opts);
    sim = ctx ? std::make_unique<sim::Simulator>(net, cfg, *pat, *ctx)
              : std::make_unique<sim::Simulator>(net, cfg, *pat);
  }
  std::string save() const {
    std::ostringstream ck;
    sim->save_checkpoint(ck);
    return ck.str();
  }
  void restore(const std::string& bytes) {
    std::istringstream in(bytes);
    sim->restore_checkpoint(in);
  }

  sim::Network net;
  std::unique_ptr<sim::TrafficSource> pat;
  std::unique_ptr<sim::Simulator> sim;
};

/// The checkpoint stream of `s` saved at cycle `at`.
std::string checkpoint_at(const core::ScenarioSpec& s, Cycle at,
                          sim::SimContext* ctx = nullptr) {
  Engine e(s, ctx);
  while (e.sim->now() < at) e.sim->step();
  return e.save();
}

/// A fabric small enough to restore every prefix of its stream, yet with
/// every stream section filled mid-run: one W-group of two C-groups with
/// 4-flit buffers and a short cable delay (a small arena and wheel), busy
/// enough to pool, queue and fly packets, and a fault timeline whose cable
/// is dead at the checkpoint cycle.
core::ScenarioSpec small_spec() {
  auto s = spec_of(
      "topo.g = 1\ntopo.b = 2\ntopo.local_ports = 1\ntopo.vc_buf = 4\n"
      "topo.lr_latency = 2\n"
      "fault.events = fail@20:local=0.5;repair@60:local=0\n");
  s.rates = {0.6};
  return s;
}
constexpr Cycle kSmallAt = 40;

/// The stream bytes of one 64-bit word.
std::string word_of(std::uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof v);
}

bool regen_mode() { return std::getenv("SLDF_REGEN_GOLDEN") != nullptr; }

}  // namespace

TEST(CheckpointGolden, StreamHashesMatchGoldenValues) {
  for (const auto& c : golden_cases()) {
    const std::string ck = checkpoint_at(spec_of(c.config), c.at);
    if (regen_mode()) {
      std::printf("      {\"%s\", ..., %llu, 0x%016llxull},  // %zu bytes\n",
                  c.name, static_cast<unsigned long long>(c.at),
                  static_cast<unsigned long long>(fnv1a(ck)), ck.size());
      continue;
    }
    EXPECT_EQ(fnv1a(ck), c.fnv1a) << c.name << " (" << ck.size() << " bytes)";
  }
}

TEST(CheckpointRestore, EveryTruncationThrows) {
  const auto s = small_spec();
  const std::string full = checkpoint_at(s, kSmallAt);
  // One engine takes every cut: a failed restore may leave it half
  // written, but never in a state a later restore cannot overwrite.
  Engine e(s);
  for (std::size_t len = 0; len < full.size(); ++len) {
    try {
      e.restore(full.substr(0, len));
    } catch (const std::runtime_error&) {
      continue;
    }
    FAIL() << "a " << len << "-byte prefix of a " << full.size()
           << "-byte checkpoint restored without error";
  }
  e.restore(full);
  EXPECT_EQ(e.sim->now(), kSmallAt);
  EXPECT_GT(e.net.num_dead_channels(), 0u);
  EXPECT_TRUE(e.save() == full) << "re-save after the cuts differs";
}

TEST(CheckpointRestore, RejectsInvalidWheelSizes) {
  const auto s = small_spec();
  const std::string ck = checkpoint_at(s, kSmallAt);
  // A recycled context keeps a larger wheel; the run is unchanged, so the
  // two streams first differ at the wheel-size field.
  sim::SimContext big;
  big.wheel.resize(256);
  const std::string big_ck = checkpoint_at(s, kSmallAt, &big);
  ASSERT_LT(ck.size(), big_ck.size());
  const auto at = static_cast<std::size_t>(
      std::mismatch(ck.begin(), ck.end(), big_ck.begin()).first - ck.begin());

  // The larger (valid) wheel is adopted and re-saved byte for byte.
  Engine e(s);
  e.restore(big_ck);
  EXPECT_TRUE(e.save() == big_ck);

  // Re-frame the saved wheel as its first `slots` slots, so the rest of
  // the stream still parses and only the wheel size is wrong.
  const auto slots_end = [&](std::uint64_t slots) {
    std::size_t end = at + sizeof(std::uint64_t);
    for (std::uint64_t k = 0; k < slots; ++k) {
      std::uint64_t events = 0;
      std::memcpy(&events, ck.data() + end, sizeof events);
      end += sizeof events + events * sizeof(sim::WheelEvent);
    }
    return end;
  };
  std::uint64_t saved = 0;
  std::memcpy(&saved, ck.data() + at, sizeof saved);
  ASSERT_GT(saved, 3u);
  for (const std::uint64_t slots : {0, 3}) {
    const std::string bad = ck.substr(0, at) + word_of(slots) +
                            ck.substr(at + sizeof slots,
                                      slots_end(slots) - at - sizeof slots) +
                            ck.substr(slots_end(saved));
    Engine f(s);
    EXPECT_THROW(f.restore(bad), std::runtime_error) << slots << " slots";
  }
}

TEST(CheckpointRestore, RejectsShapeBoundLengthMismatch) {
  // At cycle 0 every word between the terminal-count fingerprint and the
  // plane-cursor vector is a zero, one, all-ones or infinity (or RNG
  // state), so the terminal count's second aligned occurrence is that
  // vector's length.
  const auto s = small_spec();
  Engine e(s);
  std::string ck = e.save();
  const std::uint64_t terms = e.net.terminals().size();
  std::vector<std::size_t> hits;
  for (std::size_t pos = 0; pos + sizeof terms <= ck.size(); pos += sizeof terms)
    if (ck.compare(pos, sizeof terms, word_of(terms)) == 0) hits.push_back(pos);
  ASSERT_GE(hits.size(), 2u);
  ck.replace(hits[1], sizeof terms, word_of(terms + 1));
  try {
    e.restore(ck);
    FAIL() << "a plane-cursor length of " << terms + 1 << " restored";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("plane cursor"), std::string::npos)
        << err.what();
  }
}

TEST(CheckpointRestore, RejectsActiveBitPastTheLastRouter) {
  // The active-router bitmap is saved as its word count and words, then
  // the router-activity vector's length (the router count). Setting the
  // last word's top bit names a router that does not exist.
  const auto s = small_spec();
  std::string ck = checkpoint_at(s, kSmallAt);
  Engine e(s);
  const std::uint64_t routers = e.net.num_routers();
  ASSERT_NE(routers % 64, 0u) << "no padding bits to corrupt";
  const std::uint64_t words = (routers + 63) / 64;
  const std::size_t span = (words + 2) * sizeof words;
  std::size_t at = std::string::npos;
  for (std::size_t pos = 0; pos + span <= ck.size(); ++pos) {
    if (ck.compare(pos, sizeof words, word_of(words)) == 0 &&
        ck.compare(pos + span - sizeof routers, sizeof routers,
                   word_of(routers)) == 0) {
      at = pos;
      break;
    }
  }
  ASSERT_NE(at, std::string::npos);
  const std::size_t last = at + words * sizeof words;
  std::uint64_t top = 0;
  std::memcpy(&top, ck.data() + last, sizeof top);
  ck.replace(last, sizeof top, word_of(top | (1ULL << 63)));
  try {
    e.restore(ck);
    FAIL() << "an active bit past router " << routers - 1 << " restored";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("active bit"), std::string::npos)
        << err.what();
  }
}

TEST(CheckpointRestore, RejectsIdsOutsideTheirBounds) {
  // Each case corrupts one id in a live engine's own context, saves it (a
  // save checks nothing) and expects a fresh engine's restore to throw
  // naming the field, instead of indexing past an array with the id.
  const auto s = small_spec();
  struct Case {
    const char* name;
    const char* what;  ///< Expected in the error message.
    std::function<void(sim::SimContext&, sim::Network&)> corrupt;
  };
  const auto pool_end = [](const sim::SimContext& c) {
    return static_cast<PacketId>(c.pool.capacity());
  };
  const auto freed = [](const sim::SimContext& c) {
    EXPECT_FALSE(c.pool.free_list().empty()) << "no free packet to name";
    return c.pool.free_list().empty() ? PacketId{0} : c.pool.free_list()[0];
  };
  const auto owned = [](const sim::SimContext& c) {
    const auto it =
        std::find_if(c.ivc_pkt.begin(), c.ivc_pkt.end(),
                     [](PacketId id) { return id != kInvalidPacket; });
    EXPECT_NE(it, c.ivc_pkt.end()) << "no VC owns a packet";
    return it == c.ivc_pkt.end() ? PacketId{0} : *it;
  };
  const auto push = [](sim::SimContext& c, std::uint32_t vc_flat, NodeId node,
                       sim::Flit f) {
    c.wheel[0].push_back(sim::WheelEvent{vc_flat, node, f});
  };
  constexpr std::uint32_t kLane0 = sim::Network::kOvcLane0;  // port 0, VC 0
  const std::vector<Case> cases = {
      {"queued packet past the pool", "source queue",
       [&](sim::SimContext& c, const sim::Network&) {
         c.terms[0].queue.push_back(pool_end(c));
       }},
      {"queued free packet", "source queue",
       [&](sim::SimContext& c, const sim::Network&) {
         c.terms[0].queue.push_back(freed(c));
       }},
      {"VC owner past the pool", "VC owner",
       [&](sim::SimContext& c, const sim::Network&) {
         c.ivc_pkt[0] = pool_end(c);
       }},
      {"wheel flit of a free packet", "wheel flit",
       [&](sim::SimContext& c, const sim::Network&) {
         push(c, 0, 0, sim::Flit(freed(c), true, true));
       }},
      {"wheel event at an unknown router", "wheel event",
       [&](sim::SimContext& c, const sim::Network& net) {
         push(c, kLane0, static_cast<NodeId>(net.num_routers()), sim::Flit{});
       }},
      {"wheel flit into an unknown VC", "wheel event",
       [&](sim::SimContext& c, const sim::Network& net) {
         push(c, static_cast<std::uint32_t>(net.fifos().num_fifos()), 0,
              sim::Flit(owned(c), true, true));
       }},
      {"credit to an unknown port", "wheel event",
       [&](sim::SimContext& c, const sim::Network& net) {
         push(c, (net.num_out_ports() << sim::Network::kPortLaneBits) | kLane0,
              0, sim::Flit{});
       }},
      {"credit past the port's VC lanes", "wheel event",
       [&](sim::SimContext& c, const sim::Network& net) {
         push(c, kLane0 + static_cast<std::uint32_t>(net.num_vcs()), 0,
              sim::Flit{});
       }},
      // In range for the network, but owned by router 1, not router 0.
      {"wheel flit into another router's VC", "wheel event",
       [&](sim::SimContext& c, const sim::Network& net) {
         push(c, net.in_vc_index(1, 0, 0), 0, sim::Flit(owned(c), true, true));
       }},
      {"credit to another router's port", "wheel event",
       [&](sim::SimContext& c, const sim::Network& net) {
         push(c, (net.out_port_index(1, 0) << sim::Network::kPortLaneBits) |
                     kLane0,
              0, sim::Flit{});
       }},
      {"buffered flit of a free packet", "buffered flit",
       [&](sim::SimContext& c, sim::Network& net) {
         sim::FlitFifoArena& fifos = net.fifos();
         std::size_t ix = 0;
         while (ix < fifos.num_fifos() && fifos.full(ix)) ++ix;
         ASSERT_LT(ix, fifos.num_fifos()) << "every FIFO is full";
         fifos.push(ix, sim::Flit(freed(c), true, true));
       }},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    sim::SimContext ctx;
    Engine src(s, &ctx);
    // Past the checkpoint cycle until some packet was delivered, so the
    // free list has an id to name.
    while (src.sim->now() < kSmallAt || ctx.pool.free_list().empty()) {
      ASSERT_LT(src.sim->now(), 10 * kSmallAt) << "no packet delivered";
      src.sim->step();
    }
    const std::string good = src.save();
    k.corrupt(ctx, src.net);
    const std::string bad = src.save();
    ASSERT_NE(bad, good);
    Engine dst(s);
    try {
      dst.restore(bad);
      ADD_FAILURE() << "a stream with a " << k.name << " restored";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(k.what), std::string::npos)
          << err.what();
    }
    dst.restore(good);  // the uncorrupted stream still restores
    EXPECT_TRUE(dst.save() == good);
  }
}
