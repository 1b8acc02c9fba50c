// Traffic patterns (paper §V-A3): uniform, bit permutations (bit-reverse,
// bit-shuffle, bit-transpose), and the adversarial hotspot / worst-case
// patterns defined over the W-group hierarchy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "sim/simulator.hpp"

namespace sldf::traffic {

/// Uniform random over all terminals except the source node.
class UniformTraffic final : public sim::TrafficSource {
 public:
  explicit UniformTraffic(const sim::Network& net);
  NodeId dest(const sim::Network& net, NodeId src, Rng& rng) override;
  [[nodiscard]] const char* name() const override { return "uniform"; }

 private:
  std::vector<NodeId> terms_;
};

enum class Permutation : std::uint8_t { BitReverse, BitShuffle, BitTranspose };

/// Bit permutation over terminal indices. For non-power-of-two N the low
/// 2^floor(log2 N) endpoints are permuted and the rest fall back to uniform
/// (BookSim convention).
class PermutationTraffic final : public sim::TrafficSource {
 public:
  PermutationTraffic(const sim::Network& net, Permutation kind);
  NodeId dest(const sim::Network& net, NodeId src, Rng& rng) override;
  [[nodiscard]] const char* name() const override;

 private:
  Permutation kind_;
  int bits_ = 0;
  std::vector<NodeId> terms_;
  std::vector<std::int32_t> term_index_;  ///< node -> terminal index.
};

/// Hotspot (paper Fig 13a): traffic confined to `hot_groups` W-groups; all
/// terminals inside them send uniformly to each other, everyone else idles.
class HotspotTraffic final : public sim::TrafficSource {
 public:
  HotspotTraffic(const sim::Network& net, int hot_groups = 4);
  NodeId dest(const sim::Network& net, NodeId src, Rng& rng) override;
  [[nodiscard]] const char* name() const override { return "hotspot"; }
  /// Chips that actually inject (for throughput normalization).
  [[nodiscard]] int active_chips() const { return active_chips_; }

 private:
  std::vector<NodeId> hot_terms_;
  std::vector<bool> is_hot_;  ///< Indexed by node.
  int active_chips_ = 0;
};

/// Worst-case (paper Fig 13b): every node in W-group i sends to a random
/// node in W-group (i+1) mod g, saturating one global link per group pair.
class WorstCaseTraffic final : public sim::TrafficSource {
 public:
  explicit WorstCaseTraffic(const sim::Network& net);
  NodeId dest(const sim::Network& net, NodeId src, Rng& rng) override;
  [[nodiscard]] const char* name() const override { return "worst-case"; }

 private:
  std::vector<std::vector<NodeId>> group_terms_;
  std::vector<std::int32_t> node_group_;
};

/// Registry of named traffic patterns. Built-ins: "uniform", "bit-reverse",
/// "bit-shuffle", "bit-transpose", "hotspot" (option hot_groups),
/// "worst-case", and "ring-allreduce" (options scope=cgroup|wgroup|system,
/// bidir=0|1). Factories receive the pattern's option map; unknown options
/// or kinds throw std::invalid_argument.
class TrafficRegistry
    : public core::NamedRegistry<std::function<std::unique_ptr<
          sim::TrafficSource>(const sim::Network&, const core::KvMap&)>> {
 public:
  /// The process-wide registry, with the built-in patterns registered.
  static TrafficRegistry& instance();

  [[nodiscard]] std::unique_ptr<sim::TrafficSource> make(
      const std::string& kind, const sim::Network& net,
      const core::KvMap& opts = {}) const {
    return at(kind, "traffic pattern")(net, opts);
  }

 private:
  TrafficRegistry();
};

/// Registry lookup shorthand (kept as the factory entry point).
std::unique_ptr<sim::TrafficSource> make_pattern(const std::string& kind,
                                                 const sim::Network& net,
                                                 const core::KvMap& opts = {});

}  // namespace sldf::traffic
