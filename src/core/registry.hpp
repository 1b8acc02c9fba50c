// String-keyed registries behind the scenario layer (BookSim-style: every
// network and traffic pattern is a named entry, so new variants are a
// registration plus a config file instead of a new binary).
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.hpp"
#include "route/routing_modes.hpp"
#include "topo/fabric.hpp"

namespace sldf::sim {
class Network;
}

namespace sldf::core {

/// Per-entry documentation: the one-line summary plus every accepted
/// option with its default — the source the `sldf --list` output and the
/// README scenario reference (`sldf --doc-keys`) are generated from, so
/// registering an entry with its docs *is* documenting it.
struct RegistryDoc {
  std::string summary;
  std::vector<OptionDoc> options;
};

/// Generic string-keyed factory registry with per-entry docs. Lookup
/// failures throw std::invalid_argument listing the known names. The
/// topology, traffic and workload registries derive from it and add only
/// their process-wide instance() and a typed lookup.
template <typename F>
class NamedRegistry {
 public:
  using Factory = F;

  void add(const std::string& name, std::string help, Factory make) {
    entries_[name] = Entry{RegistryDoc{std::move(help), {}}, std::move(make)};
  }
  void add(const std::string& name, RegistryDoc doc, Factory make) {
    entries_[name] = Entry{std::move(doc), std::move(make)};
  }
  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) out.push_back(name);
    return out;
  }
  [[nodiscard]] const std::string& help(const std::string& name) const {
    return find(name, "registry entry").doc.summary;
  }
  [[nodiscard]] const RegistryDoc& doc(const std::string& name) const {
    return find(name, "registry entry").doc;
  }
  [[nodiscard]] const Factory& at(const std::string& name,
                                  const char* what) const {
    return find(name, what).make;
  }

 private:
  struct Entry {
    RegistryDoc doc;
    Factory make;
  };

  const Entry& find(const std::string& name, const char* what) const {
    const auto it = entries_.find(name);
    if (it != entries_.end()) return it->second;
    std::string known;
    for (const auto& [key, entry] : entries_) {
      if (!known.empty()) known += ", ";
      known += key;
    }
    throw std::invalid_argument(std::string("unknown ") + what + " '" + name +
                                "' (known: " + known + ")");
  }

  std::map<std::string, Entry> entries_;
};

/// Everything a topology builder needs besides the Network itself.
struct TopoConfig {
  KvMap params;  ///< Preset overrides in string form, e.g. {"g", "15"}.
  route::RouteMode mode = route::RouteMode::Minimal;
  route::VcScheme scheme = route::VcScheme::Baseline;
  /// Faults will be injected after the build (scenario `fault.*` keys):
  /// builders reserve the fault-detour VC budget. Builders whose routing is
  /// not fault-aware must reject this instead of silently degrading.
  bool fault_tolerant = false;
};

/// A registered topology entry *wires* its routers/channels/terminals into
/// the Network and returns the fabric (info/routing/VC geometry) without
/// finalizing — so the plane builder can wire K entries into one Network.
/// The classic single-fabric path is build() = wire + install_fabric.
using TopologyBuilder =
    std::function<topo::WiredFabric(sim::Network&, const TopoConfig&)>;

/// Named topology presets: the paper's radix-16/radix-32 switch-less and
/// switch-based networks, the raw parameter structs, the standalone C-group
/// mesh, and the ideal crossbar. Unknown override keys throw.
class TopologyRegistry : public NamedRegistry<TopologyBuilder> {
 public:
  /// The process-wide registry, with the built-in presets registered.
  static TopologyRegistry& instance();

  /// Wires the named preset into `net` (applying overrides/mode/scheme)
  /// without installing or finalizing; the caller owns the returned fabric.
  [[nodiscard]] topo::WiredFabric wire(const std::string& name,
                                       sim::Network& net,
                                       const TopoConfig& cfg) const {
    return at(name, "topology")(net, cfg);
  }
  /// Builds the named preset into `net`, applying overrides/mode/scheme.
  void build(const std::string& name, sim::Network& net,
             const TopoConfig& cfg) const {
    topo::install_fabric(net, wire(name, net, cfg));
  }

 private:
  TopologyRegistry();
};

}  // namespace sldf::core
