#include "core/docgen.hpp"

#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

namespace sldf::core {

namespace {

void render_options(std::string& out,
                    const std::vector<OptionDoc>& options) {
  for (const auto& o : options) {
    out += "  - `" + o.key + "` (" + o.type + ", default `" + o.def +
           "`) — " + o.help + "\n";
  }
}

template <typename Registry>
void render_registry(std::string& out, const Registry& reg) {
  for (const auto& name : reg.names()) {
    const RegistryDoc& doc = reg.doc(name);
    out += "- **`" + name + "`** — " + doc.summary + "\n";
    render_options(out, doc.options);
  }
}

}  // namespace

std::string render_scenario_reference() {
  std::string out;

  out += "### Scenario key reference\n\n";
  out += "| Key | Meaning | Default |\n| --- | --- | --- |\n";
  for (const auto& row : scenario_key_table())
    out += "| `" + row.key + "` | " + row.help + " | `" + row.def + "` |\n";

  out += "\n### Topologies\n\n";
  out +=
      "Preset parameters are overridden per key with `topo.<param> = "
      "value`; defaults below are each preset's values.\n\n";
  render_registry(out, TopologyRegistry::instance());

  out += "\n### Traffic patterns\n\n";
  out += "Options are set with `traffic.<opt> = value`.\n\n";
  render_registry(out, traffic::TrafficRegistry::instance());

  out += "\n### Workloads\n\n";
  out +=
      "Closed-loop message-level workloads (`workload = <name>`); options "
      "are set with `workload.<opt> = value`. Every workload also accepts "
      "the runner keys:\n\n";
  render_options(out, workload::runner_option_docs());
  out += "\n";
  render_registry(out, workload::WorkloadRegistry::instance());

  return out;
}

}  // namespace sldf::core
