// Introspection for built networks: node and channel census.
#pragma once

#include <string>

#include "sim/network.hpp"

namespace sldf::core {

struct NetworkCensus {
  std::size_t cores = 0;
  std::size_t io_converters = 0;
  std::size_t switches = 0;
  std::size_t chips = 0;
  std::size_t channels_by_type[kNumLinkTypes] = {};
  std::size_t channels_total = 0;
};

NetworkCensus census(const sim::Network& net);
std::string describe(const NetworkCensus& c);

}  // namespace sldf::core
