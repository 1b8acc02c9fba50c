#include "core/builder.hpp"

#include "common/strfmt.hpp"

namespace sldf::core {

NetworkCensus census(const sim::Network& net) {
  NetworkCensus c;
  for (std::size_t i = 0; i < net.num_routers(); ++i) {
    switch (net.router(static_cast<NodeId>(i)).kind) {
      case NodeKind::Core: ++c.cores; break;
      case NodeKind::IoConverter: ++c.io_converters; break;
      case NodeKind::Switch: ++c.switches; break;
    }
  }
  c.chips = net.num_chips();
  c.channels_total = net.num_channels();
  for (std::size_t i = 0; i < net.num_channels(); ++i)
    ++c.channels_by_type[static_cast<int>(
        net.chan(static_cast<ChanId>(i)).type)];
  return c;
}

std::string describe(const NetworkCensus& c) {
  std::string s = strf("cores=%zu io=%zu switches=%zu chips=%zu channels=%zu (",
                       c.cores, c.io_converters, c.switches, c.chips,
                       c.channels_total);
  for (int t = 0; t < kNumLinkTypes; ++t) {
    if (c.channels_by_type[t] == 0) continue;
    s += strf("%.*s:%zu ",
              static_cast<int>(to_string(static_cast<LinkType>(t)).size()),
              to_string(static_cast<LinkType>(t)).data(),
              c.channels_by_type[t]);
  }
  if (s.back() == ' ') s.pop_back();
  s += ")";
  return s;
}

}  // namespace sldf::core
