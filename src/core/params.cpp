#include "core/params.hpp"

namespace sldf::core {

topo::SwlessParams radix16_swless() {
  topo::SwlessParams p;
  p.a = 2;
  p.b = 4;  // ab = 8 C-groups per W-group
  p.chip_gx = 2;
  p.chip_gy = 2;
  p.noc_x = 2;
  p.noc_y = 2;
  p.ports_per_chiplet = 6;  // n = 6 -> 1.5 links per chiplet edge
  p.local_ports = 7;
  p.global_ports = 5;  // h = 5 -> g = 8*5 + 1 = 41
  p.g = 0;
  return p;
}

topo::SwDragonflyParams radix16_swdf() {
  topo::SwDragonflyParams p;
  p.switches_per_group = 8;
  p.terminals_per_switch = 4;
  p.globals_per_switch = 5;  // 4 + 7 + 5 = radix 16
  p.groups = 0;              // 41
  return p;
}

topo::SwlessParams radix32_swless() {
  topo::SwlessParams p;
  p.a = 4;
  p.b = 4;  // ab = 16
  p.chip_gx = 4;
  p.chip_gy = 2;  // 8 chips per C-group, router mesh 8x4
  p.noc_x = 2;
  p.noc_y = 2;
  p.ports_per_chiplet = 8;  // 2 links per chiplet edge
  p.local_ports = 15;
  p.global_ports = 9;  // h = 9 -> g = 16*9 + 1 = 145
  p.g = 0;
  return p;
}

topo::SwDragonflyParams radix32_swdf() {
  topo::SwDragonflyParams p;
  p.switches_per_group = 16;
  p.terminals_per_switch = 8;
  p.globals_per_switch = 9;  // 8 + 15 + 9 = radix 32
  p.groups = 0;              // 145
  return p;
}

topo::SwlessParams tiny_swless() {
  topo::SwlessParams p;
  p.a = 1;
  p.b = 3;  // ab = 3 C-groups per W-group
  p.chip_gx = 2;
  p.chip_gy = 2;
  p.noc_x = 1;
  p.noc_y = 1;  // 2x2 router mesh, chip == router
  p.ports_per_chiplet = 4;
  p.local_ports = 2;
  p.global_ports = 2;  // h = 2 -> g max = 3*2 + 1 = 7
  p.g = 5;
  return p;
}

topo::SwlessParams case_study_swless() {
  topo::SwlessParams p;
  p.a = 4;
  p.b = 8;  // ab = 32
  p.chip_gx = 4;
  p.chip_gy = 4;  // m = 4 -> 16 chips per C-group
  p.noc_x = 2;
  p.noc_y = 2;
  p.ports_per_chiplet = 12;  // n = 12, k = 48
  p.local_ports = 31;
  p.global_ports = 17;  // h = 17 -> g = 32*17 + 1 = 545
  p.g = 0;
  return p;
}

}  // namespace sldf::core
