// Generator-built collective workloads (message dependency graphs) and the
// chip-grouping helpers they share with the open-loop traffic patterns.
//
// Every generator works on chip *groups* selected by Scope: the chips of
// each C-group, each W-group, or the whole system form one independent
// instance of the collective (one ring, one tree, one stencil grid, ...).
// Within a group, chips are ordered by (C-group, Hamiltonian ring rank) so
// that consecutive ranks are physically adjacent on the wafer — the same
// schedule the steady-state ring-AllReduce traffic pattern uses, so the
// open-loop and closed-loop experiments stress identical link sequences.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "workload/workload.hpp"

namespace sldf::workload {

/// Which chips form one collective instance.
enum class Scope : std::uint8_t { CGroup, WGroup, System };

/// Parses a to_string() name; throws std::invalid_argument on others.
Scope parse_scope(const std::string& s);
const char* to_string(Scope s);

/// The codec of every `scope` option (collective workloads and the
/// ring-allreduce traffic pattern).
inline constexpr core::Enum<Scope> kScopeCodec{"cgroup|wgroup|system",
                                               &parse_scope, &to_string};

/// Chips partitioned by `scope`, each group ordered by (C-group,
/// Hamiltonian ring rank). Requires HierTopo topology info. A non-empty
/// `subset` restricts the partition to those chips (the tenant-placement
/// path: a tenant's collective spans only its placed chips); chips listed
/// twice throw std::invalid_argument.
std::vector<std::vector<ChipId>> chip_groups(
    const sim::Network& net, Scope scope,
    const std::vector<ChipId>& subset = {});

/// Narrows every message that leaves its source C-group to one terminal
/// slot (MessageSpec::stripe = 1): such transfers funnel into a single
/// narrow external port, and striping them over every injector only fills
/// the mesh rows behind the port (tree saturation) without adding
/// bandwidth. Every generator (and the trace replayer) applies this after
/// building its graph.
void narrow_external_messages(const sim::Network& net, WorkloadGraph& g);

/// Ring AllReduce (reduce-scatter + allgather): 2*(N-1) steps per group of
/// N chips; each step streams ceil(vector_flits/N) flits to the ring
/// successor, split into `chunks` pipelined chunk-messages (chunk j of step
/// s waits only on chunk j of step s-1 at the predecessor). `iters` chains
/// full collectives back to back.
WorkloadGraph ring_allreduce(const sim::Network& net, Scope scope,
                             std::uint64_t vector_flits, int chunks,
                             int iters,
                             const std::vector<ChipId>& subset = {});

/// Recursive halving-doubling AllReduce: log2 steps of halving (reduce-
/// scatter) then log2 steps of doubling (allgather) over the largest
/// power-of-two subset of each group; leftover chips fold in/out via a
/// pre/post full-vector exchange (the standard non-power-of-two fixup).
WorkloadGraph halving_doubling_allreduce(const sim::Network& net, Scope scope,
                                         std::uint64_t vector_flits,
                                         int iters,
                                         const std::vector<ChipId>& subset = {});

/// Binomial-tree AllReduce: reduce to rank 0 (full vector per hop), then
/// binomial broadcast back out. Latency-optimal message count, bandwidth-
/// poor — the contrast workload to the ring.
WorkloadGraph tree_allreduce(const sim::Network& net, Scope scope,
                             std::uint64_t vector_flits, int iters,
                             const std::vector<ChipId>& subset = {});

/// All-to-all personalized exchange: N-1 shifted rounds (round r: chip i ->
/// chip (i+r) mod N) of `pair_flits` each; at most `window` rounds are in
/// flight per chip (0 = unlimited).
WorkloadGraph all_to_all(const sim::Network& net, Scope scope,
                         std::uint64_t pair_flits, int window, int iters,
                         const std::vector<ChipId>& subset = {});

/// 3D nearest-neighbour halo exchange: each group's chips are arranged in
/// the most cubic exact factorization of the group size (every chip
/// participates; a prime size degenerates to a chain); every iteration
/// each chip sends `halo_flits` to its (up to 6) face neighbours, and the
/// next iteration's sends wait on all halos arriving — the classic
/// stencil dependency. `periodic` wraps the grid into a torus.
WorkloadGraph stencil3d(const sim::Network& net, Scope scope,
                        std::uint64_t halo_flits, int iters, bool periodic,
                        const std::vector<ChipId>& subset = {});

}  // namespace sldf::workload
