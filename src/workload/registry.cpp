#include "workload/registry.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/strfmt.hpp"
#include "trace/trace.hpp"
#include "workload/collectives.hpp"

namespace sldf::workload {

namespace {

using core::option;

/// `kib` KiB in flits of the env's size; a payload past 2^64 - 1 flits
/// is rejected naming `option` of workload `name`.
std::uint64_t kib_to_flits(double kib, const WorkloadEnv& env,
                           const char* name, const char* option) {
  const double flits = std::ceil(kib * 1024.0 / env.flit_bytes);
  if (!(flits < 0x1p64))
    core::reject(strf("workload '%s': option '%s'", name, option),
                 "a payload of at most 2^64 - 1 flits", core::format_num(kib));
  return flits < 1.0 ? 1 : static_cast<std::uint64_t>(flits);
}

/// A size or a clock: > 0.
constexpr core::Num kPositive{0.0, std::numeric_limits<double>::infinity(),
                              true};

/// Chips a trace-backed workload spans: the tenant placement when set,
/// otherwise the first `want` live chips in chip-id order (all of them
/// when want < 0) — so a standalone replay lands on a deterministic
/// placement that composes with the fault mask.
std::vector<ChipId> replay_chips(const sim::Network& net,
                                 const WorkloadEnv& env, std::int32_t want) {
  if (!env.chips.empty()) return env.chips;
  std::vector<ChipId> chips;
  const auto nchips = static_cast<ChipId>(net.num_chips());
  for (ChipId c = 0; c < nchips; ++c) {
    if (!net.chip_live(c)) continue;
    chips.push_back(c);
    if (want >= 0 && static_cast<std::int32_t>(chips.size()) == want) break;
  }
  return chips;
}

std::string context(const char* name) {
  return std::string("workload '") + name + "'";
}

/// The collective generators' options. Each generator lists the rows it
/// accepts and its own defaults.
struct Collective {
  double kib = 256.0;
  Scope scope = Scope::WGroup;
  int iters = 1;
  int chunks = 1;
  int window = 1;
  bool periodic = true;
};

using CollectiveGen = WorkloadGraph (*)(const sim::Network&,
                                        const Collective&,
                                        std::uint64_t flits,
                                        const std::vector<ChipId>& chips);

void add_collective(WorkloadRegistry& reg, const char* name,
                    const char* summary, Collective defaults,
                    std::vector<core::Option<Collective>> rows,
                    CollectiveGen gen) {
  reg.add(name, core::RegistryDoc{summary, core::option_docs(rows, defaults)},
          [name, defaults, rows, gen](const sim::Network& net,
                                      const core::KvMap& opts,
                                      const WorkloadEnv& env) {
            const Collective o =
                core::read_options(rows, defaults, opts, context(name));
            return gen(net, o, kib_to_flits(o.kib, env, name, "kib"),
                       env.chips);
          });
}

struct Replay {
  std::string file;
};

struct RequestReply {
  int requests = 64;
  double req_kib = 1.0;
  double rep_kib = 4.0;
  Cycle gap = 200;  ///< Mean request inter-arrival cycles.
  std::uint64_t seed = 1;
};

}  // namespace

WorkloadRegistry::WorkloadRegistry() {
  using C = Collective;
  const auto kib = [](const char* help) {
    return option<C>("kib", &C::kib, kPositive, help);
  };
  const auto allreduce_kib = kib("AllReduce vector size per chip, KiB");
  const auto scope = option<C>("scope", &C::scope, kScopeCodec,
                               "chips forming one collective instance");
  const auto iters = option<C>("iters", &C::iters, core::Int<int>{1},
                               "back-to-back repetitions of the collective");
  add_collective(
      *this, "ring-allreduce",
      "ring AllReduce: reduce-scatter + allgather, 2(N-1) pipelined steps "
      "around each scope ring",
      {}, {allreduce_kib, scope, iters,
           option<C>("chunks", &C::chunks, core::Int<int>{1},
                     "pipelined chunk-messages per ring step")},
      [](const sim::Network& net, const C& o, std::uint64_t flits,
         const std::vector<ChipId>& chips) {
        return ring_allreduce(net, o.scope, flits, o.chunks, o.iters, chips);
      });
  add_collective(
      *this, "halving-doubling-allreduce",
      "recursive halving-doubling AllReduce (2*log2 N steps, "
      "non-power-of-two ranks fold in/out)",
      {}, {allreduce_kib, scope, iters},
      [](const sim::Network& net, const C& o, std::uint64_t flits,
         const std::vector<ChipId>& chips) {
        return halving_doubling_allreduce(net, o.scope, flits, o.iters, chips);
      });
  add_collective(
      *this, "tree-allreduce",
      "binomial-tree AllReduce: reduce to rank 0, broadcast back (full "
      "vector per hop)",
      {}, {allreduce_kib, scope, iters},
      [](const sim::Network& net, const C& o, std::uint64_t flits,
         const std::vector<ChipId>& chips) {
        return tree_allreduce(net, o.scope, flits, o.iters, chips);
      });
  add_collective(
      *this, "all-to-all",
      "personalized all-to-all: N-1 shifted rounds per scope group",
      {.kib = 16.0},
      {kib("payload per chip pair, KiB"), scope, iters,
       option<C>("window", &C::window, core::Int<int>{0},
                 "rounds in flight per chip (0 = unlimited)")},
      [](const sim::Network& net, const C& o, std::uint64_t flits,
         const std::vector<ChipId>& chips) {
        return all_to_all(net, o.scope, flits, o.window, o.iters, chips);
      });
  add_collective(
      *this, "stencil-3d",
      "3D nearest-neighbour halo exchange on the most cubic grid of each "
      "scope group",
      {.kib = 64.0, .scope = Scope::System},
      {kib("halo payload per face neighbour, KiB"), scope, iters,
       option<C>("periodic", &C::periodic, core::Bool{},
                 "wrap the grid into a torus")},
      [](const sim::Network& net, const C& o, std::uint64_t flits,
         const std::vector<ChipId>& chips) {
        return stencil3d(net, o.scope, flits, o.iters, o.periodic, chips);
      });

  const std::vector<core::Option<Replay>> replay = {option<Replay>(
      "file", &Replay::file, core::Str{"path"},
      "trace file to replay; defaults to the trace.file scenario key",
      "(trace.file)")};
  add("trace-replay",
      core::RegistryDoc{
          "replays an sldf-trace file: recorded issue timestamps + message "
          "deps onto the tenant placement (ranks -> chips)",
          core::option_docs(replay)},
      [replay](const sim::Network& net, const core::KvMap& opts,
               const WorkloadEnv& env) {
        const std::string file =
            core::read_options(replay, Replay{env.trace_file}, opts,
                               context("trace-replay"))
                .file;
        if (file.empty())
          throw ScenarioError(
              "workload 'trace-replay': no trace file (set trace.file or "
              "the workload option 'file')");
        const trace::Trace t = trace::load_trace(file);
        return trace::to_graph(t, net, replay_chips(net, env, t.chips),
                               "workload 'trace-replay' (" + file + ")");
      });

  using R = RequestReply;
  const std::vector<core::Option<R>> rr = {
      option<R>("requests", &R::requests, core::Int<int>{1},
                "request/reply pairs"),
      option<R>("req_kib", &R::req_kib, kPositive, "request payload, KiB"),
      option<R>("rep_kib", &R::rep_kib, kPositive, "reply payload, KiB"),
      option<R>("gap", &R::gap, core::Int<Cycle>{0},
                "mean cycles between request arrivals"),
      option<R>("seed", &R::seed, core::Int<std::uint64_t>{0},
                "arrival/pairing seed; defaults to the trace.seed scenario "
                "key",
                "(trace.seed)"),
  };
  add("request-reply",
      core::RegistryDoc{
          "seeded inference-serving mix: random client->server requests "
          "with issue timestamps, each reply gated on its request",
          core::option_docs(rr)},
      [rr](const sim::Network& net, const core::KvMap& opts,
           const WorkloadEnv& env) {
        const R o = core::read_options(rr, R{.seed = env.trace_seed}, opts,
                                       context("request-reply"));
        const auto chips = replay_chips(net, env, -1);
        const trace::Trace t = trace::request_reply_trace(
            static_cast<std::int32_t>(chips.size()), o.requests,
            kib_to_flits(o.req_kib, env, "request-reply", "req_kib"),
            kib_to_flits(o.rep_kib, env, "request-reply", "rep_kib"), o.gap,
            o.seed);
        auto g = trace::to_graph(t, net, chips, "workload 'request-reply'");
        g.name = "request-reply";
        return g;
      });
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry reg;
  return reg;
}

WorkloadGraph make_workload(const std::string& kind, const sim::Network& net,
                            const core::KvMap& opts, const WorkloadEnv& env) {
  return WorkloadRegistry::instance().make(kind, net, opts, env);
}

const std::vector<core::Option<WorkloadRunConfig>>& runner_options() {
  using W = WorkloadRunConfig;
  static const std::vector<core::Option<W>> rows = {
      option<W>("flit_bytes", &W::flit_bytes, kPositive,
                "payload bytes per flit (sizes KiB -> flits; GB/s "
                "reporting)"),
      option<W>("freq_ghz", &W::freq_ghz, kPositive,
                "clock used to convert cycles to seconds"),
      option<W>("max_cycles", &W::max_cycles, core::Int<Cycle>{1},
                "abort horizon; hitting it reports completed = no"),
  };
  return rows;
}

}  // namespace sldf::workload
