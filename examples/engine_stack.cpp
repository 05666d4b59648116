// Tour of the fault-grading engine stack — the "which engine should I use?"
// example. Grades the same campaign with every evaluation-mode / lane-width
// / threading configuration, shows that the classification is bit-identical
// everywhere, and prints the throughput ladder from 64-lane full-program
// evaluation up to the threaded 512-lane cone-restricted engine (AVX-512
// when the host has it, portable limbs otherwise — see
// sim/simd_dispatch.h).
//
//   engine_stack [circuit] [cycles]
//     circuit  registry name           [default: b14]
//     cycles   testbench length        [default: 160]

#include <iostream>
#include <string>
#include <thread>

#include "circuits/registry.h"
#include "common/strings.h"
#include "common/table.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "stim/generate.h"

int main(int argc, char** argv) try {
  using namespace femu;

  const std::string name = argc > 1 ? argv[1] : "b14";
  const std::size_t cycles = argc > 2 ? std::stoul(argv[2]) : 160;

  const Circuit circuit = circuits::build_by_name(name);
  const Testbench tb = random_testbench(circuit.num_inputs(), cycles, 2005);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());

  std::cout << circuit.name() << ": " << circuit.num_dffs() << " FFs x "
            << tb.num_cycles() << " cycles = " << format_grouped(faults.size())
            << " faults; " << std::thread::hardware_concurrency()
            << " hardware threads\n\n";

  const unsigned hw = std::thread::hardware_concurrency();
  struct Row {
    const char* label;
    CampaignConfig config;
  };
  // Full-eval rows run cycle-major, cone-restricted rows cone-affine.
  const auto config = [](LaneWidth lanes, unsigned threads, bool cone) {
    return CampaignConfig{.lanes = lanes,
                          .num_threads = threads,
                          .cone_restricted = cone,
                          .schedule = cone ? CampaignSchedule::kConeAffine
                                           : CampaignSchedule::kCycleMajor};
  };
  const Row rows[] = {
      {"full-eval, 64 lanes, 1 thread", config(LaneWidth::k64, 1, false)},
      {"cone-restricted, 64 lanes, 1 thread",
       config(LaneWidth::k64, 1, true)},
      {"cone-restricted, 256 lanes, 1 thread",
       config(LaneWidth::k256, 1, true)},
      {"cone-restricted, 512 lanes, 1 thread",
       config(LaneWidth::k512, 1, true)},
      {"cone-restricted, 512 lanes, all threads",
       config(LaneWidth::k512, hw, true)},
  };

  TextTable table({"engine", "time (ms)", "faults/s", "speedup", "failure",
                   "latent", "silent"});
  double base_seconds = 0.0;
  ClassCounts base_counts;
  bool identical = true;
  for (const Row& row : rows) {
    ParallelFaultSimulator sim(circuit, tb, row.config);
    const CampaignResult result = sim.run(faults);
    const ClassCounts& counts = result.counts();
    if (&row == rows) {
      base_seconds = sim.last_run_seconds();
      base_counts = counts;
    }
    identical = identical && counts.failure == base_counts.failure &&
                counts.latent == base_counts.latent &&
                counts.silent == base_counts.silent;
    table.add_row(
        {row.label, format_fixed(sim.last_run_seconds() * 1e3, 2),
         format_grouped(static_cast<long long>(
             faults.size() / std::max(sim.last_run_seconds(), 1e-9))),
         str_cat(format_fixed(base_seconds / sim.last_run_seconds(), 1), "x"),
         format_grouped(counts.failure), format_grouped(counts.latent),
         format_grouped(counts.silent)});
  }

  std::cout << table.to_ascii() << "\n";
  std::cout << (identical
                    ? "classification is bit-identical across all engines\n"
                    : "ERROR: engines disagree on classification!\n");
  return identical ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
