// google-benchmark microbenchmarks of the engines underneath the emulation
// system: raw simulator throughput (cycles/s, gate-evals/s) — the scalar
// simulator interpreted and compiled side by side, the 64/256-lane engines
// compiled — fault-grading throughput (faults/s) of the serial vs the
// bit-parallel engines at both lane widths, and the cost of the netlist
// transforms and the LUT mapper.
//
// These are the numbers that justify the fast-path architecture: the
// compiled 64/256-lane engines grade b14 faults orders of magnitude faster
// than serial simulation, which is what makes whole-campaign reproduction
// interactive.

#include <benchmark/benchmark.h>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "core/instrument.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "map/lut_mapper.h"
#include "sim/compiled_kernel.h"
#include "sim/event_sim.h"
#include "sim/levelized_sim.h"
#include "sim/parallel_sim.h"
#include "stim/generate.h"

namespace {

using namespace femu;

const Circuit& b14() {
  static const Circuit circuit = circuits::build_b14();
  return circuit;
}

const Testbench& b14_tb() {
  static const Testbench tb =
      random_testbench(b14().num_inputs(), 160, 2005);
  return tb;
}

// ---- single-machine engines: interpreted vs compiled -----------------------

void BM_LevelizedSim_B14_Interpreted(benchmark::State& state) {
  LevelizedSimulator sim(b14(), SimBackend::kInterpreted);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(b14_tb().vector(t)));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations());  // circuit-cycles/s
}
BENCHMARK(BM_LevelizedSim_B14_Interpreted);

void BM_LevelizedSim_B14_Compiled(benchmark::State& state) {
  LevelizedSimulator sim(b14(), SimBackend::kCompiled);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(b14_tb().vector(t)));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LevelizedSim_B14_Compiled);

void BM_EventSim_B14(benchmark::State& state) {
  EventSimulator sim(b14());
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(b14_tb().vector(t)));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSim_B14);

// ---- lane-parallel engines: 64 vs 256 lanes --------------------------------

void BM_ParallelSim_B14_Compiled(benchmark::State& state) {
  ParallelSimulator sim(b14());
  std::size_t t = 0;
  for (auto _ : state) {
    sim.cycle(b14_tb().vector(t));
    benchmark::DoNotOptimize(sim.node_word(0));
    t = (t + 1) % b14_tb().num_cycles();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ParallelSim_B14_Compiled);

void BM_LaneEngine256_B14(benchmark::State& state) {
  LaneEngine<Word256> sim(compile_kernel(b14()));
  std::size_t t = 0;
  for (auto _ : state) {
    sim.cycle(b14_tb().vector(t));
    benchmark::DoNotOptimize(sim.node_word(0));
    t = (t + 1) % b14_tb().num_cycles();
  }
  // 256 machines per iteration.
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LaneEngine256_B14);

// ---- fault-grading campaigns ------------------------------------------------

void BM_SerialFaultSim_B14(benchmark::State& state) {
  SerialFaultSimulator sim(b14(), b14_tb());
  const auto faults = sample_fault_list(b14().num_dffs(),
                                        b14_tb().num_cycles(), 256, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());  // faults/s
}
BENCHMARK(BM_SerialFaultSim_B14)->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_Compiled(benchmark::State& state) {
  ParallelFaultSimulator sim(
      b14(), b14_tb(), {.lanes = LaneWidth::k64, .num_threads = 1});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_Compiled)->Unit(benchmark::kMillisecond);

// Same campaign on the raw (un-optimized) kernel — the A/B twin that shows
// what the kernel IR optimizer (sim/kernel_opt.h) buys per fault.
CampaignConfig noopt_config(LaneWidth w) {
  CampaignConfig config{.lanes = w, .num_threads = 1};
  config.optimize = false;
  return config;
}

void BM_ParallelFaultSim_B14_CompiledNoOpt(benchmark::State& state) {
  ParallelFaultSimulator sim(b14(), b14_tb(), noopt_config(LaneWidth::k64));
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_CompiledNoOpt)->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_Compiled256(benchmark::State& state) {
  ParallelFaultSimulator sim(
      b14(), b14_tb(), {.lanes = LaneWidth::k256, .num_threads = 1});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_Compiled256)->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_Compiled256NoOpt(benchmark::State& state) {
  ParallelFaultSimulator sim(b14(), b14_tb(), noopt_config(LaneWidth::k256));
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_Compiled256NoOpt)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSim_B14_CompiledSharded(benchmark::State& state) {
  ParallelFaultSimulator sim(
      b14(), b14_tb(), {.lanes = LaneWidth::k256, .num_threads = 0});
  const auto faults =
      complete_fault_list(b14().num_dffs(), b14_tb().num_cycles());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(faults));
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_ParallelFaultSim_B14_CompiledSharded)
    ->Unit(benchmark::kMillisecond);

// ---- netlist transforms -----------------------------------------------------

void BM_Instrument_TimeMux_B14(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(instrument_time_mux(b14()));
  }
}
BENCHMARK(BM_Instrument_TimeMux_B14)->Unit(benchmark::kMillisecond);

void BM_LutMapper_B14(benchmark::State& state) {
  const LutMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(b14()));
  }
  state.SetItemsProcessed(state.iterations() * b14().node_count());
}
BENCHMARK(BM_LutMapper_B14)->Unit(benchmark::kMillisecond);

void BM_LutMapper_TimeMuxInstrumented(benchmark::State& state) {
  const InstrumentedCircuit inst = instrument_time_mux(b14());
  const LutMapper mapper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.map(inst.circuit));
  }
  state.SetItemsProcessed(state.iterations() * inst.circuit.node_count());
}
BENCHMARK(BM_LutMapper_TimeMuxInstrumented)->Unit(benchmark::kMillisecond);

void BM_CompileKernel_B14(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompiledKernel(b14()));
  }
  state.SetItemsProcessed(state.iterations() * b14().node_count());
}
BENCHMARK(BM_CompileKernel_B14);

void BM_RandomCircuitSim(benchmark::State& state) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 8;
  spec.num_dffs = static_cast<std::size_t>(state.range(0));
  spec.num_gates = spec.num_dffs * 16;
  const Circuit circuit = circuits::build_random(spec, 42);
  const Testbench tb = random_testbench(circuit.num_inputs(), 64, 1);
  LevelizedSimulator sim(circuit);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.cycle(tb.vector(t)));
    t = (t + 1) % tb.num_cycles();
  }
  state.SetItemsProcessed(state.iterations() * circuit.num_gates());
}
BENCHMARK(BM_RandomCircuitSim)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
