// Integration tests for the autonomous-emulation stack: the literal engine
// (gate-level execution of the instrumented netlist under the controller
// protocol) must agree with the fast path (parallel fault simulation + the
// analytic cycle model) on both classifications and cycle counts. This
// agreement is what licenses running b14-scale campaigns on the fast path.

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/registry.h"
#include "circuits/small.h"
#include "core/autonomous_emulator.h"
#include "core/cycle_model.h"
#include "core/literal_engine.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "stim/generate.h"

namespace femu {
namespace {

struct Workload {
  std::string circuit_name;
  std::size_t cycles;
  std::uint64_t seed;
};

std::vector<Workload> agreement_workloads() {
  return {
      {"b01_like", 24, 1},  {"b02_like", 32, 2},  {"b06_like", 20, 3},
      {"b09_like", 40, 4},  {"b03_like", 16, 5},  {"counter16", 24, 6},
      {"lfsr32", 20, 7},    {"pipe4x16", 18, 8},
  };
}

class EngineAgreement
    : public ::testing::TestWithParam<std::tuple<Workload, Technique>> {};

TEST_P(EngineAgreement, LiteralMatchesFastPath) {
  const auto& [workload, technique] = GetParam();
  const Circuit circuit = circuits::build_by_name(workload.circuit_name);
  const Testbench tb = random_testbench(circuit.num_inputs(), workload.cycles,
                                        workload.seed);
  const auto faults =
      complete_fault_list(circuit.num_dffs(), tb.num_cycles());

  // Fast path: bit-parallel fault simulation + analytic controller account.
  ParallelFaultSimulator fast(circuit, tb);
  const CampaignResult fast_result = fast.run(faults);
  const CycleModelParams params{circuit.num_dffs(), tb.num_cycles(), 32};
  const CampaignCycles fast_cycles = campaign_cycles(
      technique, params, faults, fast_result.outcomes());

  // Literal path: clock the instrumented netlist.
  LiteralEngine literal(circuit, tb, technique);
  const LiteralEngine::Result lit = literal.run(faults);

  ASSERT_EQ(lit.grading.size(), fast_result.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultOutcome& a = lit.grading.outcomes()[i];
    const FaultOutcome& b = fast_result.outcomes()[i];
    ASSERT_EQ(a.cls, b.cls)
        << "fault (ff=" << faults[i].ff_index << ", c=" << faults[i].cycle
        << ") classified " << fault_class_name(a.cls) << " by literal, "
        << fault_class_name(b.cls) << " by fast path";
    if (a.cls == FaultClass::kFailure) {
      ASSERT_EQ(a.detect_cycle, b.detect_cycle)
          << "fault (ff=" << faults[i].ff_index << ", c=" << faults[i].cycle
          << ")";
    }
    // The literal mask-scan/state-scan controllers cannot observe the
    // convergence instant (only time-mux can), so compare it there only.
    if (technique == Technique::kTimeMux && a.cls == FaultClass::kSilent) {
      ASSERT_EQ(a.converge_cycle, b.converge_cycle)
          << "fault (ff=" << faults[i].ff_index << ", c=" << faults[i].cycle
          << ")";
    }
  }

  EXPECT_EQ(lit.cycles.setup_cycles, fast_cycles.setup_cycles);
  EXPECT_EQ(lit.cycles.fault_cycles, fast_cycles.fault_cycles);
}

std::string agreement_name(
    const ::testing::TestParamInfo<std::tuple<Workload, Technique>>& info) {
  const auto& [workload, technique] = info.param;
  std::string name = workload.circuit_name + "_";
  switch (technique) {
    case Technique::kMaskScan: name += "maskscan"; break;
    case Technique::kStateScan: name += "statescan"; break;
    case Technique::kTimeMux: name += "timemux"; break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCircuitsAllTechniques, EngineAgreement,
    ::testing::Combine(::testing::ValuesIn(agreement_workloads()),
                       ::testing::ValuesIn({Technique::kMaskScan,
                                            Technique::kStateScan,
                                            Technique::kTimeMux})),
    agreement_name);

// Serial and parallel fault simulation agree exactly (including the event
// cycles) — the fast path rests on the parallel engine.
TEST(EngineAgreement, SerialMatchesParallel) {
  const Circuit circuit = circuits::build_b09_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 48, 99);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());

  SerialFaultSimulator serial(circuit, tb);
  ParallelFaultSimulator parallel(circuit, tb);
  const CampaignResult a = serial.run(faults);
  const CampaignResult b = parallel.run(faults);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.outcomes()[i], b.outcomes()[i]) << "fault index " << i;
  }
}

// The three techniques grade every fault identically — they differ only in
// time and area. This is the paper's implicit soundness requirement.
TEST(EngineAgreement, TechniquesAgreeOnClassification) {
  const Circuit circuit = circuits::build_b06_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 30, 17);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());

  std::vector<CampaignResult> gradings;
  for (const Technique technique : kAllTechniques) {
    LiteralEngine engine(circuit, tb, technique);
    gradings.push_back(engine.run(faults).grading);
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(gradings[0].outcomes()[i].cls, gradings[1].outcomes()[i].cls);
    EXPECT_EQ(gradings[0].outcomes()[i].cls, gradings[2].outcomes()[i].cls);
  }
}

// AutonomousEmulator end-to-end sanity on a small circuit.
TEST(AutonomousEmulatorTest, ReportIsConsistent) {
  const Circuit circuit = circuits::build_b03_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 40, 5);
  AutonomousEmulator emulator(circuit, tb);

  for (const Technique technique : kAllTechniques) {
    const EmulationReport report = emulator.run_complete(technique);
    EXPECT_EQ(report.grading.size(),
              circuit.num_dffs() * tb.num_cycles());
    EXPECT_EQ(report.grading.counts().total(), report.grading.size());
    EXPECT_GT(report.cycles.total(), 0u);
    EXPECT_NEAR(report.emulation_seconds,
                static_cast<double>(report.cycles.total()) / 25e6, 1e-12);
    ASSERT_TRUE(report.area.has_value());
    EXPECT_GT(report.area->instrumented.num_luts,
              report.area->original.num_luts);
    EXPECT_GT(report.area->instrumented.num_ffs,
              report.area->original.num_ffs);
    EXPECT_TRUE(report.fit.fits);
  }
}

// One grading for several techniques must equal grading once per technique:
// same outcomes, same cycle account and same area for each technique.
TEST(AutonomousEmulatorTest, MultiTechniqueRunMatchesPerTechniqueRuns) {
  const Circuit circuit = circuits::build_b03_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 40, 9);
  const auto faults =
      sample_fault_list(circuit.num_dffs(), tb.num_cycles(), 300, 4);
  AutonomousEmulator emulator(circuit, tb);

  const std::vector<Technique> techniques(kAllTechniques.begin(),
                                          kAllTechniques.end());
  const std::vector<EmulationReport> reports =
      emulator.run(techniques, faults);
  ASSERT_EQ(reports.size(), techniques.size());
  for (std::size_t i = 0; i < techniques.size(); ++i) {
    const EmulationReport single = emulator.run(techniques[i], faults);
    const EmulationReport& multi = reports[i];
    EXPECT_EQ(multi.technique, techniques[i]);
    EXPECT_EQ(multi.grading.outcomes(), single.grading.outcomes());
    EXPECT_EQ(multi.cycles.setup_cycles, single.cycles.setup_cycles);
    EXPECT_EQ(multi.cycles.fault_cycles, single.cycles.fault_cycles);
    EXPECT_DOUBLE_EQ(multi.emulation_seconds, single.emulation_seconds);
    ASSERT_TRUE(multi.area.has_value() && single.area.has_value());
    EXPECT_EQ(multi.area->system().luts, single.area->system().luts);
    EXPECT_EQ(multi.area->system().ffs, single.area->system().ffs);
  }
}

// Time-mux must be the fastest technique (the paper's headline claim) on a
// workload big enough to be representative.
TEST(AutonomousEmulatorTest, TimeMuxIsFastest) {
  const Circuit circuit = circuits::build_b09_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 64, 11);
  EmulatorOptions options;
  options.compute_area = false;
  AutonomousEmulator emulator(circuit, tb, options);

  const auto mask = emulator.run_complete(Technique::kMaskScan);
  const auto state = emulator.run_complete(Technique::kStateScan);
  const auto timemux = emulator.run_complete(Technique::kTimeMux);
  EXPECT_LT(timemux.cycles.total(), mask.cycles.total());
  EXPECT_LT(timemux.cycles.total(), state.cycles.total());
}

// State-scan beats mask-scan when the testbench is much longer than the FF
// count, and loses when it is much shorter (the paper's crossover claim).
TEST(AutonomousEmulatorTest, StateScanCrossover) {
  const Circuit circuit = circuits::build_pipeline(8, 16);  // 128 FFs
  EmulatorOptions options;
  options.compute_area = false;

  const Testbench short_tb = random_testbench(circuit.num_inputs(), 16, 3);
  AutonomousEmulator short_emulator(circuit, short_tb, options);
  EXPECT_LT(short_emulator.run_complete(Technique::kMaskScan).cycles.total(),
            short_emulator.run_complete(Technique::kStateScan).cycles.total());

  const Testbench long_tb = random_testbench(circuit.num_inputs(), 1024, 3);
  AutonomousEmulator long_emulator(circuit, long_tb, options);
  EXPECT_GT(long_emulator.run_complete(Technique::kMaskScan).cycles.total(),
            long_emulator.run_complete(Technique::kStateScan).cycles.total());
}

}  // namespace
}  // namespace femu
