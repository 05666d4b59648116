// Multi-bit upset extension: list generators, engine agreement with
// composed single-bit semantics, and the classic TMR-defeat result.

#include "fault/mbu.h"

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/small.h"
#include "common/error.h"
#include "core/mbu_emulation.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "harden/tmr.h"
#include "sim/event_sim.h"
#include "stim/generate.h"

namespace femu {
namespace {

TEST(MbuListTest, AdjacentPairsCoverSchedule) {
  const auto faults = adjacent_pair_fault_list(5, 3);
  ASSERT_EQ(faults.size(), 4u * 3u);
  EXPECT_EQ(faults[0].ff_indices, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(faults[0].cycle, 0u);
  EXPECT_EQ(faults.back().ff_indices, (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(faults.back().cycle, 2u);
}

TEST(MbuListTest, RandomClustersRespectShape) {
  const auto faults = random_cluster_fault_list(30, 20, 3, 8, 100, 5);
  ASSERT_EQ(faults.size(), 100u);
  std::uint32_t prev_cycle = 0;
  for (const MbuFault& fault : faults) {
    EXPECT_EQ(fault.ff_indices.size(), 3u);
    EXPECT_LT(fault.cycle, 20u);
    EXPECT_GE(fault.cycle, prev_cycle);  // schedule-sorted
    prev_cycle = fault.cycle;
    // Distinct, sorted, within a window of 8.
    for (std::size_t i = 1; i < fault.ff_indices.size(); ++i) {
      EXPECT_LT(fault.ff_indices[i - 1], fault.ff_indices[i]);
    }
    EXPECT_LE(fault.ff_indices.back() - fault.ff_indices.front(), 8u);
  }
  // Deterministic per seed.
  const auto again = random_cluster_fault_list(30, 20, 3, 8, 100, 5);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].ff_indices, again[i].ff_indices);
    EXPECT_EQ(faults[i].cycle, again[i].cycle);
  }
}

TEST(MbuListTest, BadParametersThrow) {
  EXPECT_THROW(adjacent_pair_fault_list(1, 4), Error);
  EXPECT_THROW(random_cluster_fault_list(10, 4, 11, 12, 5, 1), Error);
  EXPECT_THROW(random_cluster_fault_list(10, 4, 3, 2, 5, 1), Error);
}

TEST(MbuEngineTest, SingleBitClustersMatchSeuEngine) {
  // Cluster size 1 must reproduce the single-SEU engine exactly.
  const Circuit circuit = circuits::build_b09_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 32, 3);

  const auto seu = complete_fault_list(circuit.num_dffs(), tb.num_cycles());
  std::vector<MbuFault> mbu;
  for (const Fault& fault : seu) {
    mbu.push_back(MbuFault{{fault.ff_index}, fault.cycle});
  }

  ParallelFaultSimulator seu_sim(circuit, tb);
  MbuFaultSimulator mbu_sim(circuit, tb);
  const CampaignResult a = seu_sim.run(seu);
  const MbuCampaignResult b = mbu_sim.run(mbu);
  ASSERT_EQ(a.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.outcomes()[i], b.outcomes[i]) << "fault " << i;
  }
}

TEST(MbuEngineTest, MatchesSerialReferenceOnPairs) {
  // Reference: event simulator with both bits flipped by hand.
  const Circuit circuit = circuits::build_b06_like();
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 7);
  const auto faults =
      adjacent_pair_fault_list(circuit.num_dffs(), tb.num_cycles());

  MbuFaultSimulator engine(circuit, tb);
  const MbuCampaignResult result = engine.run(faults);

  EventSimulator sim(circuit);
  const GoldenTrace& golden = engine.golden();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const MbuFault& fault = faults[i];
    sim.set_state(golden.states[fault.cycle]);
    for (const std::uint32_t ff : fault.ff_indices) {
      sim.flip_state_bit(ff);
    }
    FaultOutcome expected{FaultClass::kLatent, kNoCycle, kNoCycle};
    for (std::size_t t = fault.cycle; t < tb.num_cycles(); ++t) {
      if (sim.eval(tb.vector(t)) != golden.outputs[t]) {
        expected.cls = FaultClass::kFailure;
        expected.detect_cycle = static_cast<std::uint32_t>(t);
        break;
      }
      sim.step();
      if (sim.state() == golden.states[t + 1]) {
        expected.cls = FaultClass::kSilent;
        expected.converge_cycle = static_cast<std::uint32_t>(t + 1);
        break;
      }
    }
    ASSERT_EQ(result.outcomes[i], expected) << "MBU " << i;
  }
}

TEST(MbuEngineTest, AdjacentDoubleUpsetsDefeatTmr) {
  // The classic result: TMR masks every single SEU, but our TMR layout puts
  // the three replicas at adjacent indices, so an adjacent double upset can
  // corrupt two replicas of the same original FF and outvote the third.
  const Circuit original = circuits::build_b06_like();
  const harden::TmrResult hardened = harden::apply_tmr(original);
  const Testbench tb = random_testbench(original.num_inputs(), 24, 9);

  // Single SEUs: fully masked.
  ParallelFaultSimulator seu_sim(hardened.circuit, tb);
  const auto seu =
      complete_fault_list(hardened.circuit.num_dffs(), tb.num_cycles());
  EXPECT_EQ(seu_sim.run(seu).counts().failure, 0u);

  // Adjacent double upsets: replicas (3i, 3i+1) and (3i+1, 3i+2) hit the
  // same original FF; failures must reappear.
  MbuFaultSimulator mbu_sim(hardened.circuit, tb);
  const auto pairs =
      adjacent_pair_fault_list(hardened.circuit.num_dffs(), tb.num_cycles());
  const MbuCampaignResult result = mbu_sim.run(pairs);
  EXPECT_GT(result.counts.failure, 0u);

  // And every pair straddling two DIFFERENT original FFs (3i+2, 3i+3) is
  // still masked — each replica group retains a 2/3 majority.
  std::size_t straddle_failures = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].ff_indices[0] % 3 == 2 &&
        result.outcomes[i].cls == FaultClass::kFailure) {
      ++straddle_failures;
    }
  }
  EXPECT_EQ(straddle_failures, 0u);
}

TEST(MbuEmulationTest, CycleAccountFormulas) {
  const CycleModelParams params{/*num_ffs=*/10, /*num_cycles=*/100, 32};
  const std::vector<MbuFault> faults = {MbuFault{{2, 3}, 30}};

  // failure at cycle 45.
  const std::vector<FaultOutcome> fail = {
      {FaultClass::kFailure, 45, kNoCycle}};
  EXPECT_EQ(mbu_campaign_cycles(Technique::kMaskScan, params, faults, fail)
                .fault_cycles,
            10u + 1u + 46u);  // mask reload + init + prefix replay
  EXPECT_EQ(mbu_campaign_cycles(Technique::kStateScan, params, faults, fail)
                .fault_cycles,
            2u + 10u + 16u);  // unchanged vs single-SEU accounting
  EXPECT_EQ(mbu_campaign_cycles(Technique::kTimeMux, params, faults, fail)
                .fault_cycles,
            10u + 1u + 2u * 16u);

  // silent at cycle 33.
  const std::vector<FaultOutcome> silent = {
      {FaultClass::kSilent, kNoCycle, 33}};
  EXPECT_EQ(mbu_campaign_cycles(Technique::kTimeMux, params, faults, silent)
                .fault_cycles,
            10u + 1u + 2u * 3u);

  // setup terms.
  EXPECT_EQ(mbu_campaign_cycles(Technique::kMaskScan, params, faults, fail)
                .setup_cycles,
            100u);
  EXPECT_EQ(mbu_campaign_cycles(Technique::kStateScan, params, faults, fail)
                .setup_cycles,
            100u + 1u + 11u);  // golden + prep(1 image) + drain
  EXPECT_EQ(mbu_campaign_cycles(Technique::kTimeMux, params, faults, fail)
                .setup_cycles,
            3u * 30u);
}

TEST(MbuEmulationTest, RankingInvertsOnB14ShapedCampaigns) {
  // With N_ff > T, mask-scan's N-cycle mask reload makes it slower than
  // state-scan for MBUs — the opposite of the paper's single-SEU Table 2.
  const CycleModelParams params{/*num_ffs=*/215, /*num_cycles=*/160, 32};
  std::vector<MbuFault> faults;
  std::vector<FaultOutcome> outcomes;
  for (std::uint32_t c = 0; c < 160; c += 2) {
    faults.push_back(MbuFault{{5, 6}, c});
    outcomes.push_back(c % 4 == 0
                           ? FaultOutcome{FaultClass::kFailure,
                                          std::min(c + 4, 159u), kNoCycle}
                           : FaultOutcome{FaultClass::kSilent, kNoCycle,
                                          c + 3});
  }
  const auto mask =
      mbu_campaign_cycles(Technique::kMaskScan, params, faults, outcomes);
  const auto state =
      mbu_campaign_cycles(Technique::kStateScan, params, faults, outcomes);
  const auto timemux =
      mbu_campaign_cycles(Technique::kTimeMux, params, faults, outcomes);
  EXPECT_LT(state.total(), mask.total());    // inverted vs Table 2
  EXPECT_LT(timemux.total(), mask.total());  // time-mux still beats mask-scan
}

TEST(MbuUnifiedEngineTest, MatchesDedicatedMbuSimulatorEverywhere) {
  // ParallelFaultSimulator::run_mbu (the unified sharded/scheduled/cone
  // engine) must reproduce the dedicated MbuFaultSimulator reference
  // per-fault, for every lane width, evaluation mode, schedule and thread
  // count.
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 18;
  spec.num_gates = 200;
  const Circuit c = circuits::build_random(spec, 77);
  const Testbench tb = random_testbench(spec.num_inputs, 32, 78);
  auto faults = random_cluster_fault_list(spec.num_dffs, tb.num_cycles(), 3,
                                          6, 500, 79);
  for (std::uint32_t ff = 0; ff + 1 < spec.num_dffs; ++ff) {
    faults.push_back(MbuFault{{ff, ff + 1}, 0});  // plus adjacent pairs at 0
  }

  MbuFaultSimulator reference(c, tb);
  const MbuCampaignResult ref = reference.run(faults);

  const auto check = [&](CampaignConfig config, const char* label) {
    ParallelFaultSimulator sim(c, tb, config);
    const MbuCampaignResult got = sim.run_mbu(faults);
    ASSERT_EQ(got.outcomes.size(), ref.outcomes.size()) << label;
    for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
      ASSERT_EQ(got.outcomes[i], ref.outcomes[i])
          << label << " MBU @" << i << " (cycle " << faults[i].cycle << ")";
    }
  };
  for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k256}) {
    for (const bool cone : {false, true}) {
      for (const unsigned threads : {1u, 4u}) {
        check({.lanes = lanes,
               .num_threads = threads,
               .cone_restricted = cone,
               .schedule = cone ? CampaignSchedule::kConeAffine
                                : CampaignSchedule::kCycleMajor},
              cone ? "compiled-cone" : "compiled-full");
      }
    }
  }
}

}  // namespace
}  // namespace femu
