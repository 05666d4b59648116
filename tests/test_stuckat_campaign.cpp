// Stuck-at fault grading through the generic descriptor path: parity-aware
// fanout-free collapse (reused from SetSites), the every-cycle force
// overlay (op-tagged AND/OR masks), test-pattern classification semantics
// (no convergence retirement; undetected faults map latent/silent by the
// final state) — always cross-checked against the serial per-fault
// reference simulator across lane widths, schedules and thread counts, on
// both sides of the cone-source rule.
//
// Suites named *Slow* are split into the `slow` ctest label by CMake; the
// rest run under `tier1`.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "circuits/registry.h"
#include "fault/fault_list.h"
#include "fault/model_traits.h"
#include "fault/parallel_faultsim.h"
#include "fault/stuckat_model.h"
#include "oracle_side.h"
#include "stim/generate.h"

namespace femu {
namespace {

CampaignConfig stuckat_cone_config(LaneWidth lanes = LaneWidth::k64,
                                   unsigned threads = 1) {
  return {lanes, threads, /*cone_restricted=*/true,
          CampaignSchedule::kConeAffine};
}

CampaignConfig stuckat_full_config(LaneWidth lanes = LaneWidth::k64,
                                   unsigned threads = 1) {
  return {lanes, threads, /*cone_restricted=*/false,
          CampaignSchedule::kCycleMajor};
}

void expect_same_stuckat_outcomes(const StuckAtCampaignResult& a,
                                  const StuckAtCampaignResult& b,
                                  const char* label) {
  ASSERT_EQ(a.faults.size(), b.faults.size()) << label;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    ASSERT_EQ(a.faults[i], b.faults[i]) << label << " fault order @" << i;
    ASSERT_EQ(a.outcomes[i], b.outcomes[i])
        << label << " fault (node=" << a.faults[i].node << ", "
        << stuckat_polarity_name(a.faults[i].stuck_one) << ")";
  }
}

// Grades `faults` under the serial per-fault reference and every
// compiled engine configuration — {64, 256, 512} lanes x {1, 4} threads on
// the cone engine, both non-trivial schedules, plus the full-eval path per
// lane width — and requires identical per-fault outcomes in caller order.
void stuckat_cross_check(const Circuit& circuit, const Testbench& tb,
                         std::span<const StuckAtFault> faults,
                         const char* label) {
  SerialStuckAtSimulator serial(circuit, tb);
  const StuckAtCampaignResult ref = serial.run(faults);

  for (const LaneWidth lanes :
       {LaneWidth::k64, LaneWidth::k256, LaneWidth::k512}) {
    ParallelFaultSimulator full(circuit, tb, stuckat_full_config(lanes));
    expect_same_stuckat_outcomes(ref, full.run_stuckat(faults), label);
    for (const CampaignSchedule schedule :
         {CampaignSchedule::kCycleMajor, CampaignSchedule::kConeAffine}) {
      for (const unsigned threads : {1u, 4u}) {
        CampaignConfig config = stuckat_cone_config(lanes, threads);
        config.schedule = schedule;
        ParallelFaultSimulator cone(circuit, tb, config);
        expect_same_stuckat_outcomes(ref, cone.run_stuckat(faults), label);
      }
    }
  }
}

// ---- descriptor surface ----------------------------------------------------

TEST(StuckAtTraitsTest, DescriptorFlagsAndNames) {
  using Traits = FaultModelTraits<FaultModel::kStuckAt>;
  EXPECT_TRUE(Traits::kUsesOverlay);
  EXPECT_TRUE(Traits::kOverlayEveryCycle);
  EXPECT_FALSE(Traits::kRetireOnConvergence);
  EXPECT_TRUE(Traits::kSiteKeyed);
  EXPECT_EQ(fault_model_name(FaultModel::kStuckAt), "stuckat");
  EXPECT_STREQ(fault_model_descriptor(FaultModel::kStuckAt),
               "stuckat:overlay-force");
  EXPECT_STREQ(overlay_op_name(fault_model_overlay_op(FaultModel::kStuckAt)),
               "and-or");
  // Every fault "injects" at cycle 0 — the permanent-fault schedule key.
  EXPECT_EQ(Traits::cycle(StuckAtFault{3, true}), 0u);
}

TEST(StuckAtTraitsTest, OverlayForceMasksImplementAndOr) {
  // The op-tagged overlay lowering: stuck-at-0 is an AND with ~m (keep
  // clears the lane, flip leaves it 0), stuck-at-1 an OR (keep clears,
  // flip sets). Check through the masked-update identity on u64 words.
  const std::uint64_t lane = LaneTraits<std::uint64_t>::lane_bit(5);
  const auto sa0 = CompiledKernel::overlay_force<std::uint64_t>(7, lane,
                                                                false);
  const auto sa1 = CompiledKernel::overlay_force<std::uint64_t>(7, lane,
                                                                true);
  const auto set = CompiledKernel::overlay_xor<std::uint64_t>(7, lane);
  const std::uint64_t value = 0xdeadbeefdeadbeefULL;
  EXPECT_EQ((value & sa0.keep) ^ sa0.flip, value & ~lane);
  EXPECT_EQ((value & sa1.keep) ^ sa1.flip, value | lane);
  EXPECT_EQ((value & set.keep) ^ set.flip, value ^ lane);
}

// ---- parity-aware collapse -------------------------------------------------

TEST(StuckAtCollapseTest, NotChainTranslatesPolarity) {
  // a -> NOT n1 -> NOT n2 -> BUF n3 -> DFF: n1 and n2 collapse onto n3 (all
  // single-reader inversion-transparent links); the parity from n1 to n3 is
  // odd (one NOT between them: n2's cell), from n2 even... the chain parity
  // counts the inverting *consumers* on the way to the representative.
  Circuit c("not_chain");
  const NodeId a = c.add_input("a");
  const NodeId r = c.add_dff("r");
  const NodeId n1 = c.add_not(a);
  const NodeId n2 = c.add_not(n1);
  const NodeId n3 = c.add_buf(n2);
  c.connect_dff(r, n3);
  c.add_output("o", r);
  const SetSites sites(c);
  EXPECT_EQ(sites.representative(n1), n3);
  EXPECT_EQ(sites.representative(n2), n3);
  EXPECT_EQ(sites.representative(n3), n3);
  // n2's sole reader n3 is a BUF, n1's sole reader n2 a NOT: parity(n2) =
  // parity through BUF = even; parity(n1) = NOT then n2's parity = odd.
  EXPECT_FALSE(sites.rep_inverted(n3));
  EXPECT_FALSE(sites.rep_inverted(n2));
  EXPECT_TRUE(sites.rep_inverted(n1));
}

TEST(StuckAtCollapseTest, CollapsedClassesGradeIdenticallyUnderParity) {
  // The collapse soundness property for a polarity-carrying model, checked
  // behaviourally: stuck-at-v at any site must grade exactly like
  // stuck-at-(v ^ parity) at its representative (the serial reference
  // knows nothing about the collapse).
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 3;
  spec.num_dffs = 10;
  spec.num_gates = 120;
  const Circuit c = circuits::build_random(spec, 21);
  const Testbench tb = random_testbench(spec.num_inputs, 20, 22);
  const SetSites sites(c);
  const auto faults = complete_stuckat_fault_list(sites, /*collapsed=*/false);
  SerialStuckAtSimulator serial(c, tb);
  const StuckAtCampaignResult result = serial.run(faults);
  std::map<std::pair<NodeId, bool>, FaultOutcome> rep_outcome;
  for (std::size_t i = 0; i < result.faults.size(); ++i) {
    const StuckAtFault& f = result.faults[i];
    const auto key = std::pair{sites.representative(f.node),
                               f.stuck_one != sites.rep_inverted(f.node)};
    const auto [it, inserted] = rep_outcome.emplace(key, result.outcomes[i]);
    EXPECT_EQ(it->second, result.outcomes[i])
        << "site " << f.node << " " << stuckat_polarity_name(f.stuck_one)
        << " and representative " << it->first.first << " "
        << stuckat_polarity_name(it->first.second)
        << " grade differently";
  }
}

TEST(StuckAtCollapseTest, ExpansionMatchesUncollapsedCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 4;
  spec.num_outputs = 3;
  spec.num_dffs = 8;
  spec.num_gates = 90;
  const Circuit c = circuits::build_random(spec, 31);
  const Testbench tb = random_testbench(spec.num_inputs, 16, 32);
  const SetSites sites(c);

  ParallelFaultSimulator sim(c, tb, stuckat_cone_config());
  const auto rep_faults = complete_stuckat_fault_list(sites);
  const StuckAtCampaignResult expanded =
      expand_collapsed_stuckat_result(sites, sim.run_stuckat(rep_faults));

  const auto all_faults = complete_stuckat_fault_list(sites,
                                                      /*collapsed=*/false);
  const StuckAtCampaignResult full = sim.run_stuckat(all_faults);

  ASSERT_EQ(expanded.faults.size(), full.faults.size());
  std::map<std::pair<NodeId, bool>, FaultOutcome> by_fault;
  for (std::size_t i = 0; i < expanded.faults.size(); ++i) {
    by_fault[{expanded.faults[i].node, expanded.faults[i].stuck_one}] =
        expanded.outcomes[i];
  }
  for (std::size_t i = 0; i < full.faults.size(); ++i) {
    const auto it =
        by_fault.find({full.faults[i].node, full.faults[i].stuck_one});
    ASSERT_NE(it, by_fault.end());
    EXPECT_EQ(it->second, full.outcomes[i]);
  }
  EXPECT_EQ(expanded.counts.failure, full.counts.failure);
  EXPECT_EQ(expanded.counts.latent, full.counts.latent);
  EXPECT_EQ(expanded.counts.silent, full.counts.silent);
}

// ---- classification semantics ----------------------------------------------

TEST(StuckAtSemanticsTest, UnexcitedFaultIsSilentAndRedundantGateMasked) {
  // A gate stuck at a value its golden output always has is never excited
  // -> silent; a gate whose only reader ANDs with constant 0 is always
  // masked -> silent for both polarities.
  Circuit c("stuckat_edge");
  const NodeId a = c.add_input("a");
  const NodeId one = c.add_const(true);
  const NodeId zero = c.add_const(false);
  const NodeId always1 = c.add_or(a, one);    // golden constant 1
  c.add_output("o1", always1);
  const NodeId masked = c.add_xor(a, a);      // only reader ANDs with 0
  const NodeId gate0 = c.add_and(masked, zero);
  c.add_output("o2", gate0);
  const Testbench tb = random_testbench(c.num_inputs(), 12, 3);

  ParallelFaultSimulator sim(c, tb, stuckat_cone_config());
  const std::vector<StuckAtFault> faults = {
      {always1, true},   // forcing 1 onto a constant-1 output: unexcited
      {masked, false},   // masked by the AND-0 reader
      {masked, true},
      {always1, false},  // forcing 0 onto a PO driver: detected cycle 0
  };
  stuckat_cross_check(c, tb, faults, "stuckat-edge");
  const StuckAtCampaignResult result = sim.run_stuckat(faults);
  EXPECT_EQ(result.outcomes[0].cls, FaultClass::kSilent);
  EXPECT_EQ(result.outcomes[1].cls, FaultClass::kSilent);
  EXPECT_EQ(result.outcomes[2].cls, FaultClass::kSilent);
  EXPECT_EQ(result.outcomes[3].cls, FaultClass::kFailure);
  EXPECT_EQ(result.outcomes[3].detect_cycle, 0u);
  // Silent permanent faults never "converge" — the fault does not go away.
  EXPECT_EQ(result.outcomes[0].converge_cycle, kNoCycle);
  EXPECT_DOUBLE_EQ(result.fault_coverage(), 0.25);
}

TEST(StuckAtSemanticsTest, ReExcitationIsNotLostToConvergence) {
  // A stuck-at whose effect is latched, flushed back to golden, and only
  // later observed must still grade failure: state re-convergence must NOT
  // retire a permanent fault (the transient models' early-exit rule would
  // misgrade this circuit). sel gates the faulty value into the output
  // path only when high; between excitations the machine state returns to
  // golden whenever sel-driven history flushes.
  Circuit c("reexcite");
  const NodeId sel = c.add_input("sel");
  const NodeId x = c.add_input("x");
  const NodeId r = c.add_dff("r");
  const NodeId vict = c.add_and(x, x);        // victim site (value == x)
  const NodeId gated = c.add_and(vict, sel);  // excite only when sel
  c.connect_dff(r, gated);
  c.add_output("o", r);
  // Hand-built stimulus: sel low for a stretch (state golden regardless of
  // the fault), then sel high with x=1 (stuck-at-0 on vict latches a wrong
  // 0... golden latches 1) -> observed one cycle later.
  Testbench tb(2);
  const auto vec = [](bool sel_v, bool x_v) {
    BitVec v(2);
    v.set(0, sel_v);
    v.set(1, x_v);
    return v;
  };
  for (int i = 0; i < 4; ++i) tb.add_vector(vec(false, true));
  tb.add_vector(vec(true, true));   // excitation latches at edge
  tb.add_vector(vec(false, true));  // wrong r observed at the PO
  tb.add_vector(vec(false, true));

  const std::vector<StuckAtFault> faults = {{vict, false}};
  stuckat_cross_check(c, tb, faults, "re-excitation");
  ParallelFaultSimulator sim(c, tb, stuckat_cone_config());
  const StuckAtCampaignResult result = sim.run_stuckat(faults);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].cls, FaultClass::kFailure);
  EXPECT_EQ(result.outcomes[0].detect_cycle, 5u);
}

// ---- cross-validation at scale ---------------------------------------------

class StuckAtCampaignAgreement
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StuckAtCampaignAgreement, RandomCircuitCompleteRepCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 14;
  spec.num_gates = 180;
  const Circuit c = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 24, GetParam() + 5);
  const SetSites sites(c);
  const auto faults = complete_stuckat_fault_list(sites);
  stuckat_cross_check(c, tb, faults, "complete-rep-campaign");
}

INSTANTIATE_TEST_SUITE_P(Seeds, StuckAtCampaignAgreement,
                         ::testing::Range<std::uint64_t>(0, 3));

TEST(StuckAtCampaignTest, OracleSideSampledCampaignAgrees) {
  // Past the greedy FF cap the engine derives cones through the oracle and
  // ranks sites by anchor.
  const Circuit c = oracle_side_circuit();
  const Testbench tb = random_testbench(c.num_inputs(), 20, 43);
  const SetSites sites(c);
  const auto faults = sample_stuckat_fault_list(sites, 1500, 44);
  SerialStuckAtSimulator serial(c, tb);
  const StuckAtCampaignResult ref = serial.run(faults);
  for_each_oracle_side_engine(
      c, tb, [&](ParallelFaultSimulator& sim, const std::string& label) {
        expect_same_stuckat_outcomes(ref, sim.run_stuckat(faults),
                                     label.c_str());
      });
}

TEST(StuckAtCampaignTest, ShuffledOrderAlignsWithCaller) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 20, 9);
  ParallelFaultSimulator sim(c, tb, stuckat_cone_config());
  EXPECT_EQ(sim.run_stuckat({}).counts.total(), 0u);

  const SetSites sites(c);
  auto faults = complete_stuckat_fault_list(sites);
  std::mt19937_64 rng(99);
  std::shuffle(faults.begin(), faults.end(), rng);
  stuckat_cross_check(c, tb, faults, "shuffled-stuckat");
}

TEST(UnifiedCampaignTest, OneConfigDrivesAllFourModels) {
  // One simulator instance, one config: SEU, MBU, SET and stuck-at
  // campaigns all run through the same descriptor-instantiated engine and
  // report through the same outcome shape.
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 17);
  ParallelFaultSimulator sim(c, tb, stuckat_cone_config(LaneWidth::k64, 2));

  const auto seu = sim.run(complete_fault_list(c.num_dffs(), 8));
  EXPECT_EQ(seu.counts().total(), c.num_dffs() * 8);

  const auto mbu = sim.run_mbu(adjacent_pair_fault_list(c.num_dffs(), 8));
  EXPECT_EQ(mbu.counts.total(), (c.num_dffs() - 1) * 8);

  const SetSites sites(c);
  const auto set = sim.run_set(complete_set_fault_list(sites, 8));
  EXPECT_EQ(set.counts.total(), sites.num_representatives() * 8);

  const auto stuckat = sim.run_stuckat(complete_stuckat_fault_list(sites));
  EXPECT_EQ(stuckat.counts.total(), sites.num_representatives() * 2);
}

// ---- b14 (slow label) ------------------------------------------------------

TEST(StuckAtCampaignSlowTest, B14SampledCampaignAgreesEverywhere) {
  // The acceptance cross-check: a sampled b14 stuck-at campaign must
  // produce identical per-fault outcomes across the serial reference
  // and every compiled configuration (lane widths, cone policies,
  // schedules, thread counts).
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 48, 2005);
  const SetSites sites(c);
  const auto faults = sample_stuckat_fault_list(sites, 160, 7);
  stuckat_cross_check(c, tb, faults, "b14-sampled-stuckat");
}

TEST(StuckAtCampaignSlowTest, B14ThreadedDeterminismAndCoverage) {
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 60, 2005);
  const SetSites sites(c);
  const auto faults = complete_stuckat_fault_list(sites);

  ParallelFaultSimulator single(c, tb, stuckat_cone_config(LaneWidth::k64, 1));
  const StuckAtCampaignResult base = single.run_stuckat(faults);
  // 60 purely random vectors reach only a modest slice of b14's control
  // logic (~26% coverage) — the floor guards against broken
  // excitation/observation, not against weak patterns.
  EXPECT_GT(base.fault_coverage(), 0.15);
  EXPECT_LT(base.fault_coverage(), 0.9);

  for (const unsigned threads : {2u, 8u}) {
    ParallelFaultSimulator sharded(
        c, tb, stuckat_cone_config(LaneWidth::k64, threads));
    expect_same_stuckat_outcomes(base, sharded.run_stuckat(faults),
                                 "threaded-stuckat");
    EXPECT_EQ(single.last_run_eval_cycles(), sharded.last_run_eval_cycles());
    EXPECT_EQ(single.last_run_eval_instrs(), sharded.last_run_eval_instrs());
    EXPECT_EQ(single.last_run_narrowings(), sharded.last_run_narrowings());
  }

  ParallelFaultSimulator full(c, tb, stuckat_full_config());
  const StuckAtCampaignResult full_result = full.run_stuckat(faults);
  expect_same_stuckat_outcomes(base, full_result, "stuckat-instr-reduction");
  EXPECT_LT(single.last_run_eval_instrs(), full.last_run_eval_instrs());
}

}  // namespace
}  // namespace femu
