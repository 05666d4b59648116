// Cone-restricted differential campaign engine: fanout-cone extraction,
// golden slot trace, sub-program derivation, scheduling permutations and
// campaign edge cases — always cross-checked against the full-eval path and
// the serial per-fault reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "circuits/generators.h"
#include "circuits/registry.h"
#include "circuits/small.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "netlist/fanout_cones.h"
#include "sim/golden_slots.h"
#include "stim/generate.h"

namespace femu {
namespace {

CampaignConfig cone_config(LaneWidth lanes = LaneWidth::k64,
                           unsigned threads = 1) {
  return {.lanes = lanes,
          .num_threads = threads,
          .cone_restricted = true,
          .schedule = CampaignSchedule::kConeAffine};
}

CampaignConfig full_config(LaneWidth lanes = LaneWidth::k64,
                           unsigned threads = 1) {
  return {.lanes = lanes,
          .num_threads = threads,
          .cone_restricted = false,
          .schedule = CampaignSchedule::kCycleMajor};
}

void expect_same_outcomes(const CampaignResult& a, const CampaignResult& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.faults()[i], b.faults()[i]) << label << " fault order @" << i;
    ASSERT_EQ(a.outcomes()[i], b.outcomes()[i])
        << label << " fault (ff=" << a.faults()[i].ff_index
        << ", c=" << a.faults()[i].cycle << ")";
  }
}

// Grades `faults` under the serial reference, full-eval and cone-restricted
// configurations (64 and 256 lanes, cycle-major and cone-affine schedules)
// and requires identical per-fault outcomes in caller order.
void cross_check(const Circuit& circuit, const Testbench& tb,
                 std::span<const Fault> faults, const char* label) {
  SerialFaultSimulator serial(circuit, tb);
  const CampaignResult ref = serial.run(faults);

  ParallelFaultSimulator full64(circuit, tb, full_config());
  expect_same_outcomes(ref, full64.run(faults), label);

  for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k256}) {
    ParallelFaultSimulator cone(circuit, tb, cone_config(lanes));
    expect_same_outcomes(ref, cone.run(faults), label);
    CampaignConfig cyc = cone_config(lanes);
    cyc.schedule = CampaignSchedule::kCycleMajor;
    ParallelFaultSimulator cone_cyc(circuit, tb, cyc);
    expect_same_outcomes(ref, cone_cyc.run(faults), label);
  }
}

// ---- fanout cones ----------------------------------------------------------

TEST(FanoutConesTest, ShiftRegisterConesAreSuffixes) {
  // FF i of a shift register feeds FF i+1; its cone is itself plus every
  // downstream FF (closed across clock edges) plus the output buffer chain.
  const Circuit c = circuits::build_shift_register(6);
  const FanoutCones cones(c);
  ASSERT_EQ(cones.num_ffs(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto cone = cones.cone(i);
    EXPECT_TRUE(FanoutCones::test(cone, c.dffs()[i]));
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(FanoutCones::test(cone, c.dffs()[j]), j >= i)
          << "cone(" << i << ") vs FF " << j;
    }
  }
}

TEST(FanoutConesTest, ConeIsClosedUnderMembership) {
  // Closure: the cone of any FF inside a cone is a subset of that cone —
  // the invariant the narrowing logic relies on.
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 16;
  spec.num_gates = 150;
  const Circuit c = circuits::build_random(spec, 42);
  const FanoutCones cones(c);
  for (std::size_t i = 0; i < cones.num_ffs(); ++i) {
    const auto ci = cones.cone(i);
    for (std::size_t j = 0; j < cones.num_ffs(); ++j) {
      if (!FanoutCones::test(ci, c.dffs()[j])) continue;
      const auto cj = cones.cone(j);
      for (std::size_t w = 0; w < cones.words_per_cone(); ++w) {
        EXPECT_EQ(cj[w] & ~ci[w], 0u)
            << "cone(" << j << ") escapes cone(" << i << ")";
      }
    }
  }
}

TEST(FanoutConesTest, AffineOrderIsAPermutationWithLeadingPartialBlock) {
  const Circuit c = circuits::build_by_name("b06_like");
  const FanoutCones cones(c);
  const auto order = cone_affine_ff_order(cones, 4);
  ASSERT_EQ(order.size(), cones.num_ffs());
  std::vector<std::uint32_t> sorted(order.begin(), order.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

// ---- golden slot trace -----------------------------------------------------

TEST(GoldenSlotTraceTest, MatchesGoldenTraceProjections) {
  const Circuit c = circuits::build_by_name("b03_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 9);
  const auto kernel = compile_kernel(c);
  const GoldenSlotTrace slots = capture_golden_slots(*kernel, tb.vectors());
  const GoldenTrace golden = capture_golden(c, tb.vectors());

  ASSERT_EQ(slots.num_cycles(), tb.num_cycles());
  ASSERT_EQ(slots.num_slots, c.node_count());
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    // Output slots must equal the golden outputs of cycle t, DFF slots the
    // golden state at the start of cycle t, input slots the stimulus.
    for (std::size_t o = 0; o < c.num_outputs(); ++o) {
      EXPECT_EQ(slots.at(t).get(c.outputs()[o].driver),
                golden.outputs[t].get(o));
    }
    for (std::size_t i = 0; i < c.num_dffs(); ++i) {
      EXPECT_EQ(slots.at(t).get(c.dffs()[i]), golden.states[t].get(i));
    }
    for (std::size_t i = 0; i < c.num_inputs(); ++i) {
      EXPECT_EQ(slots.at(t).get(c.inputs()[i]), tb.vector(t).get(i));
    }
  }
}

// ---- sub-program derivation ------------------------------------------------

TEST(ConeSubProgramTest, FullMaskReproducesWholeProgram) {
  const Circuit c = circuits::build_by_name("b06_like");
  const auto kernel = compile_kernel(c);
  std::vector<std::uint64_t> mask((c.node_count() + 63) / 64,
                                  ~std::uint64_t{0});
  CompiledKernel::ConeSubProgram sp;
  kernel->build_subprogram(mask, sp);
  EXPECT_EQ(sp.instrs.size(), kernel->program().size());
  EXPECT_TRUE(sp.boundary_slots.empty());
  EXPECT_EQ(sp.dff_indices.size(), c.num_dffs());
  EXPECT_EQ(sp.out_indices.size(), c.num_outputs());
}

TEST(ConeSubProgramTest, BoundarySlotsAreOutsideTheConeAndReadByIt) {
  const Circuit c = circuits::build_by_name("b09_like");
  const auto kernel = compile_kernel(c);
  const FanoutCones cones(c);
  CompiledKernel::ConeSubProgram sp;
  for (std::size_t ff = 0; ff < cones.num_ffs(); ++ff) {
    kernel->build_subprogram(cones.cone(ff), sp);
    for (const std::uint32_t s : sp.boundary_slots) {
      EXPECT_FALSE(FanoutCones::test(cones.cone(ff), s));
    }
    // Instruction operands are arena-local; destinations map back to cone
    // members through global_of_local.
    for (const auto& in : sp.instrs) {
      EXPECT_TRUE(
          FanoutCones::test(cones.cone(ff), sp.global_of_local[in.dest]));
    }
  }
}

TEST(ConeSubProgramTest, ArenaRemapIsDenseAndConsistent) {
  // The cache-blocked arena: every touched slot has exactly one local
  // index, locals are dense in [0, arena_slots), instruction destinations
  // are strictly ascending (the overlay-merge invariant), and the
  // global/local tables are mutually inverse.
  const Circuit c = circuits::build_by_name("b09_like");
  const auto kernel = compile_kernel(c);
  const FanoutCones cones(c);
  CompiledKernel::ConeSubProgram sp;
  for (std::size_t ff = 0; ff < cones.num_ffs(); ++ff) {
    kernel->build_subprogram(cones.cone(ff), sp);
    ASSERT_EQ(sp.global_of_local.size(), sp.arena_slots);
    for (std::uint32_t local = 0; local < sp.arena_slots; ++local) {
      const std::uint32_t global = sp.global_of_local[local];
      EXPECT_EQ(sp.local_of_slot[global], local);
    }
    std::uint32_t prev_dest = 0;
    bool first = true;
    for (const auto& in : sp.instrs) {
      EXPECT_LT(in.dest, sp.arena_slots);
      EXPECT_LT(in.a, sp.arena_slots);
      EXPECT_LT(in.b, sp.arena_slots);
      EXPECT_LT(in.c, sp.arena_slots);
      if (!first) {
        EXPECT_GT(in.dest, prev_dest) << "arena dests must ascend";
      }
      prev_dest = in.dest;
      first = false;
    }
    // Loaded slots (boundary golden + cone DFF state) plus computed slots
    // cover the arena exactly when no stray source reads exist.
    EXPECT_EQ(sp.boundary_locals.size(), sp.boundary_slots.size());
    EXPECT_EQ(sp.dff_q_locals.size(), sp.dff_indices.size());
    EXPECT_EQ(sp.dff_d_locals.size(), sp.dff_indices.size());
    EXPECT_EQ(sp.out_locals.size(), sp.out_indices.size());
  }
}

// ---- campaign edge cases ---------------------------------------------------

TEST(ConeCampaignEdgeTest, EmptyFaultList) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 16, 3);
  for (const CampaignConfig& config :
       {cone_config(), full_config()}) {
    ParallelFaultSimulator sim(c, tb, config);
    const CampaignResult result = sim.run({});
    EXPECT_EQ(result.size(), 0u);
    EXPECT_EQ(result.counts().total(), 0u);
  }
}

TEST(ConeCampaignEdgeTest, AllFaultsAtLastTestbenchCycle) {
  // Injection at the final cycle: one eval/step, then the testbench ends —
  // exercises the "no tail after injection" classification (failure at the
  // last outputs, silent only if state re-converges immediately, else
  // latent).
  const Circuit c = circuits::build_by_name("b03_like");
  const Testbench tb = random_testbench(c.num_inputs(), 20, 7);
  std::vector<Fault> faults;
  for (std::uint32_t ff = 0; ff < c.num_dffs(); ++ff) {
    faults.push_back({ff, static_cast<std::uint32_t>(tb.num_cycles() - 1)});
  }
  cross_check(c, tb, faults, "last-cycle");
}

TEST(ConeCampaignEdgeTest, DuplicateFaultsInOneGroup) {
  // The same (ff, cycle) several times in one lane group: lanes are
  // independent bit positions, so duplicates must grade identically.
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 11);
  std::vector<Fault> faults;
  for (int rep = 0; rep < 5; ++rep) {
    faults.push_back({1, 3});
    faults.push_back({2, 3});
    faults.push_back({1, 7});
  }
  cross_check(c, tb, faults, "duplicates");
  ParallelFaultSimulator sim(c, tb, cone_config());
  const CampaignResult result = sim.run(faults);
  for (std::size_t i = 3; i < faults.size(); ++i) {
    EXPECT_EQ(result.outcomes()[i], result.outcomes()[i % 3])
        << "duplicate fault graded differently";
  }
}

TEST(ConeCampaignEdgeTest, FastForwardLandsOnFinalCycle) {
  // Two injection waves: the first classifies quickly (every FF flipped at
  // cycle 1), then the group fast-forwards straight to the final cycle —
  // the jump target is num_cycles - 1, so the loop increment lands exactly
  // on num_cycles and must terminate cleanly.
  const Circuit c = circuits::build_shift_register(8);
  const Testbench tb = zero_testbench(1, 40);
  std::vector<Fault> faults;
  for (std::uint32_t ff = 0; ff < c.num_dffs(); ++ff) {
    faults.push_back({ff, 1});
    faults.push_back({ff, static_cast<std::uint32_t>(tb.num_cycles() - 1)});
  }
  cross_check(c, tb, faults, "fast-forward-to-end");
}

TEST(ConeCampaignEdgeTest, ShuffledCallerOrderStillAlignsOutcomes) {
  // The scheduler permutes internally; outcomes must scatter back to the
  // caller's (shuffled) order for every schedule.
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 20;
  spec.num_gates = 250;
  const Circuit c = circuits::build_random(spec, 7);
  const Testbench tb = random_testbench(spec.num_inputs, 32, 13);
  auto faults = sample_fault_list(spec.num_dffs, tb.num_cycles(), 300, 99);
  std::mt19937_64 rng(123);
  std::shuffle(faults.begin(), faults.end(), rng);
  cross_check(c, tb, faults, "shuffled");
}

// ---- cross-validation at scale ---------------------------------------------

class ConeCampaignAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConeCampaignAgreement, RandomCircuitCompleteCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 24;
  spec.num_gates = 300;
  const Circuit c = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 40, GetParam() + 5);
  const auto faults = complete_fault_list(spec.num_dffs, tb.num_cycles());
  cross_check(c, tb, faults, "complete-campaign");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConeCampaignAgreement,
                         ::testing::Range<std::uint64_t>(0, 5));

// ---- threaded determinism with the cone engine ----------------------------

TEST(ConeCampaignShardingTest, ThreadedIdenticalToSingleThreaded) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 40, 5);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());

  ParallelFaultSimulator single(c, tb, cone_config(LaneWidth::k64, 1));
  const CampaignResult base = single.run(faults);

  for (const unsigned threads : {2u, 4u, 7u}) {
    ParallelFaultSimulator sharded(c, tb,
                                   cone_config(LaneWidth::k64, threads));
    expect_same_outcomes(base, sharded.run(faults), "threaded-cone");
    EXPECT_EQ(single.last_run_eval_cycles(), sharded.last_run_eval_cycles());
    EXPECT_EQ(single.last_run_eval_instrs(), sharded.last_run_eval_instrs());
    EXPECT_EQ(single.last_run_narrowings(), sharded.last_run_narrowings());
  }
}

TEST(ConeCampaignTest, ConeRestrictionReducesExecutedInstructions) {
  const Circuit c = circuits::build_by_name("b09_like");
  const Testbench tb = random_testbench(c.num_inputs(), 48, 17);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());

  ParallelFaultSimulator full(c, tb, full_config());
  ParallelFaultSimulator cone(c, tb, cone_config());
  const CampaignResult a = full.run(faults);
  const CampaignResult b = cone.run(faults);
  SerialFaultSimulator serial(c, tb);
  const CampaignResult ref = serial.run(faults);
  expect_same_outcomes(ref, a, "instr-reduction full");
  expect_same_outcomes(ref, b, "instr-reduction cone");
  EXPECT_LT(cone.last_run_eval_instrs(), full.last_run_eval_instrs());
  EXPECT_NE(cone.cones(), nullptr);
  EXPECT_EQ(full.cones(), nullptr);
}

}  // namespace
}  // namespace femu
