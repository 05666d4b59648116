// Gate-level SET fault grading: site enumeration and fanout-free collapse,
// per-gate cones, the kernel injection overlay, and the unified campaign
// API — always cross-checked against the serial per-fault reference
// simulator (SerialSetSimulator walks the Circuit graph; the engines run
// the compiled kernel with the instruction-stream overlay).
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
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "netlist/fanout_cones.h"
#include "stim/generate.h"

namespace femu {
namespace {

CampaignConfig set_cone_config(LaneWidth lanes = LaneWidth::k64,
                               unsigned threads = 1) {
  return {lanes, threads, /*cone_restricted=*/true,
          CampaignSchedule::kConeAffine};
}

CampaignConfig set_full_config(LaneWidth lanes = LaneWidth::k64,
                               unsigned threads = 1) {
  return {lanes, threads, /*cone_restricted=*/false,
          CampaignSchedule::kCycleMajor};
}

void expect_same_set_outcomes(const SetCampaignResult& a,
                              const SetCampaignResult& b, const char* label) {
  ASSERT_EQ(a.faults.size(), b.faults.size()) << label;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    ASSERT_EQ(a.faults[i], b.faults[i]) << label << " fault order @" << i;
    ASSERT_EQ(a.outcomes[i], b.outcomes[i])
        << label << " fault (node=" << a.faults[i].node
        << ", c=" << a.faults[i].cycle << ")";
  }
}

// Grades `faults` under the serial per-fault reference and every
// compiled engine configuration (full vs cone, 64 vs 256 lanes, cycle-major
// and cone-affine schedules, 1 and several threads) and requires identical
// per-fault outcomes in caller order.
void set_cross_check(const Circuit& circuit, const Testbench& tb,
                     std::span<const SetFault> faults, const char* label) {
  SerialSetSimulator serial(circuit, tb);
  const SetCampaignResult ref = serial.run(faults);

  for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k256}) {
    ParallelFaultSimulator full(circuit, tb, set_full_config(lanes));
    expect_same_set_outcomes(ref, full.run_set(faults), label);
    for (const CampaignSchedule schedule :
         {CampaignSchedule::kCycleMajor, CampaignSchedule::kConeAffine}) {
      for (const unsigned threads : {1u, 4u}) {
        CampaignConfig config = set_cone_config(lanes, threads);
        config.schedule = schedule;
        ParallelFaultSimulator cone(circuit, tb, config);
        expect_same_set_outcomes(ref, cone.run_set(faults), label);
      }
    }
  }
}

/// A small circuit with one of everything the SET edge cases need: a live
/// path into a flip-flop, a live path straight to an output, a buf/not
/// chain (collapse fodder), a dead gate (no reader at all) and a gate whose
/// only reader logically masks it (AND with constant 0).
Circuit build_set_edge_circuit() {
  Circuit c("set_edge");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId r = c.add_dff("r");
  const NodeId live = c.add_and(a, b);      // latched into r
  c.connect_dff(r, live);
  const NodeId chain0 = c.add_xor(a, r);    // head of a buf/not chain
  const NodeId chain1 = c.add_buf(chain0);
  const NodeId chain2 = c.add_not(chain1);  // chain tail, drives the output
  c.add_output("o", chain2);
  const NodeId zero = c.add_const(false);
  const NodeId masked = c.add_or(a, b);     // only reader ANDs with 0
  const NodeId gate0 = c.add_and(masked, zero);
  c.add_output("z", gate0);
  c.add_or(a, r);                           // dead gate: no reader, no PO
  return c;
}

// ---- site enumeration and collapse ----------------------------------------

TEST(SetSitesTest, EnumeratesEveryCombGate) {
  const Circuit c = circuits::build_by_name("b06_like");
  const SetSites sites(c);
  EXPECT_EQ(sites.num_sites(), c.num_gates());
  for (const NodeId node : sites.sites()) {
    EXPECT_TRUE(is_comb_cell(c.type(node)));
  }
  // Representatives partition the sites: every site maps to exactly one
  // rep, every rep's class members are sites, and the classes tile.
  std::size_t total = 0;
  for (const NodeId rep : sites.representatives()) {
    const auto members = sites.class_members(rep);
    EXPECT_TRUE(std::find(members.begin(), members.end(), rep) !=
                members.end());
    for (const NodeId m : members) {
      EXPECT_EQ(sites.representative(m), rep);
    }
    total += members.size();
  }
  EXPECT_EQ(total, sites.num_sites());
}

TEST(SetSitesTest, BufNotChainCollapsesOntoItsTail) {
  const Circuit c = build_set_edge_circuit();
  const SetSites sites(c);
  // chain2 = NOT(chain1 = BUF(chain0 = XOR(a, r))); chain0 and chain1 are
  // read exactly once, by an inversion-transparent unary gate, and drive
  // neither a PO nor a DFF — all three share one representative.
  const NodeId chain2 = c.outputs()[0].driver;
  ASSERT_EQ(c.type(chain2), CellType::kNot);
  const NodeId chain1 = c.fanins(chain2)[0];
  const NodeId xor_head = c.fanins(chain1)[0];
  EXPECT_EQ(sites.representative(xor_head), chain2);
  EXPECT_EQ(sites.representative(chain1), chain2);
  EXPECT_EQ(sites.representative(chain2), chain2);
  EXPECT_EQ(sites.class_members(chain2).size(), 3u);
  // The PO-driving tail and the FF-feeding gate stay their own reps.
  const NodeId live = c.fanins(c.dffs()[0])[0];
  EXPECT_EQ(sites.representative(live), live);
}

TEST(SetSitesTest, CollapsedClassesGradeIdentically) {
  // The collapse soundness property, checked behaviourally: on a random
  // circuit, every member of an equivalence class must grade identically
  // at every cycle (the serial reference knows nothing about the collapse).
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 3;
  spec.num_dffs = 10;
  spec.num_gates = 120;
  const Circuit c = circuits::build_random(spec, 21);
  const Testbench tb = random_testbench(spec.num_inputs, 20, 22);
  const SetSites sites(c);
  const auto faults = complete_set_fault_list(sites, tb.num_cycles(),
                                              /*collapsed=*/false);
  SerialSetSimulator serial(c, tb);
  const SetCampaignResult result = serial.run(faults);
  std::map<std::pair<NodeId, std::uint32_t>, FaultOutcome> rep_outcome;
  for (std::size_t i = 0; i < result.faults.size(); ++i) {
    const auto key = std::pair{sites.representative(result.faults[i].node),
                               result.faults[i].cycle};
    const auto [it, inserted] = rep_outcome.emplace(key, result.outcomes[i]);
    EXPECT_EQ(it->second, result.outcomes[i])
        << "site " << result.faults[i].node << " and representative "
        << it->first.first << " grade differently at cycle "
        << result.faults[i].cycle;
  }
}

TEST(SetSitesTest, ExpansionMatchesUncollapsedCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 4;
  spec.num_outputs = 3;
  spec.num_dffs = 8;
  spec.num_gates = 90;
  const Circuit c = circuits::build_random(spec, 31);
  const Testbench tb = random_testbench(spec.num_inputs, 16, 32);
  const SetSites sites(c);

  ParallelFaultSimulator sim(c, tb, set_cone_config());
  const auto rep_faults = complete_set_fault_list(sites, tb.num_cycles());
  const SetCampaignResult expanded =
      expand_collapsed_result(sites, sim.run_set(rep_faults));

  const auto all_faults = complete_set_fault_list(sites, tb.num_cycles(),
                                                  /*collapsed=*/false);
  const SetCampaignResult full = sim.run_set(all_faults);

  ASSERT_EQ(expanded.faults.size(), full.faults.size());
  std::map<std::pair<NodeId, std::uint32_t>, FaultOutcome> by_fault;
  for (std::size_t i = 0; i < expanded.faults.size(); ++i) {
    by_fault[{expanded.faults[i].node, expanded.faults[i].cycle}] =
        expanded.outcomes[i];
  }
  for (std::size_t i = 0; i < full.faults.size(); ++i) {
    const auto it =
        by_fault.find({full.faults[i].node, full.faults[i].cycle});
    ASSERT_NE(it, by_fault.end());
    EXPECT_EQ(it->second, full.outcomes[i]);
  }
  EXPECT_EQ(expanded.counts.failure, full.counts.failure);
  EXPECT_EQ(expanded.counts.latent, full.counts.latent);
  EXPECT_EQ(expanded.counts.silent, full.counts.silent);
}

// ---- per-gate cones --------------------------------------------------------

TEST(GateConesTest, SiteIsMemberAndFfConesStayInside) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 12;
  spec.num_gates = 140;
  const Circuit c = circuits::build_random(spec, 11);
  const FanoutCones ff_cones(c);
  const GateCones gates(c, ff_cones);
  ASSERT_EQ(gates.num_sites(), c.num_gates());
  for (std::size_t s = 0; s < gates.num_sites(); ++s) {
    const auto cone = gates.cone(s);
    EXPECT_TRUE(FanoutCones::test(cone, gates.sites()[s]));
    // Closure: any FF whose Q node lies inside the gate cone contributes
    // its whole (closed) FF cone — the invariant the narrowing logic and
    // the overlay engine rely on.
    for (std::size_t ff = 0; ff < c.num_dffs(); ++ff) {
      if (!FanoutCones::test(cone, c.dffs()[ff])) continue;
      const auto fc = ff_cones.cone(ff);
      for (std::size_t w = 0; w < gates.words_per_cone(); ++w) {
        EXPECT_EQ(fc[w] & ~cone[w], 0u)
            << "FF cone " << ff << " escapes gate cone " << s;
      }
    }
  }
}

// ---- edge cases ------------------------------------------------------------

TEST(SetCampaignEdgeTest, DeadGateAndMaskedGateAreSilent) {
  const Circuit c = build_set_edge_circuit();
  const Testbench tb = random_testbench(c.num_inputs(), 12, 3);
  const SetSites sites(c);
  const auto faults = complete_set_fault_list(sites, tb.num_cycles(),
                                              /*collapsed=*/false);
  set_cross_check(c, tb, faults, "edge-circuit");

  // The dead gate (no reader) and the logically masked gate (sole reader
  // ANDs with constant 0) must grade silent with convergence right after
  // injection, at every cycle.
  const NodeId masked_gate = c.fanins(c.outputs()[1].driver)[0];
  NodeId dead_gate = kInvalidNode;
  for (const NodeId s : sites.sites()) {
    bool read = false;
    for (NodeId id = 0; id < c.node_count(); ++id) {
      for (const NodeId f : c.fanins(id)) read |= (f == s);
    }
    for (const auto& port : c.outputs()) read |= (port.driver == s);
    if (!read) dead_gate = s;
  }
  ASSERT_NE(dead_gate, kInvalidNode);

  ParallelFaultSimulator sim(c, tb, set_cone_config());
  const SetCampaignResult result = sim.run_set(faults);
  for (std::size_t i = 0; i < result.faults.size(); ++i) {
    if (result.faults[i].node != dead_gate &&
        result.faults[i].node != masked_gate) {
      continue;
    }
    EXPECT_EQ(result.outcomes[i].cls, FaultClass::kSilent)
        << "node " << result.faults[i].node;
    EXPECT_EQ(result.outcomes[i].converge_cycle, result.faults[i].cycle + 1);
  }
}

TEST(SetCampaignEdgeTest, LastCycleSets) {
  // Injection at the final cycle: one eval (the transient's only chance to
  // reach an output), one latch into the final state — failure, silent and
  // latent are all still reachable and must agree with the reference.
  const Circuit c = circuits::build_by_name("b03_like");
  const Testbench tb = random_testbench(c.num_inputs(), 18, 7);
  const SetSites sites(c);
  std::vector<SetFault> faults;
  for (const NodeId rep : sites.representatives()) {
    faults.push_back(
        {rep, static_cast<std::uint32_t>(tb.num_cycles() - 1)});
  }
  set_cross_check(c, tb, faults, "last-cycle-set");
}

TEST(SetCampaignEdgeTest, EmptyAndShuffled) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 20, 9);
  ParallelFaultSimulator sim(c, tb, set_cone_config());
  EXPECT_EQ(sim.run_set({}).counts.total(), 0u);

  const SetSites sites(c);
  auto faults = complete_set_fault_list(sites, tb.num_cycles());
  std::mt19937_64 rng(99);
  std::shuffle(faults.begin(), faults.end(), rng);
  set_cross_check(c, tb, faults, "shuffled-set");
}

// ---- cross-validation at scale ---------------------------------------------

class SetCampaignAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SetCampaignAgreement, RandomCircuitCompleteRepCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 14;
  spec.num_gates = 180;
  const Circuit c = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 24, GetParam() + 5);
  const SetSites sites(c);
  const auto faults = complete_set_fault_list(sites, tb.num_cycles());
  set_cross_check(c, tb, faults, "complete-rep-campaign");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetCampaignAgreement,
                         ::testing::Range<std::uint64_t>(0, 3));

// ---- unified API sanity ----------------------------------------------------

TEST(UnifiedCampaignTest, OneConfigDrivesAllThreeModels) {
  // One simulator instance, one config: SEU, MBU and SET campaigns all run
  // through the same sharded engine and report through the same outcome
  // shape. (Semantic agreement per model is covered by the dedicated
  // suites; this pins the API contract.)
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 17);
  ParallelFaultSimulator sim(c, tb, set_cone_config(LaneWidth::k64, 2));

  const auto seu = sim.run(complete_fault_list(c.num_dffs(), 8));
  EXPECT_EQ(seu.counts().total(), c.num_dffs() * 8);

  const auto mbu =
      sim.run_mbu(adjacent_pair_fault_list(c.num_dffs(), 8));
  EXPECT_EQ(mbu.counts.total(), (c.num_dffs() - 1) * 8);

  const SetSites sites(c);
  const auto set = sim.run_set(complete_set_fault_list(sites, 8));
  EXPECT_EQ(set.counts.total(), sites.num_representatives() * 8);
}

// ---- b14 (slow label) ------------------------------------------------------

TEST(SetCampaignSlowTest, B14SampledCampaignAgreesEverywhere) {
  // The acceptance cross-check: a sampled b14 SET campaign must produce
  // identical per-fault outcomes (hence identical classification counts)
  // across the serial reference, compiled-64, compiled-256, full and
  // cone-restricted evaluation, both non-trivial schedules and ≥2 thread
  // counts.
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 80, 2005);
  const SetSites sites(c);
  const auto faults = sample_set_fault_list(sites, tb.num_cycles(), 400, 7);
  set_cross_check(c, tb, faults, "b14-sampled");
}

TEST(SetCampaignSlowTest, B14ThreadedDeterminismAndInstrReduction) {
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 60, 2005);
  const SetSites sites(c);
  const auto faults =
      sample_set_fault_list(sites, tb.num_cycles(), 4000, 11);

  ParallelFaultSimulator single(c, tb, set_cone_config(LaneWidth::k64, 1));
  const SetCampaignResult base = single.run_set(faults);

  for (const unsigned threads : {2u, 8u}) {
    ParallelFaultSimulator sharded(c, tb,
                                   set_cone_config(LaneWidth::k64, threads));
    expect_same_set_outcomes(base, sharded.run_set(faults), "threaded-set");
    EXPECT_EQ(single.last_run_eval_cycles(), sharded.last_run_eval_cycles());
    EXPECT_EQ(single.last_run_eval_instrs(), sharded.last_run_eval_instrs());
    EXPECT_EQ(single.last_run_narrowings(), sharded.last_run_narrowings());
  }

  ParallelFaultSimulator full(c, tb, set_full_config());
  const SetCampaignResult full_result = full.run_set(faults);
  expect_same_set_outcomes(base, full_result, "set-instr-reduction");
  EXPECT_LT(single.last_run_eval_instrs(), full.last_run_eval_instrs());
}

}  // namespace
}  // namespace femu
