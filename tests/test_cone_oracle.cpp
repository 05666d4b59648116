// On-demand cone derivation (ConeOracle), the anchor-rank orderings and
// the greedy-cap fallback: derived cones must be bit-identical to the
// eager FanoutCones / GateCones matrices, the engine must pick its cone
// source by the one size rule, and campaigns on the oracle side of that
// rule must grade identically to the serial references.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/mbu.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "fault/set_model.h"
#include "netlist/fanout_cones.h"
#include "oracle_side.h"
#include "stim/generate.h"

namespace femu {
namespace {

Circuit random_circuit(std::uint64_t seed, std::size_t gates = 260,
                       std::size_t dffs = 22) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = dffs;
  spec.num_gates = gates;
  return circuits::build_random(spec, seed);
}

// ---- bit-identity with the eager builders ----------------------------------

class ConeOracleIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConeOracleIdentity, FfConesMatchEagerBuilder) {
  const Circuit c = random_circuit(GetParam());
  const FanoutCones eager(c);
  const ConeOracle oracle(c);
  ASSERT_EQ(oracle.num_ffs(), eager.num_ffs());
  ASSERT_EQ(oracle.words_per_cone(), eager.words_per_cone());
  std::vector<std::uint64_t> derived(oracle.words_per_cone());
  for (std::size_t ff = 0; ff < eager.num_ffs(); ++ff) {
    std::fill(derived.begin(), derived.end(), 0);
    oracle.union_into_ff(derived, ff);
    const auto want = eager.cone(ff);
    for (std::size_t w = 0; w < derived.size(); ++w) {
      ASSERT_EQ(derived[w], want[w]) << "FF " << ff << " word " << w;
    }
  }
}

TEST_P(ConeOracleIdentity, GateConesMatchEagerBuilder) {
  const Circuit c = random_circuit(GetParam());
  const FanoutCones ff_cones(c);
  const GateCones eager(c, ff_cones);
  const ConeOracle oracle(c);
  std::vector<std::uint64_t> derived(oracle.words_per_cone());
  for (std::size_t s = 0; s < eager.num_sites(); ++s) {
    std::fill(derived.begin(), derived.end(), 0);
    oracle.union_into_gate(derived, eager.sites()[s]);
    const auto want = eager.cone(s);
    for (std::size_t w = 0; w < derived.size(); ++w) {
      ASSERT_EQ(derived[w], want[w]) << "site " << s << " word " << w;
    }
  }
}

TEST_P(ConeOracleIdentity, AccumulatedUnionMatchesEagerUnion) {
  // The oracle's accumulator semantics: repeated union_into calls over one
  // mask must equal the eager per-cone ORs — the exact way the campaign
  // engine derives a lane group's cone union.
  const Circuit c = random_circuit(GetParam());
  const FanoutCones eager(c);
  const ConeOracle oracle(c);
  std::vector<std::uint64_t> want(eager.words_per_cone(), 0);
  std::vector<std::uint64_t> got(eager.words_per_cone(), 0);
  for (std::size_t ff = 0; ff < eager.num_ffs(); ff += 3) {
    eager.union_into(want, ff);
    oracle.union_into_ff(got, ff);
  }
  EXPECT_EQ(want, got);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConeOracleIdentity,
                         ::testing::Range<std::uint64_t>(0, 4));

// ---- anchor-rank orderings -------------------------------------------------

TEST(AnchorOrderTest, NextFfLabelsAreMinimalFirstFrontier) {
  // Shift register: FF i's Q feeds FF i+1's D directly, so label(Q_i) is
  // i+1; the last FF's Q drives only the output buffer chain (no FF).
  const Circuit c = circuits::build_shift_register(6);
  const auto labels = next_ff_labels(c);
  for (std::size_t ff = 0; ff + 1 < 6; ++ff) {
    EXPECT_EQ(labels[c.dffs()[ff]], ff + 1) << "ff " << ff;
  }
  EXPECT_EQ(labels[c.dffs()[5]], c.num_dffs());
}

TEST(AnchorOrderTest, AnchorFfOrderIsAPermutation) {
  const Circuit c = random_circuit(7);
  const auto order = cone_affine_ff_order_anchor(c);
  ASSERT_EQ(order.size(), c.num_dffs());
  std::vector<std::uint32_t> sorted(order.begin(), order.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(AnchorOrderTest, GreedyCapFallsBackToAnchorOrder) {
  const Circuit c = random_circuit(9);
  const FanoutCones cones(c);
  // Cap below the FF count: the capped overload must return the anchor
  // ordering, not stall in the quadratic greedy.
  const auto capped = cone_affine_ff_order(c, cones, 64, /*greedy_cap=*/4);
  EXPECT_EQ(capped, cone_affine_ff_order_anchor(c));
  // Cap at or above the FF count: byte-identical to the plain greedy.
  const auto uncapped =
      cone_affine_ff_order(c, cones, 64, /*greedy_cap=*/c.num_dffs());
  EXPECT_EQ(uncapped, cone_affine_ff_order(cones, 64));
}

TEST(AnchorOrderTest, SiteRankAnchorIsAPermutationOverGates) {
  const Circuit c = random_circuit(11);
  std::vector<std::uint32_t> ff_rank(c.num_dffs());
  std::iota(ff_rank.begin(), ff_rank.end(), 0u);
  const auto rank = cone_affine_site_rank_anchor(c, ff_rank);
  ASSERT_EQ(rank.size(), c.node_count());
  std::vector<std::uint32_t> gate_ranks;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (is_comb_cell(c.type(id))) gate_ranks.push_back(rank[id]);
  }
  std::sort(gate_ranks.begin(), gate_ranks.end());
  for (std::size_t i = 0; i < gate_ranks.size(); ++i) {
    EXPECT_EQ(gate_ranks[i], i);
  }
}

// ---- the cone-source rule --------------------------------------------------

TEST(ConeSourceRuleTest, MatrixExactlyWhenTheGreedyOrderRuns) {
  // b14 (215 FFs): the greedy FF order runs, so the matrix is built.
  const Circuit b14 = circuits::build_b14();
  const Testbench tb14 = random_testbench(b14.num_inputs(), 4, 1);
  ParallelFaultSimulator matrix(b14, tb14);
  EXPECT_FALSE(matrix.on_demand_cones());
  EXPECT_NE(matrix.cones(), nullptr);
  EXPECT_EQ(matrix.cone_oracle(), nullptr);

  // Past the FF cap but under the node threshold: the anchor order runs,
  // so a matrix would serve unions only, and the oracle serves those.
  const Circuit wide = circuits::build_pipeline(32, 128);
  ASSERT_GT(wide.num_dffs(), CampaignConfig::greedy_order_cap);
  ASSERT_LT(wide.node_count(), CampaignConfig::kOnDemandNodeThreshold);
  const Testbench tb_wide = random_testbench(wide.num_inputs(), 4, 2);
  ParallelFaultSimulator wide_sim(wide, tb_wide);
  EXPECT_TRUE(wide_sim.on_demand_cones());
  EXPECT_EQ(wide_sim.cones(), nullptr);
  EXPECT_NE(wide_sim.cone_oracle(), nullptr);

  // At the node threshold.
  const Circuit big = circuits::build_pipeline(64, 96);
  ASSERT_GE(big.node_count(), CampaignConfig::kOnDemandNodeThreshold);
  const Testbench tb_big = random_testbench(big.num_inputs(), 4, 3);
  ParallelFaultSimulator big_sim(big, tb_big);
  EXPECT_TRUE(big_sim.on_demand_cones());
  EXPECT_EQ(big_sim.cones(), nullptr);
  EXPECT_NE(big_sim.cone_oracle(), nullptr);
}

// ---- oracle-side campaigns vs the serial references ------------------------

TEST(OracleSideCampaignTest, SeuMatchesSerialReference) {
  const Circuit c = oracle_side_circuit();
  const Testbench tb = random_testbench(c.num_inputs(), 24, 14);
  const auto faults = sample_fault_list(c.num_dffs(), tb.num_cycles(), 3000,
                                        15);
  SerialFaultSimulator serial(c, tb);
  const CampaignResult ref = serial.run(faults);

  for_each_oracle_side_engine(
      c, tb, [&](ParallelFaultSimulator& sim, const std::string& label) {
        const CampaignResult got = sim.run(faults);
        ASSERT_EQ(ref.size(), got.size()) << label;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(ref.outcomes()[i], got.outcomes()[i])
              << label << " fault @" << i;
        }
      });
}

TEST(OracleSideCampaignTest, SetMatchesSerialReference) {
  const Circuit c = oracle_side_circuit();
  const Testbench tb = random_testbench(c.num_inputs(), 20, 16);
  const SetSites sites(c);
  const auto faults = sample_set_fault_list(sites, tb.num_cycles(), 2000, 17);
  SerialSetSimulator serial(c, tb);
  const SetCampaignResult ref = serial.run(faults);

  for_each_oracle_side_engine(
      c, tb, [&](ParallelFaultSimulator& sim, const std::string& label) {
        const SetCampaignResult got = sim.run_set(faults);
        ASSERT_EQ(ref.outcomes.size(), got.outcomes.size()) << label;
        for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
          ASSERT_EQ(ref.outcomes[i], got.outcomes[i])
              << label << " set fault @" << i;
        }
      });
}

TEST(OracleSideCampaignTest, MbuMatchesSerialReference) {
  const Circuit c = oracle_side_circuit();
  const Testbench tb = random_testbench(c.num_inputs(), 20, 18);
  const auto faults = random_cluster_fault_list(c.num_dffs(), tb.num_cycles(),
                                                3, 16, 2000, 19);
  MbuFaultSimulator serial(c, tb);
  const MbuCampaignResult ref = serial.run(faults);

  for_each_oracle_side_engine(
      c, tb, [&](ParallelFaultSimulator& sim, const std::string& label) {
        const MbuCampaignResult got = sim.run_mbu(faults);
        ASSERT_EQ(ref.outcomes.size(), got.outcomes.size()) << label;
        for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
          ASSERT_EQ(ref.outcomes[i], got.outcomes[i])
              << label << " mbu fault @" << i;
        }
      });
}

}  // namespace
}  // namespace femu
