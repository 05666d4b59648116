#pragma once

// The oracle side of the cone-source rule. The engine materializes the
// cone matrix only on circuits small enough for the greedy FF order, so
// every small test circuit runs on the matrix; these fixtures keep the
// ConeOracle + anchor-order path under the serial references. The circuit
// has more FFs than CampaignConfig::greedy_order_cap but fewer nodes than
// CampaignConfig::kOnDemandNodeThreshold, so the FF bound alone decides.

#include <gtest/gtest.h>

#include <string>

#include "circuits/generators.h"
#include "fault/parallel_faultsim.h"

namespace femu {

/// Random sequential circuit past the greedy FF cap, a few thousand nodes.
inline Circuit oracle_side_circuit(std::uint64_t seed = 2005) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 8;
  spec.num_dffs = CampaignConfig::greedy_order_cap + 64;
  spec.num_gates = 2400;
  return circuits::build_random(spec, seed);
}

/// Calls `grade(sim, label)` on a cone-restricted, cone-affine engine at
/// 64 and 512 lanes x 1 and 4 threads, after checking that each engine
/// resolved to the oracle.
template <typename Grade>
void for_each_oracle_side_engine(const Circuit& circuit, const Testbench& tb,
                                 const Grade& grade) {
  for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k512}) {
    for (const unsigned threads : {1u, 4u}) {
      ParallelFaultSimulator sim(
          circuit, tb,
          CampaignConfig{.lanes = lanes,
                         .num_threads = threads,
                         .cone_restricted = true,
                         .schedule = CampaignSchedule::kConeAffine});
      ASSERT_TRUE(sim.on_demand_cones());
      ASSERT_EQ(sim.cones(), nullptr);
      ASSERT_NE(sim.cone_oracle(), nullptr);
      grade(sim, std::to_string(lane_count(lanes)) + " lanes/" +
                     std::to_string(threads) + "t");
    }
  }
}

}  // namespace femu
