// Large-generated-circuit campaigns — the memory-wall acceptance tests.
// Before on-demand cone derivation and the anchor-rank orderings, a
// 50k-gate circuit could not even construct its campaign (the eager cone
// matrices and the quadratic greedy FF ordering both blow up); these tests
// run complete SEU campaigns end-to-end, schedule construction included,
// and require identical classifications across lane widths (64/256/512)
// and thread counts (1 vs N). Both circuits are far past the cone-source
// rule's bounds, so every engine here derives cones on demand.
//
// Suites named *Slow* run under the `slow` ctest label.

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "stim/generate.h"

namespace femu {
namespace {

CampaignConfig scale_config(LaneWidth lanes, unsigned threads) {
  return {lanes, threads, /*cone_restricted=*/true,
          CampaignSchedule::kConeAffine};
}

TEST(ScaleCampaignSlowTest, Pipeline50kGateCompleteSeuCampaign) {
  // 96x176 pipeline: 50,687 gates, 16,896 FFs, 67,760 nodes — the >=50k
  // gate acceptance circuit. Complete fault list over a short testbench;
  // "complete" covers every FF at every cycle, so schedule construction
  // must rank all 16,896 FFs (anchor order — the greedy would never
  // finish) and the engine must derive cone unions for every block.
  const Circuit c = circuits::build_pipeline(96, 176);
  ASSERT_GE(c.num_gates(), 50000u);
  const Testbench tb = random_testbench(c.num_inputs(), 4, 2026);
  const auto faults = complete_fault_list(c.num_dffs(), tb.num_cycles());
  ASSERT_GE(faults.size(), 50000u);

  ParallelFaultSimulator base(c, tb, scale_config(LaneWidth::k64, 1));
  EXPECT_TRUE(base.on_demand_cones());
  const CampaignResult ref = base.run(faults);
  const ClassCounts want = ref.counts();
  EXPECT_EQ(want.total(), faults.size());

  const auto check = [&](LaneWidth lanes, unsigned threads,
                         const char* label) {
    ParallelFaultSimulator sim(c, tb, scale_config(lanes, threads));
    const ClassCounts got = sim.run(faults).counts();
    EXPECT_EQ(got.failure, want.failure) << label;
    EXPECT_EQ(got.latent, want.latent) << label;
    EXPECT_EQ(got.silent, want.silent) << label;
  };
  check(LaneWidth::k256, 1, "256/on-demand/1t");
  check(LaneWidth::k512, 1, "512/on-demand/1t");
  check(LaneWidth::k512, 4, "512/on-demand/4t");
  check(LaneWidth::k64, 4, "64/on-demand/4t");
}

TEST(ScaleCampaignSlowTest, Pipeline100kNodeSampledCampaign) {
  // The 100k-node tier (82,080 nodes, 61,439 gates): a sampled campaign
  // proving construction and grading stay tractable one size up.
  const Circuit c = circuits::build_pipeline(128, 160);
  ASSERT_GE(c.node_count(), 80000u);
  const Testbench tb = random_testbench(c.num_inputs(), 4, 2027);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 8192, 29);

  ParallelFaultSimulator base(c, tb, scale_config(LaneWidth::k512, 1));
  const CampaignResult ref = base.run(faults);
  ParallelFaultSimulator threaded(c, tb, scale_config(LaneWidth::k512, 4));
  const CampaignResult got = threaded.run(faults);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.outcomes()[i], got.outcomes()[i]) << "fault @" << i;
  }
}

}  // namespace
}  // namespace femu
