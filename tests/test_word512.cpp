// Word512 lane tier: trait algebra, the runtime SIMD dispatch, and
// cross-validation of the 512-lane engines against the serial references
// and the 64/256-lane engines for all three fault
// models (SEU, MBU, SET) — on random circuits (tier1) and sampled b14
// (*Slow* suites).

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "circuits/registry.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "fault/set_model.h"
#include "sim/simd_dispatch.h"
#include "stim/generate.h"

namespace femu {
namespace {

using T512 = LaneTraits<Word512>;

CampaignConfig config_of(LaneWidth lanes, bool cone, unsigned threads = 1,
                         CampaignSchedule schedule =
                             CampaignSchedule::kConeAffine) {
  return {.lanes = lanes,
          .num_threads = threads,
          .cone_restricted = cone,
          .schedule = cone ? schedule : CampaignSchedule::kCycleMajor};
}

// ---- lane traits -----------------------------------------------------------

TEST(Word512Test, TraitAlgebra) {
  EXPECT_EQ(T512::kLanes, 512u);
  EXPECT_EQ(sizeof(Word512), 64u);
  EXPECT_EQ(alignof(Word512), 64u);
  EXPECT_FALSE(T512::any(T512::zero()));
  EXPECT_TRUE(T512::any(T512::ones()));
  EXPECT_EQ(T512::count(T512::ones()), 512u);
  EXPECT_EQ(T512::count(T512::first_n(300)), 300u);
  EXPECT_EQ(T512::first_n(512), T512::ones());
  EXPECT_EQ(T512::first_n(0), T512::zero());
  for (const unsigned lane : {0u, 63u, 64u, 255u, 256u, 300u, 511u}) {
    const Word512 bit = T512::lane_bit(lane);
    EXPECT_EQ(T512::count(bit), 1u);
    EXPECT_TRUE(T512::test(bit, lane));
    EXPECT_FALSE(T512::test(bit, (lane + 1) % 512));
    EXPECT_TRUE(T512::test(T512::first_n(lane + 1), lane));
    EXPECT_FALSE(T512::test(T512::first_n(lane), lane));
  }
  const Word512 a = T512::first_n(100);
  const Word512 b = T512::lane_bit(99);
  EXPECT_EQ(T512::count(a ^ b), 99u);
  EXPECT_EQ(T512::count(a & b), 1u);
  EXPECT_EQ(T512::count(a | b), 100u);
  EXPECT_EQ(T512::count(~a), 412u);
}

TEST(Word512Test, SimdPathIsReported) {
  const char* path = word512_simd_path();
  ASSERT_NE(path, nullptr);
  EXPECT_TRUE(std::strcmp(path, "avx512") == 0 ||
              std::strcmp(path, "limbs") == 0)
      << path;
  // The dispatch may never claim the AVX-512 path on a host without it.
  if (std::strcmp(path, "avx512") == 0) {
    EXPECT_TRUE(cpu_has_avx512f());
  }
}

// ---- engine-level agreement ------------------------------------------------

TEST(Word512Test, LaneEngineMatches64LaneEngine) {
  const Circuit c = circuits::build_by_name("b09_like");
  const auto kernel = compile_kernel(c);
  const Testbench tb = random_testbench(c.num_inputs(), 32, 17);
  LaneEngine<std::uint64_t> e64(kernel);
  LaneEngine<Word512> e512(kernel);
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    e64.eval(tb.vector(t));
    e512.eval(tb.vector(t));
    EXPECT_TRUE(e64.lane_outputs(0) == e512.lane_outputs(0)) << "cycle " << t;
    EXPECT_TRUE(e64.lane_outputs(0) == e512.lane_outputs(511))
        << "cycle " << t;
    e64.step();
    e512.step();
    EXPECT_TRUE(e64.lane_state(0) == e512.lane_state(300)) << "cycle " << t;
  }
}

// ---- SEU cross-validation --------------------------------------------------

void expect_same_outcomes(const CampaignResult& a, const CampaignResult& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.outcomes()[i], b.outcomes()[i])
        << label << " fault (ff=" << a.faults()[i].ff_index
        << ", c=" << a.faults()[i].cycle << ")";
  }
}

void seu_cross_check_512(const Circuit& c, const Testbench& tb,
                         std::span<const Fault> faults, const char* label) {
  SerialFaultSimulator serial(c, tb);
  const CampaignResult ref = serial.run(faults);
  for (const bool cone : {false, true}) {
    for (const unsigned threads : {1u, 3u}) {
      ParallelFaultSimulator sim512(c, tb,
                                    config_of(LaneWidth::k512, cone, threads));
      expect_same_outcomes(ref, sim512.run(faults), label);
    }
  }
  // 512 vs 256 with identical schedules, for instr-level comparability.
  ParallelFaultSimulator sim256(c, tb, config_of(LaneWidth::k256, true));
  expect_same_outcomes(ref, sim256.run(faults), label);
}

class Word512Agreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Word512Agreement, RandomCircuitCompleteSeuCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 24;
  spec.num_gates = 300;
  const Circuit c = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 36, GetParam() + 3);
  const auto faults = complete_fault_list(spec.num_dffs, tb.num_cycles());
  seu_cross_check_512(c, tb, faults, "word512-seu");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Word512Agreement,
                         ::testing::Range<std::uint64_t>(0, 4));

// A group wider than the fault count and lanes beyond 256 exercised in one
// group: more lanes than faults must grade exactly like narrower widths.
TEST(Word512Test, PartialGroupAndDuplicates) {
  const Circuit c = circuits::build_by_name("b06_like");
  const Testbench tb = random_testbench(c.num_inputs(), 24, 11);
  std::vector<Fault> faults;
  for (std::uint32_t ff = 0; ff < c.num_dffs(); ++ff) {
    faults.push_back({ff, 3});
    faults.push_back({ff, 3});  // duplicate in the same lane group
  }
  seu_cross_check_512(c, tb, faults, "word512-partial");
}

// ---- MBU cross-validation --------------------------------------------------

TEST(Word512Test, MbuMatches64Lanes) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 18;
  spec.num_gates = 220;
  const Circuit c = circuits::build_random(spec, 5);
  const Testbench tb = random_testbench(spec.num_inputs, 28, 6);
  const auto faults = adjacent_pair_fault_list(c.num_dffs(), tb.num_cycles());

  ParallelFaultSimulator sim64(c, tb, config_of(LaneWidth::k64, true));
  const MbuCampaignResult ref = sim64.run_mbu(faults);
  for (const bool cone : {false, true}) {
    ParallelFaultSimulator sim512(c, tb, config_of(LaneWidth::k512, cone));
    const MbuCampaignResult got = sim512.run_mbu(faults);
    ASSERT_EQ(ref.outcomes.size(), got.outcomes.size());
    for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
      ASSERT_EQ(ref.outcomes[i], got.outcomes[i]) << "mbu fault @" << i;
    }
  }
}

// ---- SET cross-validation --------------------------------------------------

void set_cross_check_512(const Circuit& c, const Testbench& tb,
                         std::span<const SetFault> faults,
                         const char* label) {
  SerialSetSimulator serial(c, tb);
  const SetCampaignResult ref = serial.run(faults);
  for (const bool cone : {false, true}) {
    for (const unsigned threads : {1u, 3u}) {
      ParallelFaultSimulator sim512(c, tb,
                                    config_of(LaneWidth::k512, cone, threads));
      const SetCampaignResult got = sim512.run_set(faults);
      ASSERT_EQ(ref.outcomes.size(), got.outcomes.size()) << label;
      for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
        ASSERT_EQ(ref.outcomes[i], got.outcomes[i])
            << label << " fault (node=" << ref.faults[i].node
            << ", c=" << ref.faults[i].cycle << ")";
      }
    }
  }
}

class Word512SetAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Word512SetAgreement, RandomCircuitCompleteRepCampaign) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_dffs = 14;
  spec.num_gates = 180;
  const Circuit c = circuits::build_random(spec, GetParam());
  const Testbench tb = random_testbench(spec.num_inputs, 20, GetParam() + 9);
  const SetSites sites(c);
  const auto faults = complete_set_fault_list(sites, tb.num_cycles());
  set_cross_check_512(c, tb, faults, "word512-set");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Word512SetAgreement,
                         ::testing::Range<std::uint64_t>(0, 3));

// ---- b14 (slow label) ------------------------------------------------------

TEST(Word512SlowTest, B14SampledSeuAgreesAcrossWidths) {
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 80, 2005);
  const auto faults =
      sample_fault_list(c.num_dffs(), tb.num_cycles(), 3000, 13);
  seu_cross_check_512(c, tb, faults, "b14-word512-seu");
}

TEST(Word512SlowTest, B14SampledMbuMatches64Lanes) {
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 60, 2005);
  const auto faults = random_cluster_fault_list(
      c.num_dffs(), tb.num_cycles(), /*cluster_size=*/2, /*window=*/4, 1500,
      19);
  ParallelFaultSimulator sim64(c, tb, config_of(LaneWidth::k64, true));
  ParallelFaultSimulator sim512(c, tb, config_of(LaneWidth::k512, true));
  const MbuCampaignResult ref = sim64.run_mbu(faults);
  const MbuCampaignResult got = sim512.run_mbu(faults);
  ASSERT_EQ(ref.outcomes.size(), got.outcomes.size());
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    ASSERT_EQ(ref.outcomes[i], got.outcomes[i]) << "b14 mbu fault @" << i;
  }
}

TEST(Word512SlowTest, B14SampledSetAgreesWithSerialReference) {
  const Circuit c = circuits::build_b14();
  const Testbench tb = random_testbench(c.num_inputs(), 60, 2005);
  const SetSites sites(c);
  const auto faults = sample_set_fault_list(sites, tb.num_cycles(), 300, 23);
  set_cross_check_512(c, tb, faults, "b14-word512-set");
}

}  // namespace
}  // namespace femu
