// Campaign construction is serial. The builders still accept a build
// thread count (until its last callers go), and no thread count may ever
// change a result: these tests pin that on {1, 4, 8} build threads, pin the
// unified capture against the two separate passes it replaced, and check its
// word-packed slot snapshots bit by bit against the interpreted simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "netlist/bench_io.h"
#include "netlist/fanout_cones.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"
#include "sim/golden_slots.h"
#include "sim/golden_words.h"
#include "sim/levelized_sim.h"
#include "stim/generate.h"

namespace femu {
namespace {

constexpr unsigned kThreadCounts[] = {1, 4, 8};

std::vector<Circuit> test_circuits() {
  std::vector<Circuit> circuits;
  circuits.push_back(circuits::build_pipeline(4, 8));    // tiny: ranges clamp
  circuits.push_back(circuits::build_pipeline(8, 32));   // ~1.5k nodes
  return circuits;
}

// ---- cone structures -------------------------------------------------------

TEST(ParallelBuild, FanoutConesBitIdenticalAcrossThreadCounts) {
  for (const Circuit& circuit : test_circuits()) {
    const FanoutCones serial(circuit, 1);
    for (const unsigned threads : kThreadCounts) {
      const FanoutCones parallel(circuit, threads);
      ASSERT_EQ(parallel.num_ffs(), serial.num_ffs());
      ASSERT_EQ(parallel.words_per_cone(), serial.words_per_cone());
      for (std::size_t ff = 0; ff < serial.num_ffs(); ++ff) {
        const auto a = serial.cone(ff);
        const auto b = parallel.cone(ff);
        ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
            << circuit.name() << " ff " << ff << " threads " << threads;
        ASSERT_EQ(parallel.cone_gates(ff), serial.cone_gates(ff));
      }
    }
  }
}

TEST(ParallelBuild, ConeOracleMatchesSerialAndEagerCones) {
  for (const Circuit& circuit : test_circuits()) {
    const FanoutCones eager(circuit, 1);
    const ConeOracle serial(circuit, 1);
    const ConeOracle parallel(circuit, 4);
    ASSERT_EQ(serial.words_per_cone(), eager.words_per_cone());
    std::vector<std::uint64_t> from_serial(serial.words_per_cone());
    std::vector<std::uint64_t> from_parallel(serial.words_per_cone());
    for (std::size_t ff = 0; ff < circuit.num_dffs(); ++ff) {
      std::fill(from_serial.begin(), from_serial.end(), 0);
      std::fill(from_parallel.begin(), from_parallel.end(), 0);
      serial.union_into_ff(from_serial, ff);
      parallel.union_into_ff(from_parallel, ff);
      EXPECT_EQ(from_serial, from_parallel) << circuit.name() << " ff " << ff;
      const auto expected = eager.cone(ff);
      ASSERT_EQ(std::memcmp(from_serial.data(), expected.data(),
                            expected.size_bytes()),
                0)
          << circuit.name() << " ff " << ff;
    }
  }
}

// ---- unified golden capture ------------------------------------------------

TEST(ParallelBuild, UnifiedCaptureMatchesSeparatePasses) {
  for (const Circuit& circuit : test_circuits()) {
    const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
    const auto kernel = compile_kernel(circuit);

    // The references the unified walk replaced: the interpreter's golden
    // trace (also what the serial references still use) and the
    // dedicated slot-trace pass.
    const GoldenTrace ref_trace = capture_golden(circuit, tb.vectors());
    const GoldenSlotTrace ref_slots =
        capture_golden_slots(*kernel, tb.vectors());

    const GoldenCapture cap =
        capture_golden_unified(*kernel, tb.vectors(), 1, true);
    EXPECT_EQ(cap.trace.states, ref_trace.states) << circuit.name();
    EXPECT_EQ(cap.trace.outputs, ref_trace.outputs) << circuit.name();
    EXPECT_EQ(cap.slots.num_slots, ref_slots.num_slots);
    EXPECT_EQ(cap.slots.cycles, ref_slots.cycles) << circuit.name();
  }
}

TEST(ParallelBuild, UnifiedCaptureBitIdenticalAcrossThreadCounts) {
  for (const Circuit& circuit : test_circuits()) {
    const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
    const auto kernel = compile_kernel(circuit);
    const GoldenCapture serial =
        capture_golden_unified(*kernel, tb.vectors(), 1, true);
    for (const unsigned threads : kThreadCounts) {
      const GoldenCapture parallel =
          capture_golden_unified(*kernel, tb.vectors(), threads, true);
      EXPECT_EQ(parallel.trace.states, serial.trace.states);
      EXPECT_EQ(parallel.trace.outputs, serial.trace.outputs);
      EXPECT_EQ(parallel.slots.cycles, serial.slots.cycles)
          << circuit.name() << " threads " << threads;
    }
  }
}

/// Every bit of `slots` equals the interpreted simulator's settled node
/// value at that cycle (slot index == node id), and the bits past
/// `num_slots` in each cycle's last word are zero. The interpreter shares no
/// code with the compiled kernel's packed snapshots, so a packing bug
/// cannot cancel out here.
void expect_slots_match_interpreter(const Circuit& circuit,
                                    const Testbench& tb,
                                    const GoldenSlotTrace& slots) {
  ASSERT_EQ(slots.num_slots, circuit.node_count()) << circuit.name();
  ASSERT_EQ(slots.num_cycles(), tb.num_cycles()) << circuit.name();
  LevelizedSimulator sim(circuit, SimBackend::kInterpreted);
  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    sim.eval(tb.vectors()[t]);
    const BitVec& snap = slots.at(t);
    ASSERT_EQ(snap.size(), slots.num_slots);
    for (NodeId id = 0; id < slots.num_slots; ++id) {
      ASSERT_EQ(snap.get(id), sim.value(id))
          << circuit.name() << " cycle " << t << " node " << id;
    }
    const std::size_t tail = slots.num_slots % 64;
    if (tail != 0) {
      EXPECT_EQ(snap.words().back() >> tail, 0u)
          << circuit.name() << " cycle " << t;
    }
    sim.step();
  }
}

TEST(ParallelBuild, PackedSlotSnapshotsMatchInterpreter) {
  std::vector<Circuit> circuits;
  circuits.push_back(circuits::build_b14());  // 2,379 slots: partial word
  circuits.push_back(
      load_bench_file(std::string(FEMU_TESTS_DIR) + "/s27.bench"));
  for (const Circuit& circuit : circuits) {
    const Testbench tb = random_testbench(circuit.num_inputs(), 40, 2005);
    const auto kernel = compile_kernel(circuit);
    expect_slots_match_interpreter(
        circuit, tb, capture_golden_unified(*kernel, tb.vectors()).slots);
  }
}

// ---- word-image broadcasts -------------------------------------------------

template <typename Word>
void expect_images_equal(const GoldenWordImage<Word>& a,
                         const GoldenWordImage<Word>& b, std::size_t cycles) {
  for (std::size_t t = 0; t < cycles; ++t) {
    const auto oa = a.outputs(t);
    const auto ob = b.outputs(t);
    ASSERT_EQ(oa.size(), ob.size());
    ASSERT_EQ(std::memcmp(oa.data(), ob.data(), oa.size_bytes()), 0);
    const auto sa = a.states(t);
    const auto sb = b.states(t);
    ASSERT_EQ(sa.size(), sb.size());
    ASSERT_EQ(std::memcmp(sa.data(), sb.data(), sa.size_bytes()), 0);
    const auto ia = a.inputs(t);
    const auto ib = b.inputs(t);
    ASSERT_EQ(ia.size(), ib.size());
    ASSERT_EQ(std::memcmp(ia.data(), ib.data(), ia.size_bytes()), 0);
  }
}

TEST(ParallelBuild, WordImageBitIdenticalAcrossThreadCounts) {
  const Circuit circuit = circuits::build_pipeline(8, 32);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const GoldenTrace trace = capture_golden(circuit, tb.vectors());
  const GoldenWordImage<std::uint64_t> serial64(trace, tb.vectors(), 1);
  const GoldenWordImage<Word512> serial512(trace, tb.vectors(), 1);
  for (const unsigned threads : kThreadCounts) {
    const GoldenWordImage<std::uint64_t> par64(trace, tb.vectors(), threads);
    expect_images_equal(serial64, par64, tb.num_cycles());
    const GoldenWordImage<Word512> par512(trace, tb.vectors(), threads);
    expect_images_equal(serial512, par512, tb.num_cycles());
  }
}

// ---- end-to-end: construction thread count never changes the grading -------

TEST(ParallelBuild, ClassificationsInvariantAcrossBuildThreads) {
  const Circuit circuit = circuits::build_pipeline(8, 32);
  const Testbench tb = random_testbench(circuit.num_inputs(), 24, 2005);
  const auto faults = complete_fault_list(circuit.num_dffs(), tb.num_cycles());

  ClassCounts reference;
  bool have_reference = false;
  for (const unsigned threads : kThreadCounts) {
    CampaignConfig config;
    config.cone_restricted = true;
    config.schedule = CampaignSchedule::kConeAffine;
    config.num_threads = threads;
    ParallelFaultSimulator sim(circuit, tb, config);
    const ClassCounts counts = sim.run(faults).counts();
    if (!have_reference) {
      reference = counts;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(counts.failure, reference.failure) << "threads " << threads;
    EXPECT_EQ(counts.latent, reference.latent) << "threads " << threads;
    EXPECT_EQ(counts.silent, reference.silent) << "threads " << threads;
  }
}

}  // namespace
}  // namespace femu
