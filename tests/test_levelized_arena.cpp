// Levelized arena blocking (CompiledKernel::build_subprogram levelize flag):
// the reordered sub-program must be a pure layout change — same instruction
// multiset, strictly-ascending arena destinations, bit-identical lane states
// against the unordered build on random circuits, including post-narrow_from
// re-derivations and overlay-carrying (SET / stuck-at style) evaluation. The
// campaign engine always levelizes; the unordered build is the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuits/generators.h"
#include "netlist/fanout_cones.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"
#include "sim/golden_slots.h"
#include "sim/golden_words.h"
#include "stim/generate.h"

namespace femu {
namespace {

using Word = std::uint64_t;
using Overlay = CompiledKernel::OverlayEntry<Word>;

Circuit random_circuit(std::uint64_t seed) {
  circuits::RandomCircuitSpec spec;
  spec.num_inputs = 5;
  spec.num_outputs = 4;
  spec.num_dffs = 16;
  spec.num_gates = 160;
  return circuits::build_random(spec, seed);
}

// Cone union of a handful of FFs — the shape a campaign group derives.
std::vector<std::uint64_t> union_mask(const FanoutCones& cones,
                                      std::span<const std::size_t> ffs) {
  std::vector<std::uint64_t> mask(cones.words_per_cone(), 0);
  for (const std::size_t ff : ffs) cones.union_into(mask, ff);
  return mask;
}

// ---- structural properties -------------------------------------------------

TEST(LevelizedArenaTest, LevelsAreTopological) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Circuit c = random_circuit(seed);
    const auto kernel = compile_kernel(c);
    const auto levels = kernel->levels();
    for (const auto& in : kernel->program()) {
      const std::uint32_t fanin_level =
          std::max({levels[in.a], levels[in.b], levels[in.c]});
      EXPECT_EQ(levels[in.dest], fanin_level + 1);
      EXPECT_GT(levels[in.dest], levels[in.a]);
      EXPECT_GT(levels[in.dest], levels[in.b]);
      EXPECT_GT(levels[in.dest], levels[in.c]);
    }
    for (const NodeId id : c.inputs()) EXPECT_EQ(levels[id], 0u);
    for (const NodeId id : c.dffs()) EXPECT_EQ(levels[id], 0u);
  }
}

TEST(LevelizedArenaTest, ReorderIsAPermutationWithAscendingArenaDests) {
  const Circuit c = random_circuit(5);
  const auto kernel = compile_kernel(c);
  const FanoutCones cones(c);
  const auto levels = kernel->levels();
  CompiledKernel::ConeSubProgram lev;
  CompiledKernel::ConeSubProgram unlev;
  for (std::size_t ff = 0; ff < cones.num_ffs(); ++ff) {
    kernel->build_subprogram(cones.cone(ff), lev, nullptr, true);
    kernel->build_subprogram(cones.cone(ff), unlev, nullptr, false);

    // Same instruction multiset (destinations are unique node ids, so the
    // sorted global-dest sequences must match), same arena size, same
    // boundary reads.
    ASSERT_EQ(lev.instrs.size(), unlev.instrs.size());
    EXPECT_EQ(lev.arena_slots, unlev.arena_slots);
    std::vector<std::uint32_t> lev_dests;
    std::vector<std::uint32_t> unlev_dests;
    for (const auto& in : lev.instrs) {
      lev_dests.push_back(lev.global_of_local[in.dest]);
    }
    for (const auto& in : unlev.instrs) {
      unlev_dests.push_back(unlev.global_of_local[in.dest]);
    }
    auto sorted_lev = lev_dests;
    std::sort(sorted_lev.begin(), sorted_lev.end());
    std::sort(unlev_dests.begin(), unlev_dests.end());
    EXPECT_EQ(sorted_lev, unlev_dests);

    // The levelized stream is ordered by (level, node id) ...
    for (std::size_t i = 1; i < lev_dests.size(); ++i) {
      const auto key = [&](std::uint32_t d) {
        return std::pair{levels[d], d};
      };
      EXPECT_LT(key(lev_dests[i - 1]), key(lev_dests[i]));
    }
    // ... and arena destinations stay strictly ascending in both builds
    // (the overlay-merge invariant).
    for (const auto* sp : {&lev, &unlev}) {
      for (std::size_t i = 1; i < sp->instrs.size(); ++i) {
        EXPECT_GT(sp->instrs[i].dest, sp->instrs[i - 1].dest);
      }
    }
    // Operands always read slots already materialised: loaded leading block
    // or an earlier instruction's destination.
    for (std::size_t i = 0; i < lev.instrs.size(); ++i) {
      EXPECT_LT(lev.instrs[i].a, lev.instrs[i].dest);
      EXPECT_LT(lev.instrs[i].b, lev.instrs[i].dest);
      EXPECT_LT(lev.instrs[i].c, lev.instrs[i].dest);
    }
  }
}

TEST(LevelizedArenaTest, NarrowFromLevelizedMatchesFreshLevelizedBuild) {
  // A narrowing derivation inherits the source's order; since a subsequence
  // of a (level, node id)-sorted stream is still sorted by that key, the
  // narrowed sub-program must be structurally identical to a fresh levelized
  // build of the subset mask.
  const Circuit c = random_circuit(7);
  const auto kernel = compile_kernel(c);
  const FanoutCones cones(c);
  const std::vector<std::size_t> group_ffs = {0, 3, 7, 11};
  const auto full_mask = union_mask(cones, group_ffs);
  CompiledKernel::ConeSubProgram full;
  kernel->build_subprogram(full_mask, full, nullptr, true);

  for (const std::size_t ff : group_ffs) {
    CompiledKernel::ConeSubProgram narrowed;
    kernel->build_subprogram(cones.cone(ff), narrowed, &full, true);
    CompiledKernel::ConeSubProgram fresh;
    kernel->build_subprogram(cones.cone(ff), fresh, nullptr, true);

    ASSERT_EQ(narrowed.instrs.size(), fresh.instrs.size());
    EXPECT_EQ(narrowed.arena_slots, fresh.arena_slots);
    for (std::size_t i = 0; i < fresh.instrs.size(); ++i) {
      EXPECT_EQ(narrowed.global_of_local[narrowed.instrs[i].dest],
                fresh.global_of_local[fresh.instrs[i].dest]);
      EXPECT_EQ(narrowed.instrs[i].op, fresh.instrs[i].op);
    }
    // Boundary slots are discovered during pass 1 (pre-sort stream order on
    // a fresh build, sorted order on a narrowing one) — same set, order may
    // differ.
    auto narrowed_boundary = narrowed.boundary_slots;
    auto fresh_boundary = fresh.boundary_slots;
    std::sort(narrowed_boundary.begin(), narrowed_boundary.end());
    std::sort(fresh_boundary.begin(), fresh_boundary.end());
    EXPECT_EQ(narrowed_boundary, fresh_boundary);
    EXPECT_EQ(narrowed.dff_indices, fresh.dff_indices);
    EXPECT_EQ(narrowed.out_indices, fresh.out_indices);
  }
}

// ---- bit-identical lane states ---------------------------------------------

// Drives two 64-lane engines over the same cone sub-program — one levelized,
// one not — with divergent lanes seeded by FF flips and (optionally) a
// per-cycle XOR/force overlay, asserting identical mismatch words and
// identical per-FF lane state every cycle.
void drive_and_compare(const Circuit& c, const Testbench& tb,
                       std::span<const std::size_t> group_ffs,
                       bool with_overlay, bool force_overlay) {
  const auto kernel = compile_kernel(c);
  const FanoutCones cones(c);
  const auto mask = union_mask(cones, group_ffs);
  const GoldenSlotTrace slots = capture_golden_slots(*kernel, tb.vectors());
  const GoldenTrace golden = capture_golden(c, tb.vectors());
  const GoldenWordImage<Word> image(golden, tb.vectors());

  CompiledKernel::ConeSubProgram lev;
  CompiledKernel::ConeSubProgram unlev;
  kernel->build_subprogram(mask, lev, nullptr, true);
  kernel->build_subprogram(mask, unlev, nullptr, false);

  LaneEngine<Word> a(kernel);
  LaneEngine<Word> b(kernel);
  a.broadcast_state(golden.states[0]);
  b.broadcast_state(golden.states[0]);
  // Seed distinct divergences: lane k flips group FF k (lane 63 stays
  // golden as a control).
  for (std::size_t k = 0; k < group_ffs.size(); ++k) {
    // FanoutCones::cone(ff) indexes FFs by position in the circuit's DFF
    // list, same index space as LaneEngine state words.
    a.flip_state_bit(group_ffs[k], static_cast<unsigned>(k));
    b.flip_state_bit(group_ffs[k], static_cast<unsigned>(k));
  }

  // Overlay targets: the SAME global gate nodes for both engines (picked in
  // node-id order so the choice is layout-independent), translated per build
  // into that build's arena indices — which differ between the two layouts —
  // XORing or forcing alternating lanes every cycle.
  std::vector<std::uint32_t> target_globals;
  for (const auto& in : kernel->program()) {
    if (in.dest % 5 == 0 && FanoutCones::test(mask, in.dest)) {
      target_globals.push_back(in.dest);
      if (target_globals.size() == 4) break;
    }
  }
  ASSERT_FALSE(target_globals.empty());
  const auto make_overlay = [&](const CompiledKernel::ConeSubProgram& sp) {
    std::vector<Overlay> overlay;
    const Word lanes = 0xAAAA'AAAA'AAAA'AAAAull;
    for (std::size_t k = 0; k < target_globals.size(); ++k) {
      const std::uint32_t local = sp.local_of_slot[target_globals[k]];
      overlay.push_back(force_overlay
                            ? CompiledKernel::overlay_force(local, lanes,
                                                            (k & 1) != 0)
                            : CompiledKernel::overlay_xor(local, lanes));
    }
    std::sort(overlay.begin(), overlay.end(),
              [](const Overlay& x, const Overlay& y) { return x.dest < y.dest; });
    return overlay;
  };
  const std::vector<Overlay> overlay_a = make_overlay(lev);
  const std::vector<Overlay> overlay_b = make_overlay(unlev);
  ASSERT_EQ(overlay_a.size(), overlay_b.size());

  for (std::size_t t = 0; t < tb.num_cycles(); ++t) {
    if (with_overlay) {
      a.eval_cone_overlay(lev, slots.at(t), overlay_a);
      b.eval_cone_overlay(unlev, slots.at(t), overlay_b);
    } else {
      a.eval_cone(lev, slots.at(t));
      b.eval_cone(unlev, slots.at(t));
    }
    const Word out_a = a.output_mismatch_lanes_cone(lev, image.outputs(t));
    const Word out_b = b.output_mismatch_lanes_cone(unlev, image.outputs(t));
    ASSERT_EQ(out_a, out_b) << "cycle " << t;
    const Word state_a = a.step_cone_mismatch(lev, image.states(t + 1));
    const Word state_b = b.step_cone_mismatch(unlev, image.states(t + 1));
    ASSERT_EQ(state_a, state_b) << "cycle " << t;
    for (const std::uint32_t ff : lev.dff_indices) {
      ASSERT_EQ(a.state_word(ff), b.state_word(ff))
          << "cycle " << t << " ff " << ff;
    }
    // The control lane never left golden without an overlay.
    if (!with_overlay) {
      EXPECT_EQ((out_a >> 63) & 1, 0u);
    }
  }
}

TEST(LevelizedArenaTest, LaneStatesBitIdenticalOnRandomCircuits) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const Circuit c = random_circuit(seed);
    const Testbench tb = random_testbench(c.num_inputs(), 28, seed);
    drive_and_compare(c, tb, std::vector<std::size_t>{0, 2, 5, 9},
                      /*with_overlay=*/false, /*force_overlay=*/false);
  }
}

TEST(LevelizedArenaTest, LaneStatesBitIdenticalWithXorOverlay) {
  const Circuit c = random_circuit(21);
  const Testbench tb = random_testbench(c.num_inputs(), 24, 22);
  drive_and_compare(c, tb, std::vector<std::size_t>{1, 4, 6},
                    /*with_overlay=*/true, /*force_overlay=*/false);
}

TEST(LevelizedArenaTest, LaneStatesBitIdenticalWithForceOverlay) {
  const Circuit c = random_circuit(23);
  const Testbench tb = random_testbench(c.num_inputs(), 24, 24);
  drive_and_compare(c, tb, std::vector<std::size_t>{0, 3, 8},
                    /*with_overlay=*/true, /*force_overlay=*/true);
}

}  // namespace
}  // namespace femu
