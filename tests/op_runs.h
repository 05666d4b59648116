#pragma once

// Op-run table invariants (CompiledKernel::OpRun), shared by the kernel,
// sub-program and artifact-cache tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <tuple>

#include "sim/compiled_kernel.h"

namespace femu {

/// `runs` is the op-run table of `instrs`: the runs partition
/// [0, instrs.size()) in order, each run is uniform in op and neg != 0, and
/// adjacent runs differ (every run is maximal).
inline void expect_op_runs_valid(std::span<const CompiledKernel::Instr> instrs,
                                 std::span<const CompiledKernel::OpRun> runs) {
  EXPECT_EQ(runs.empty(), instrs.empty());
  std::size_t begin = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const CompiledKernel::OpRun& run = runs[k];
    ASSERT_GT(run.end, begin) << "run " << k << " is empty or out of order";
    ASSERT_LE(run.end, instrs.size()) << "run " << k;
    for (std::size_t i = begin; i < run.end; ++i) {
      EXPECT_EQ(instrs[i].op, run.op) << "run " << k << " instr " << i;
      EXPECT_EQ(instrs[i].neg != 0, run.negated != 0)
          << "run " << k << " instr " << i;
    }
    if (k > 0) {
      EXPECT_FALSE(runs[k - 1].op == run.op &&
                   runs[k - 1].negated == run.negated)
          << "runs " << k - 1 << " and " << k << " should be one run";
    }
    begin = run.end;
  }
  EXPECT_EQ(begin, instrs.size());
}

/// A levelized sub-program stream is sorted by (level, op, neg != 0,
/// node id) of its global destinations — strictly, since node ids are
/// unique.
inline void expect_levelized_order(const CompiledKernel& kernel,
                                   const CompiledKernel::ConeSubProgram& sp) {
  const auto levels = kernel.levels();
  const auto key = [&](const CompiledKernel::Instr& in) {
    const std::uint32_t global = sp.global_of_local[in.dest];
    return std::tuple{levels[global], static_cast<std::uint8_t>(in.op),
                      in.neg != 0, global};
  };
  for (std::size_t i = 1; i < sp.instrs.size(); ++i) {
    EXPECT_LT(key(sp.instrs[i - 1]), key(sp.instrs[i])) << "instr " << i;
  }
}

}  // namespace femu
