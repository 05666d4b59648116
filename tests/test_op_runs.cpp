// Run-batched kernel eval (CompiledKernel::eval_runs / eval_runs_overlay):
// every lane word's run loops, and on Word512 both dispatch targets (the
// CPUID-selected path and the portable limb loop), must equal a plain
// per-instruction evaluator on synthetic streams built to stress the
// overlay merge — entries on the first, a middle and the last instruction
// of a run, several entries in one run, entries on dests the stream never
// writes (gaps between non-consecutive dests, below the first and past the
// last), and negated runs. Also checks the full program's run table on the
// raw and optimized kernels of every registered circuit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "circuits/registry.h"
#include "op_runs.h"
#include "sim/compiled_kernel.h"
#include "sim/kernel_opt.h"
#include "sim/simd_dispatch.h"

namespace femu {
namespace {

using Instr = CompiledKernel::Instr;
using OpRun = CompiledKernel::OpRun;

template <typename Word>
Word random_word(std::mt19937_64& rng) {
  if constexpr (std::is_same_v<Word, std::uint64_t>) {
    return rng();
  } else {
    Word w;
    for (auto& limb : w.w) limb = rng();
    return w;
  }
}

/// The reference: one instruction at a time, complement flags per operand,
/// every overlay entry naming the dest applied (in list order) right after
/// the instruction that writes it.
template <typename Word>
void eval_per_instruction(
    std::span<const Instr> instrs, Word* v,
    std::span<const CompiledKernel::OverlayEntry<Word>> overlay) {
  using T = LaneTraits<Word>;
  for (const Instr& in : instrs) {
    const Word a = v[in.a] ^ T::broadcast((in.neg & 1) != 0);
    const Word b = v[in.b] ^ T::broadcast((in.neg & 2) != 0);
    const Word c = v[in.c] ^ T::broadcast((in.neg & 4) != 0);
    Word r = a;
    switch (in.op) {
      case CellType::kBuf: r = a; break;
      case CellType::kNot: r = ~a; break;
      case CellType::kAnd: r = a & b; break;
      case CellType::kOr: r = a | b; break;
      case CellType::kNand: r = ~(a & b); break;
      case CellType::kNor: r = ~(a | b); break;
      case CellType::kXor: r = a ^ b; break;
      case CellType::kXnor: r = ~(a ^ b); break;
      case CellType::kMux: r = (a & c) | (~a & b); break;
      default: FAIL() << "unexpected op"; return;
    }
    v[in.dest] = r;
    for (const auto& e : overlay) {
      if (e.dest == in.dest) v[in.dest] = (v[in.dest] & e.keep) ^ e.flip;
    }
  }
}

constexpr std::uint32_t kSources = 6;

/// A dest-ascending stream with gaps (dest = kSources + 2 * i), operands
/// reading sources or earlier dests, and ops drawn in stretches so runs of
/// 1 to 7 instructions form; about a third of the stretches carry
/// complement flags.
std::vector<Instr> random_stream(std::mt19937_64& rng, std::size_t n) {
  static constexpr CellType kOps[] = {
      CellType::kBuf, CellType::kNot, CellType::kAnd,
      CellType::kOr,  CellType::kNand, CellType::kNor,
      CellType::kXor, CellType::kXnor, CellType::kMux};
  std::vector<Instr> instrs;
  std::vector<std::uint32_t> readable;
  for (std::uint32_t s = 0; s < kSources; ++s) readable.push_back(s);
  while (instrs.size() < n) {
    const CellType op = kOps[rng() % std::size(kOps)];
    const bool negated = rng() % 3 == 0;
    const std::size_t len = 1 + rng() % 7;
    for (std::size_t k = 0; k < len && instrs.size() < n; ++k) {
      Instr in;
      in.dest = kSources + 2 * static_cast<std::uint32_t>(instrs.size());
      in.op = op;
      in.a = readable[rng() % readable.size()];
      in.b = readable[rng() % readable.size()];
      in.c = readable[rng() % readable.size()];
      in.neg = negated ? static_cast<std::uint8_t>(1 + rng() % 7) : 0;
      instrs.push_back(in);
      readable.push_back(in.dest);
    }
  }
  return instrs;
}

/// Overlay positions per run k: k % 4 == 0 the first instruction, 1 a
/// middle one, 2 the last, 3 all three (several entries in one run); plus
/// an unwritten dest inside every other run's dest range, one below the
/// first dest and one past the last, and a second entry on one dest.
template <typename Word>
std::vector<CompiledKernel::OverlayEntry<Word>> make_overlay(
    std::mt19937_64& rng, std::span<const Instr> instrs,
    std::span<const OpRun> runs) {
  std::vector<std::uint32_t> dests;
  std::uint32_t begin = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const std::uint32_t end = runs[k].end;
    const std::uint32_t mid = begin + (end - begin) / 2;
    switch (k % 4) {
      case 0: dests.push_back(instrs[begin].dest); break;
      case 1: dests.push_back(instrs[mid].dest); break;
      case 2: dests.push_back(instrs[end - 1].dest); break;
      default:
        dests.push_back(instrs[begin].dest);
        dests.push_back(instrs[mid].dest);
        dests.push_back(instrs[end - 1].dest);
        break;
    }
    if (k % 2 == 1 && end - begin >= 2) {
      dests.push_back(instrs[begin].dest + 1);  // the gap after it
    }
    begin = end;
  }
  dests.push_back(0);  // a source slot, below every dest
  dests.push_back(instrs.back().dest + 1);
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  const std::uint32_t twice = instrs[instrs.size() / 3].dest;
  dests.insert(std::lower_bound(dests.begin(), dests.end(), twice), twice);

  std::vector<CompiledKernel::OverlayEntry<Word>> overlay;
  for (const std::uint32_t d : dests) {
    overlay.push_back({d, random_word<Word>(rng), random_word<Word>(rng)});
  }
  return overlay;
}

template <typename Word>
class RunEvalTest : public ::testing::Test {};

using LaneWords = ::testing::Types<std::uint64_t, Word256, Word512>;
TYPED_TEST_SUITE(RunEvalTest, LaneWords);

template <typename Word>
struct Path {
  const char* name;
  void (*plain)(std::span<const Instr>, std::span<const OpRun>, Word*);
  void (*overlay)(std::span<const Instr>, std::span<const OpRun>, Word*,
                  std::span<const CompiledKernel::OverlayEntry<Word>>);
};

/// The paths a lane word evaluates through: the public entry points, and
/// for Word512 additionally the portable limb loops (the CPUID dispatch
/// picks AVX-512 on hosts that have it, so the limb loops are called
/// directly).
template <typename Word>
std::vector<Path<Word>> paths() {
  std::vector<Path<Word>> out = {
      {"dispatched", &CompiledKernel::eval_runs<Word>,
       &CompiledKernel::eval_runs_overlay<Word>}};
  if constexpr (std::is_same_v<Word, Word512>) {
    out.push_back({"limbs", &detail::eval_runs_portable<Word512>,
                   &detail::eval_runs_overlay_portable<Word512>});
  }
  return out;
}

TYPED_TEST(RunEvalTest, MatchesPerInstructionEvaluatorWithAndWithoutOverlay) {
  using Word = TypeParam;
  SCOPED_TRACE(std::string("word512 path: ") + word512_simd_path());
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const std::vector<Instr> instrs = random_stream(rng, 20 + seed * 5);
    std::vector<OpRun> runs;
    CompiledKernel::build_runs(instrs, runs);
    expect_op_runs_valid(instrs, runs);
    const auto overlay = make_overlay<Word>(rng, instrs, runs);

    const std::size_t slots = instrs.back().dest + 2;
    std::vector<Word> init(slots);
    for (auto& w : init) w = random_word<Word>(rng);

    std::vector<Word> want_plain = init;
    eval_per_instruction<Word>(instrs, want_plain.data(), {});
    std::vector<Word> want_overlay = init;
    eval_per_instruction<Word>(instrs, want_overlay.data(), overlay);
    ASSERT_NE(want_plain, want_overlay) << "seed " << seed;

    for (const Path<Word>& path : paths<Word>()) {
      SCOPED_TRACE(std::string(path.name) + " seed " + std::to_string(seed));
      std::vector<Word> got = init;
      path.plain(instrs, runs, got.data());
      EXPECT_TRUE(got == want_plain);

      got = init;
      path.overlay(instrs, runs, got.data(), overlay);
      EXPECT_TRUE(got == want_overlay);

      // An empty overlay is the plain loop.
      got = init;
      path.overlay(instrs, runs, got.data(), {});
      EXPECT_TRUE(got == want_plain);
    }
  }
}

TYPED_TEST(RunEvalTest, SingleRunStreamSplitsAtEveryPosition) {
  // One long AND run; an entry on each single position in turn, then on
  // every position at once.
  using Word = TypeParam;
  std::mt19937_64 rng(77);
  std::vector<Instr> instrs;
  for (std::uint32_t i = 0; i < 9; ++i) {
    Instr in;
    in.dest = kSources + 2 * i;
    in.op = CellType::kAnd;
    in.a = i == 0 ? 0 : in.dest - 2;
    in.b = 1 + i % (kSources - 1);
    in.c = in.a;
    instrs.push_back(in);
  }
  std::vector<OpRun> runs;
  CompiledKernel::build_runs(instrs, runs);
  ASSERT_EQ(runs.size(), 1u);

  std::vector<Word> init(instrs.back().dest + 1);
  for (auto& w : init) w = random_word<Word>(rng);
  std::vector<CompiledKernel::OverlayEntry<Word>> all;
  for (const Instr& target : instrs) {
    const std::vector<CompiledKernel::OverlayEntry<Word>> one = {
        {target.dest, random_word<Word>(rng), random_word<Word>(rng)}};
    all.push_back(one.front());
    std::vector<Word> want = init;
    eval_per_instruction<Word>(instrs, want.data(), one);
    for (const Path<Word>& path : paths<Word>()) {
      std::vector<Word> got = init;
      path.overlay(instrs, runs, got.data(), one);
      EXPECT_TRUE(got == want) << path.name << " dest " << target.dest;
    }
  }
  std::vector<Word> want = init;
  eval_per_instruction<Word>(instrs, want.data(), all);
  for (const Path<Word>& path : paths<Word>()) {
    std::vector<Word> got = init;
    path.overlay(instrs, runs, got.data(), all);
    EXPECT_TRUE(got == want) << path.name;
  }
}

TEST(OpRunTableTest, FullProgramsOfRegisteredCircuits) {
  for (const char* name : {"b06_like", "b09_like", "b14"}) {
    SCOPED_TRACE(name);
    const Circuit c = circuits::build_by_name(name);
    const auto raw = compile_kernel(c);
    expect_op_runs_valid(raw->program(), raw->program_runs());
    for (const OpRun& run : raw->program_runs()) {
      EXPECT_EQ(run.negated, 0) << "lowering emits no complement flags";
    }
    const auto opt = optimize_kernel(raw, {});
    expect_op_runs_valid(opt->program(), opt->program_runs());
  }
}

}  // namespace
}  // namespace femu
