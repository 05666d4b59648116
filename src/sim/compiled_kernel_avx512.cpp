// AVX-512 Word512 run loops — the only translation unit compiled with
// -mavx512f (CMake option FEMU_AVX512). Everything here is self-contained
// intrinsic code: no shared inline template is instantiated under AVX-512
// codegen, so no weak symbol compiled with zmm instructions can leak into
// the portable link and crash a host without the feature. (The one header
// template used, detail::walk_runs_overlay, is instantiated only with this
// TU's internal-linkage lambdas, which makes the instantiation internal.)
// Callers reach these functions only through the runtime CPUID dispatch in
// simd_dispatch.cpp.

#include "sim/compiled_kernel.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace femu::detail {

namespace {

using Instr = CompiledKernel::Instr;
using OpRun = CompiledKernel::OpRun;

inline __m512i load(const Word512* values, std::uint32_t slot) noexcept {
  return _mm512_loadu_si512(static_cast<const void*>(values + slot));
}

inline void store(Word512* values, std::uint32_t slot, __m512i v) noexcept {
  _mm512_storeu_si512(static_cast<void*>(values + slot), v);
}

/// Broadcasts complement-flag bit `k` of Instr::neg to an all-ones or
/// all-zeros word — the operand XOR mask of the optimizer's absorbed
/// inverters (branch-free; -(bit) sign-extends to the full lane word).
inline __m512i neg_mask(std::uint8_t neg, unsigned k) noexcept {
  return _mm512_set1_epi64(-static_cast<long long>((neg >> k) & 1));
}

/// Instructions [in, last) of one op run (see detail::exec_range in the
/// header for the plain/negated split).
template <CellType Op, bool Negated>
[[gnu::always_inline]] inline void exec_range512(const Instr* in,
                                                 const Instr* last,
                                                 Word512* v) noexcept {
  const __m512i ones = _mm512_set1_epi64(-1);
  for (; in != last; ++in) {
    __m512i a = load(v, in->a);
    if constexpr (Negated) a = _mm512_xor_si512(a, neg_mask(in->neg, 0));
    __m512i r;
    if constexpr (Op == CellType::kBuf) {
      r = a;
    } else if constexpr (Op == CellType::kNot) {
      r = _mm512_xor_si512(a, ones);
    } else {
      __m512i b = load(v, in->b);
      if constexpr (Negated) b = _mm512_xor_si512(b, neg_mask(in->neg, 1));
      if constexpr (Op == CellType::kMux) {
        __m512i c = load(v, in->c);
        if constexpr (Negated) c = _mm512_xor_si512(c, neg_mask(in->neg, 2));
        // (a & c) | (~a & b) — one ternary-logic op on AVX-512.
        r = _mm512_ternarylogic_epi64(a, c, b, 0xCA);
      } else if constexpr (Op == CellType::kAnd) {
        r = _mm512_and_si512(a, b);
      } else if constexpr (Op == CellType::kOr) {
        r = _mm512_or_si512(a, b);
      } else if constexpr (Op == CellType::kNand) {
        r = _mm512_xor_si512(_mm512_and_si512(a, b), ones);
      } else if constexpr (Op == CellType::kNor) {
        r = _mm512_xor_si512(_mm512_or_si512(a, b), ones);
      } else if constexpr (Op == CellType::kXor) {
        r = _mm512_xor_si512(a, b);
      } else {
        static_assert(Op == CellType::kXnor);
        r = _mm512_xor_si512(_mm512_xor_si512(a, b), ones);
      }
    }
    store(v, in->dest, r);
  }
}

template <bool Negated>
[[gnu::always_inline]] inline void exec_run512_op(CellType op,
                                                  const Instr* first,
                                                  const Instr* last,
                                                  Word512* v) noexcept {
  switch (op) {
    case CellType::kBuf:
      return exec_range512<CellType::kBuf, Negated>(first, last, v);
    case CellType::kNot:
      return exec_range512<CellType::kNot, Negated>(first, last, v);
    case CellType::kAnd:
      return exec_range512<CellType::kAnd, Negated>(first, last, v);
    case CellType::kOr:
      return exec_range512<CellType::kOr, Negated>(first, last, v);
    case CellType::kNand:
      return exec_range512<CellType::kNand, Negated>(first, last, v);
    case CellType::kNor:
      return exec_range512<CellType::kNor, Negated>(first, last, v);
    case CellType::kXor:
      return exec_range512<CellType::kXor, Negated>(first, last, v);
    case CellType::kXnor:
      return exec_range512<CellType::kXnor, Negated>(first, last, v);
    case CellType::kMux:
      return exec_range512<CellType::kMux, Negated>(first, last, v);
    default:
      // Sources/DFFs never appear in a program; mirror the portable path's
      // no-op (dests keep their current values) so both dispatch targets
      // behave identically even for an unexpected opcode.
      return;
  }
}

/// One opcode dispatch for a whole op run.
[[gnu::always_inline]] inline void exec_run512(const OpRun& run,
                                               const Instr* first,
                                               const Instr* last,
                                               Word512* v) noexcept {
  if (run.negated != 0) {
    exec_run512_op<true>(run.op, first, last, v);
  } else {
    exec_run512_op<false>(run.op, first, last, v);
  }
}

}  // namespace

void eval_runs_word512_avx512(std::span<const Instr> instrs,
                              std::span<const OpRun> runs,
                              Word512* values) noexcept {
  const Instr* first = instrs.data();
  for (const OpRun& run : runs) {
    const Instr* const last = instrs.data() + run.end;
    exec_run512(run, first, last, values);
    first = last;
  }
}

void eval_runs_overlay_word512_avx512(
    std::span<const Instr> instrs, std::span<const OpRun> runs,
    Word512* values,
    std::span<const CompiledKernel::OverlayEntry<Word512>> overlay) noexcept {
  walk_runs_overlay(
      instrs, runs, overlay,
      [values](const OpRun& run, const Instr* first, const Instr* last) {
        exec_run512(run, first, last, values);
      },
      [values](const CompiledKernel::OverlayEntry<Word512>& e) {
        // (v & keep) ^ flip — one ternary-logic op (imm 0x6A = (a&b)^c).
        store(values, e.dest,
              _mm512_ternarylogic_epi64(
                  load(values, e.dest),
                  _mm512_loadu_si512(static_cast<const void*>(&e.keep)),
                  _mm512_loadu_si512(static_cast<const void*>(&e.flip)),
                  0x6A));
      });
}

}  // namespace femu::detail

#endif  // __AVX512F__
