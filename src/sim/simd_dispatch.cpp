#include "sim/simd_dispatch.h"

#include "sim/compiled_kernel.h"

// Word512 runtime dispatch (see simd_dispatch.h). This TU is compiled with
// the baseline flags — the limb fallback instantiated here is safe on any
// host. The AVX-512 implementations live in compiled_kernel_avx512.cpp
// (the only TU built with -mavx512f); FEMU_HAVE_AVX512_TU is defined by
// CMake exactly when that TU's AVX-512 body is compiled in, so the
// references below never dangle.

namespace femu {

#ifdef FEMU_HAVE_AVX512_TU
namespace detail {
// Defined in compiled_kernel_avx512.cpp.
void eval_runs_word512_avx512(std::span<const CompiledKernel::Instr> instrs,
                              std::span<const CompiledKernel::OpRun> runs,
                              Word512* values) noexcept;
void eval_runs_overlay_word512_avx512(
    std::span<const CompiledKernel::Instr> instrs,
    std::span<const CompiledKernel::OpRun> runs, Word512* values,
    std::span<const CompiledKernel::OverlayEntry<Word512>> overlay) noexcept;
}  // namespace detail
#endif

// The portable limb fallback is detail::eval_runs_portable<Word512> and
// detail::eval_runs_overlay_portable<Word512>, instantiated only in this TU,
// under baseline codegen. Deliberately *not* shared template instantiations
// from an AVX-512-flagged TU — mixing those would let the linker resolve a
// weak symbol to AVX-512 code and crash older hosts.

namespace {

bool use_avx512() noexcept {
#ifdef FEMU_HAVE_AVX512_TU
  return cpu_has_avx512f();
#else
  return false;
#endif
}

}  // namespace

bool cpu_has_avx512f() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

const char* word512_simd_path() noexcept {
  return use_avx512() ? "avx512" : "limbs";
}

template <>
void CompiledKernel::eval_runs<Word512>(std::span<const Instr> instrs,
                                        std::span<const OpRun> runs,
                                        Word512* values) {
#ifdef FEMU_HAVE_AVX512_TU
  static const bool avx = use_avx512();
  if (avx) {
    detail::eval_runs_word512_avx512(instrs, runs, values);
    return;
  }
#endif
  detail::eval_runs_portable<Word512>(instrs, runs, values);
}

template <>
void CompiledKernel::eval_runs_overlay<Word512>(
    std::span<const Instr> instrs, std::span<const OpRun> runs,
    Word512* values, std::span<const OverlayEntry<Word512>> overlay) {
#ifdef FEMU_HAVE_AVX512_TU
  static const bool avx = use_avx512();
  if (avx) {
    detail::eval_runs_overlay_word512_avx512(instrs, runs, values, overlay);
    return;
  }
#endif
  detail::eval_runs_overlay_portable<Word512>(instrs, runs, values, overlay);
}

}  // namespace femu
