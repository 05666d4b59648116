#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "netlist/circuit.h"
#include "sim/lane_word.h"

namespace femu {

struct ArtifactCacheAccess;

/// Which evaluation backend the scalar LevelizedSimulator runs on.
///
/// kInterpreted walks the Circuit object graph every cycle (type lookup,
/// fanin-span chase per node) — kept as a test oracle for the compiled
/// kernel and as the baseline kernels_microbench measures the scalar
/// speedup against. kCompiled executes a CompiledKernel instruction stream.
/// Every lane-parallel engine is compiled-only.
enum class SimBackend : std::uint8_t {
  kInterpreted,
  kCompiled,
};

/// A Circuit lowered once into a flat, cache-friendly instruction stream.
///
/// Lowering resolves everything the interpreted engines re-derive per node
/// per cycle: the program holds only combinational cells, in topological
/// (node-id) order, with the opcode and the fanin value-slot indices baked
/// into each instruction. Sources are handled by precomputed index tables:
/// primary inputs and DFF Q pins are written into their slots before eval,
/// constants are written once by init(), and DFF D / output drivers are read
/// through dff_d_slots() / output_slots().
///
/// The kernel is execution-state-free and therefore shareable: one kernel
/// serves any number of engines concurrently (the threaded campaign sharder
/// builds one kernel and hands it to every worker). The eval loop is
/// templated on the lane word type, so the same program runs the scalar
/// (Word8), 64-lane (uint64_t) and 256-lane (Word256) engines.
class CompiledKernel {
 public:
  struct Instr {
    std::uint32_t dest = 0;
    std::uint32_t a = 0;  // fanin 0 slot (mux: select)
    std::uint32_t b = 0;  // fanin 1 slot (mux: d0); == a for unary cells
    std::uint32_t c = 0;  // fanin 2 slot (mux: d1); == a when unused
    CellType op = CellType::kBuf;
    /// Per-operand complement flags (bit 0 → ~a, bit 1 → ~b, bit 2 → ~c):
    /// the optimizer absorbs BUF/NOT producers into their consumers by
    /// flipping these bits instead of keeping the inverter instruction
    /// around (see sim/kernel_opt.h). Lowering always emits 0; every eval
    /// path (generic, AVX-512, limb fallback) honours the flags
    /// branch-free, and sub-program derivation copies them verbatim.
    std::uint8_t neg = 0;
  };

  /// One op run of an instruction stream: a maximal stretch of consecutive
  /// instructions sharing `op` and "carries complement flags" (neg != 0).
  /// The eval loops dispatch on the opcode once per run and then execute
  /// the run's instructions in a branch-free inner loop, so the per-
  /// instruction cost is the gate itself, not an indirect jump. Runs are
  /// stored as a table parallel to their stream: run k covers instructions
  /// [runs[k-1].end, runs[k].end) (run 0 starts at 0), and the last run
  /// ends at the stream's size. Derived from the stream by build_runs();
  /// never serialized.
  struct OpRun {
    std::uint32_t end = 0;  ///< one past the run's last instruction
    CellType op = CellType::kBuf;
    std::uint8_t negated = 0;  ///< 1 when every instruction has neg != 0
  };

  /// Rebuilds `runs` as the op-run table of `instrs` (reuses its storage).
  static void build_runs(std::span<const Instr> instrs,
                         std::vector<OpRun>& runs);

  /// Lowers `circuit` (validates it first). The circuit must outlive the
  /// kernel — the kernel keeps a reference for diagnostics and index order.
  explicit CompiledKernel(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }

  /// One value slot per circuit node; slot index == NodeId.
  [[nodiscard]] std::size_t num_slots() const noexcept { return num_slots_; }

  [[nodiscard]] std::span<const Instr> program() const noexcept {
    return program_;
  }
  /// Op-run table of program() (see OpRun).
  [[nodiscard]] std::span<const OpRun> program_runs() const noexcept {
    return program_runs_;
  }

  /// Combinational logic level per value slot: 0 for sources (inputs, DFF Q
  /// pins, constants), 1 + max(fanin levels) for gate outputs. Drives the
  /// levelized arena layout of cone sub-programs (see build_subprogram).
  [[nodiscard]] std::span<const std::uint32_t> levels() const noexcept {
    return levels_;
  }

  [[nodiscard]] std::span<const std::uint32_t> input_slots() const noexcept {
    return input_slots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> dff_slots() const noexcept {
    return dff_slots_;
  }
  /// Slot of the D-pin driver of DFF i (read by step()).
  [[nodiscard]] std::span<const std::uint32_t> dff_d_slots() const noexcept {
    return dff_d_slots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> output_slots() const noexcept {
    return output_slots_;
  }

  /// A cone-restricted view of the program: the instructions whose
  /// destination lies inside a node-id bitset (a fanout-cone union), plus the
  /// index tables the differential engine needs each cycle. Derived from a
  /// kernel via build_subprogram(); the vectors are reused across
  /// re-derivations (narrowing) without reallocating.
  ///
  /// **Cache-blocked slot arena.** The sub-program does not evaluate against
  /// the kernel's full slot array (one word per circuit node — for a
  /// 100k-gate circuit at Word512 that is several MB a cone eval would
  /// gather across). Instead derivation renumbers every slot the sub-program
  /// touches into a dense local *arena*: golden/boundary words and cone DFF
  /// state words get the leading arena slots, then each instruction's
  /// destination gets the next slot in levelized stream order. Instruction
  /// operands are rewritten to arena indices, so evaluation streams linearly
  /// over an arena sized to the cone (cone + boundary slots only) — the
  /// working set of a small cone fits in L1/L2 at any lane width. Local
  /// destinations stay strictly ascending (the overlay-merge invariant).
  ///
  ///   instrs          — program() filtered to cone destinations, sorted by
  ///                     (level, op, neg != 0, node id) when the build
  ///                     levelizes (see below), operands/destinations in
  ///                     arena space
  ///   runs            — op-run table of instrs (see OpRun)
  ///   arena_slots     — arena size in words
  ///   global_of_local — arena index -> kernel slot (node id)
  ///   local_of_slot   — kernel slot -> arena index; valid only for slots
  ///                     this sub-program touches (check cone_mask first)
  ///   cone_mask       — copy of the mask this sub-program was derived from
  ///   boundary_slots  — kernel slots read by the sub-program (instruction
  ///                     fanins and cone-DFF D drivers) but computed outside
  ///                     the cone; provably golden in every lane, loaded per
  ///                     cycle with broadcast golden values from a
  ///                     GoldenSlotTrace into boundary_locals
  ///   dff_indices     — flip-flops whose Q node is in the cone (the only
  ///                     FFs that can diverge; step/state-compare are
  ///                     restricted to these); dff_q_locals / dff_d_locals
  ///                     are the parallel arena slots of their Q value and
  ///                     D-driver value
  ///   out_indices     — primary outputs whose driver is in the cone (the
  ///                     only outputs that can mismatch); out_locals the
  ///                     parallel arena slots of the drivers
  struct ConeSubProgram {
    std::vector<Instr> instrs;
    std::vector<OpRun> runs;
    std::size_t arena_slots = 0;
    std::vector<std::uint32_t> global_of_local;
    std::vector<std::uint32_t> local_of_slot;
    std::vector<std::uint64_t> cone_mask;
    std::vector<std::uint32_t> boundary_slots;
    std::vector<std::uint32_t> boundary_locals;
    std::vector<std::uint32_t> dff_indices;
    std::vector<std::uint32_t> dff_q_locals;
    std::vector<std::uint32_t> dff_d_locals;
    std::vector<std::uint32_t> out_indices;
    std::vector<std::uint32_t> out_locals;
    std::vector<std::uint64_t> seen;       // derivation scratch, one bit per slot
    std::vector<std::uint64_t> has_local;  // derivation scratch, one bit per slot

    /// True when kernel slot `s` (a node id) is a cone member — i.e. the
    /// sub-program recomputes it and an overlay may target it.
    [[nodiscard]] bool in_cone(std::uint32_t s) const noexcept {
      return ((cone_mask[s >> 6] >> (s & 63)) & 1) != 0;
    }
  };

  /// Fills `sp` with the sub-program for cone `mask` (a bitset over node
  /// ids, ceil(num_slots/64) words — see FanoutCones). Reuses sp's storage.
  /// When `narrow_from` is given, `mask` must be a subset of its cone and
  /// the derivation filters that sub-program instead of the whole kernel
  /// program (the narrowing fast path). `narrow_from` must not alias `sp`.
  ///
  /// `levelize` orders the filtered instructions by (logic level, op,
  /// neg != 0, node id) before arena assignment: the build filters the
  /// program in an order computed once per kernel, so no derivation sorts.
  /// Instructions
  /// of one level
  /// never read each other, so any order within a level is topological and
  /// every lane bit is unchanged; the level key makes each level's
  /// destinations one contiguous arena block whose operand reads land in the
  /// blocks written just before it (plus the leading boundary/state block),
  /// and the (op, neg != 0) key groups each level into few, long op runs
  /// for the run-batched eval loops. Arena destinations stay strictly
  /// ascending either way (each instruction claims the next free arena slot
  /// in stream order), so the overlay merge is unaffected; overlay dests
  /// are translated through this build's local_of_slot as always. A
  /// narrowing derivation inherits the source's order (a subsequence of a
  /// sorted stream is sorted by the same key, so it equals a fresh build of
  /// the narrowed mask), so the flag only matters for full builds. The
  /// campaign engine always levelizes; `levelize = false` (filtered netlist
  /// order) survives only as the reference layout the sub-program property
  /// tests compare against. Every build fills `runs`.
  void build_subprogram(std::span<const std::uint64_t> mask,
                        ConeSubProgram& sp,
                        const ConeSubProgram* narrow_from = nullptr,
                        bool levelize = true) const;

  /// Zeroes `values` and writes the constant slots. Call once per engine
  /// before the first eval (constants are never re-evaluated).
  template <typename Word>
  void init(std::span<Word> values) const {
    using T = LaneTraits<Word>;
    for (auto& v : values) v = T::zero();
    for (const std::uint32_t slot : const1_slots_) values[slot] = T::ones();
  }

  /// One injection point for the overlay eval: after the instruction
  /// writing slot `dest` executes, the computed value receives the masked
  /// update
  ///
  ///     value = (value & keep) ^ flip
  ///
  /// which expresses every overlay op a fault model needs, branch-free:
  ///
  ///   op           | lanes m         | keep | flip | model
  ///   -------------|-----------------|------|------|------------------
  ///   XOR (invert) | value ^= m      | ones | m    | SET transient
  ///   AND (force 0)| value &= ~m     | ~m   | 0    | stuck-at-0
  ///   OR  (force 1)| value |= m      | ~m   | m    | stuck-at-1
  ///
  /// (see overlay_xor/overlay_force below). Entries compose: applying
  /// (k1,f1) then (k2,f2) equals the single entry (k1&k2, (f1&k2)^f2), so
  /// several lanes' ops on the same destination — even mixed ops — merge
  /// into one entry. Overlay lists are sorted by dest and merged inline
  /// against the instruction stream, which is dest-ascending (full program
  /// and every cone sub-program alike), so injection costs one compare per
  /// op run plus a binary search within a run per entry on overlay cycles,
  /// and nothing on all others (see eval_runs_overlay).
  template <typename Word>
  struct OverlayEntry {
    std::uint32_t dest = 0;
    Word keep{};
    Word flip{};
  };

  /// XOR overlay entry: invert the lanes of `m` (SET).
  template <typename Word>
  [[nodiscard]] static OverlayEntry<Word> overlay_xor(std::uint32_t dest,
                                                      Word m) {
    return {dest, LaneTraits<Word>::ones(), m};
  }

  /// Force overlay entry: drive the lanes of `m` to `value` (stuck-at).
  template <typename Word>
  [[nodiscard]] static OverlayEntry<Word> overlay_force(std::uint32_t dest,
                                                        Word m, bool value) {
    return {dest, ~m, value ? m : LaneTraits<Word>::zero()};
  }

  /// Executes an instruction stream run by run: one opcode dispatch per op
  /// run, then a tight loop over the run's instructions. `values` must hold
  /// every slot the stream reads already loaded; `runs` is the stream's
  /// op-run table (see OpRun).
  template <typename Word>
  static void eval_runs(std::span<const Instr> instrs,
                        std::span<const OpRun> runs, Word* values);

  /// eval_runs with an injection overlay merged in: `overlay` must be
  /// sorted by dest, and `instrs` is dest-ascending (the full program and
  /// every cone sub-program are). A run is split after each instruction
  /// whose dest an entry names, the entry is applied to that value, and the
  /// run continues. Entries whose dest is not written by `instrs` are
  /// skipped — a narrowed sub-program may have dropped an already-injected
  /// site.
  template <typename Word>
  static void eval_runs_overlay(std::span<const Instr> instrs,
                                std::span<const OpRun> runs, Word* values,
                                std::span<const OverlayEntry<Word>> overlay);

  /// Executes the full combinational program.
  template <typename Word>
  void eval(Word* values) const {
    eval_runs<Word>(program_, program_runs_, values);
  }

  /// Instruction-reduction accounting of the optimizer pass pipeline
  /// (sim/kernel_opt.h). `raw_instrs - opt_instrs == absorbed + folded +
  /// dead` by construction; all zero on an unoptimized kernel.
  struct OptStats {
    std::size_t raw_instrs = 0;   ///< program size before optimization
    std::size_t opt_instrs = 0;   ///< program size after optimization
    std::size_t absorbed = 0;     ///< BUF/NOT deleted into operand neg flags
    std::size_t folded = 0;       ///< instructions folded to constants
    std::size_t dead = 0;         ///< unreachable instructions eliminated
    std::size_t preserved = 0;    ///< preserve-set sites kept materialized
    [[nodiscard]] bool optimized() const noexcept {
      return raw_instrs != 0;
    }
  };

  [[nodiscard]] const OptStats& opt_stats() const noexcept {
    return opt_stats_;
  }

 private:
  /// The optimizer (sim/kernel_opt.cpp) clones a kernel and rewrites
  /// program_/levels_/const1_slots_ in place under the preserve contract.
  friend class KernelOptimizer;
  /// The artifact cache (fault/artifact_cache.cpp) serializes an optimized
  /// kernel and reconstructs it against a freshly validated circuit.
  friend struct ArtifactCacheAccess;
  CompiledKernel() = default;

  /// Rebuilds the tables derived from program_ and levels_: the op-run
  /// table and the levelized order. Called wherever program_ is (re)built —
  /// lowering, the optimizer and the artifact-cache load. Every opcode must
  /// be a comb cell and every level at most program_.size().
  void finish_program();

  const Circuit* circuit_ = nullptr;
  std::size_t num_slots_ = 0;
  std::vector<Instr> program_;
  std::vector<OpRun> program_runs_;
  /// Indices into program_ in (level, op, neg != 0, node id) order. A fresh
  /// levelized build_subprogram filters the program in this order, and a
  /// filtered subsequence of a sorted stream is sorted, so no derivation
  /// sorts.
  std::vector<std::uint32_t> levelized_order_;
  std::vector<std::uint32_t> levels_;
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> dff_slots_;
  std::vector<std::uint32_t> dff_d_slots_;
  std::vector<std::uint32_t> output_slots_;
  std::vector<std::uint32_t> const1_slots_;
  OptStats opt_stats_;
};

namespace detail {

/// Executes instructions [in, last) of one op run: opcode `Op` and the
/// run's complement-flag class are compile-time, so the loop body is the
/// gate alone. Plain runs (Negated = false) are the exact unflagged
/// codegen: a raw stream carries no flags and an optimized one flags under
/// a tenth of its instructions (paying the flag XORs on every instruction
/// once cost ~15 % of b14 campaign throughput at 512 lanes). The flagged
/// instructions sit in runs of their own, so a negated run applies the
/// operand XOR masks unconditionally instead of branching per instruction
/// on Instr::neg.
template <CellType Op, bool Negated, typename Word>
[[gnu::always_inline]] inline void exec_range(const CompiledKernel::Instr* in,
                                              const CompiledKernel::Instr* last,
                                              Word* v) {
  using T = LaneTraits<Word>;
  for (; in != last; ++in) {
    Word a = v[in->a];
    if constexpr (Negated) a ^= T::broadcast((in->neg & 1) != 0);
    if constexpr (Op == CellType::kBuf) {
      v[in->dest] = a;
    } else if constexpr (Op == CellType::kNot) {
      v[in->dest] = ~a;
    } else {
      Word b = v[in->b];
      if constexpr (Negated) b ^= T::broadcast((in->neg & 2) != 0);
      if constexpr (Op == CellType::kMux) {
        Word c = v[in->c];
        if constexpr (Negated) c ^= T::broadcast((in->neg & 4) != 0);
        v[in->dest] = (a & c) | (~a & b);  // kMux: a selects c (1) / b (0)
      } else if constexpr (Op == CellType::kAnd) {
        v[in->dest] = a & b;
      } else if constexpr (Op == CellType::kOr) {
        v[in->dest] = a | b;
      } else if constexpr (Op == CellType::kNand) {
        v[in->dest] = ~(a & b);
      } else if constexpr (Op == CellType::kNor) {
        v[in->dest] = ~(a | b);
      } else if constexpr (Op == CellType::kXor) {
        v[in->dest] = a ^ b;
      } else {
        static_assert(Op == CellType::kXnor);
        v[in->dest] = ~(a ^ b);
      }
    }
  }
}

template <bool Negated, typename Word>
[[gnu::always_inline]] inline void exec_op(CellType op,
                                           const CompiledKernel::Instr* first,
                                           const CompiledKernel::Instr* last,
                                           Word* v) {
  switch (op) {
    case CellType::kBuf:
      return exec_range<CellType::kBuf, Negated>(first, last, v);
    case CellType::kNot:
      return exec_range<CellType::kNot, Negated>(first, last, v);
    case CellType::kAnd:
      return exec_range<CellType::kAnd, Negated>(first, last, v);
    case CellType::kOr:
      return exec_range<CellType::kOr, Negated>(first, last, v);
    case CellType::kNand:
      return exec_range<CellType::kNand, Negated>(first, last, v);
    case CellType::kNor:
      return exec_range<CellType::kNor, Negated>(first, last, v);
    case CellType::kXor:
      return exec_range<CellType::kXor, Negated>(first, last, v);
    case CellType::kXnor:
      return exec_range<CellType::kXnor, Negated>(first, last, v);
    case CellType::kMux:
      return exec_range<CellType::kMux, Negated>(first, last, v);
    default:
      return;  // sources/DFFs never appear in a program
  }
}

/// One opcode dispatch for instructions [first, last) of `run`.
template <typename Word>
[[gnu::always_inline]] inline void exec_run(const CompiledKernel::OpRun& run,
                                            const CompiledKernel::Instr* first,
                                            const CompiledKernel::Instr* last,
                                            Word* v) {
  if (run.negated != 0) {
    exec_op<true>(run.op, first, last, v);
  } else {
    exec_op<false>(run.op, first, last, v);
  }
}

/// The overlay merge, shared by every lane word: walks `runs` over the
/// dest-ascending `instrs`, calling `exec(run, first, last)` for each
/// stretch between overlay dests and `apply(entry)` right after the
/// instruction that writes `entry.dest`. Entries whose dest no instruction
/// writes are skipped. Word-agnostic, so the AVX-512 translation unit
/// instantiates it with its own (internal-linkage) callables.
template <typename Entry, typename Exec, typename Apply>
[[gnu::always_inline]] inline void walk_runs_overlay(
    std::span<const CompiledKernel::Instr> instrs,
    std::span<const CompiledKernel::OpRun> runs, std::span<const Entry> overlay,
    Exec&& exec, Apply&& apply) {
  const CompiledKernel::Instr* const base = instrs.data();
  const Entry* ov = overlay.data();
  const Entry* const ov_end = ov + overlay.size();
  std::uint32_t i = 0;
  for (const CompiledKernel::OpRun& run : runs) {
    const std::uint32_t last_dest = base[run.end - 1].dest;
    for (;;) {
      // Execute up to and including the first instruction in [i, run.end)
      // whose dest is >= the next entry's, or the rest of the run when no
      // entry's dest falls inside it.
      const bool split = ov != ov_end && ov->dest <= last_dest;
      std::uint32_t stop = run.end;
      if (split) {
        std::uint32_t lo = i;
        std::uint32_t hi = run.end - 1;
        while (lo < hi) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if (base[mid].dest < ov->dest) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        stop = lo + 1;
      }
      exec(run, base + i, base + stop);
      i = stop;
      if (!split) break;
      const std::uint32_t d = base[stop - 1].dest;
      while (ov != ov_end && ov->dest < d) ++ov;  // dest never written
      for (; ov != ov_end && ov->dest == d; ++ov) apply(*ov);
    }
  }
}

/// The portable run loops (every lane word; Word512's limb fallback).
template <typename Word>
void eval_runs_portable(std::span<const CompiledKernel::Instr> instrs,
                        std::span<const CompiledKernel::OpRun> runs,
                        Word* values) {
  const CompiledKernel::Instr* first = instrs.data();
  for (const CompiledKernel::OpRun& run : runs) {
    const CompiledKernel::Instr* const last = instrs.data() + run.end;
    exec_run(run, first, last, values);
    first = last;
  }
}

template <typename Word>
void eval_runs_overlay_portable(
    std::span<const CompiledKernel::Instr> instrs,
    std::span<const CompiledKernel::OpRun> runs, Word* values,
    std::span<const CompiledKernel::OverlayEntry<Word>> overlay) {
  walk_runs_overlay(
      instrs, runs, overlay,
      [values](const CompiledKernel::OpRun& run,
               const CompiledKernel::Instr* first,
               const CompiledKernel::Instr* last) {
        exec_run(run, first, last, values);
      },
      [values](const CompiledKernel::OverlayEntry<Word>& e) {
        values[e.dest] = (values[e.dest] & e.keep) ^ e.flip;
      });
}

}  // namespace detail

template <typename Word>
void CompiledKernel::eval_runs(std::span<const Instr> instrs,
                               std::span<const OpRun> runs, Word* values) {
  detail::eval_runs_portable<Word>(instrs, runs, values);
}

template <typename Word>
void CompiledKernel::eval_runs_overlay(
    std::span<const Instr> instrs, std::span<const OpRun> runs, Word* values,
    std::span<const OverlayEntry<Word>> overlay) {
  detail::eval_runs_overlay_portable<Word>(instrs, runs, values, overlay);
}

/// Word512's run loops are runtime-dispatched: one binary carries both an
/// AVX-512 implementation (a separate translation unit compiled with
/// -mavx512f, see sim/compiled_kernel_avx512.cpp) and the portable limb
/// instantiation; a CPUID check picks the path once at first use. See
/// sim/simd_dispatch.h for the feature query.
template <>
void CompiledKernel::eval_runs<Word512>(std::span<const Instr> instrs,
                                        std::span<const OpRun> runs,
                                        Word512* values);
template <>
void CompiledKernel::eval_runs_overlay<Word512>(
    std::span<const Instr> instrs, std::span<const OpRun> runs,
    Word512* values, std::span<const OverlayEntry<Word512>> overlay);

/// Builds a shareable kernel for `circuit`.
[[nodiscard]] std::shared_ptr<const CompiledKernel> compile_kernel(
    const Circuit& circuit);

/// Generic lane-parallel engine executing a CompiledKernel.
///
/// One instantiation per lane width: LaneEngine<Word8> is the compiled
/// scalar machine, LaneEngine<std::uint64_t> the 64-lane machine and
/// LaneEngine<Word256> the 256-lane machine. Lane k of every value word
/// carries machine k; inputs are broadcast to all lanes. Mismatch queries
/// take precomputed golden word images (see GoldenWordImage) so the hot loop
/// never re-broadcasts golden bits.
template <typename Word>
class LaneEngine {
 public:
  using Traits = LaneTraits<Word>;
  static constexpr std::size_t kLanes = Traits::kLanes;

  explicit LaneEngine(std::shared_ptr<const CompiledKernel> kernel)
      : kernel_(std::move(kernel)),
        values_(kernel_->num_slots()),
        state_(kernel_->dff_slots().size()) {
    kernel_->init(std::span<Word>(values_));
  }

  [[nodiscard]] const CompiledKernel& kernel() const noexcept {
    return *kernel_;
  }
  [[nodiscard]] const Circuit& circuit() const noexcept {
    return kernel_->circuit();
  }

  void reset() {
    kernel_->init(std::span<Word>(values_));
    for (auto& s : state_) s = Traits::zero();
  }

  /// Broadcasts the scalar state to every lane.
  void broadcast_state(const BitVec& state) {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      state_[i] = Traits::broadcast(state.get(i));
    }
  }

  /// XORs lane `lane` of flip-flop `ff_index` (SEU injection).
  void flip_state_bit(std::size_t ff_index, unsigned lane) {
    state_[ff_index] ^= Traits::lane_bit(lane);
  }

  /// Combinational evaluation with `inputs` broadcast to every lane.
  void eval(const BitVec& inputs) {
    const auto pis = kernel_->input_slots();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      values_[pis[i]] = Traits::broadcast(inputs.get(i));
    }
    load_state_and_eval();
  }

  /// Combinational evaluation from pre-broadcast input words (one word per
  /// primary input, e.g. GoldenWordImage::inputs(t)) — skips the per-bit
  /// extract+broadcast of the BitVec overload.
  void eval_words(std::span<const Word> input_words) {
    const auto pis = kernel_->input_slots();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      values_[pis[i]] = input_words[i];
    }
    load_state_and_eval();
  }

  /// eval_words with an injection overlay (sorted by dest) merged into
  /// the instruction stream — see CompiledKernel::OverlayEntry.
  void eval_words_overlay(
      std::span<const Word> input_words,
      std::span<const CompiledKernel::OverlayEntry<Word>> overlay) {
    if (overlay.empty()) {
      eval_words(input_words);
      return;
    }
    const auto pis = kernel_->input_slots();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      values_[pis[i]] = input_words[i];
    }
    const auto dffs = kernel_->dff_slots();
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      values_[dffs[i]] = state_[i];
    }
    CompiledKernel::eval_runs_overlay<Word>(
        kernel_->program(), kernel_->program_runs(), values_.data(), overlay);
  }

  /// Differential evaluation of a cone sub-program against its dense slot
  /// arena. Boundary arena slots are loaded with broadcast golden values for
  /// this cycle (`golden_slots` is GoldenSlotTrace::at(t)), cone DFF arena
  /// slots from lane state, then only the cone instructions execute —
  /// streaming linearly over an arena sized to the cone instead of
  /// gathering across the full slot array. After this call every arena slot
  /// is exact.
  void eval_cone(const CompiledKernel::ConeSubProgram& sp,
                 const BitVec& golden_slots) {
    load_cone_arena(sp, golden_slots);
    CompiledKernel::eval_runs<Word>(sp.instrs, sp.runs, arena_.data());
  }

  /// eval_cone with an injection overlay merged into the sub-program
  /// stream. Overlay destinations are **arena** indices (translate a kernel
  /// slot through sp.local_of_slot, gated on sp.in_cone — sites the
  /// sub-program no longer computes must be dropped by the caller), sorted
  /// ascending.
  void eval_cone_overlay(
      const CompiledKernel::ConeSubProgram& sp, const BitVec& golden_slots,
      std::span<const CompiledKernel::OverlayEntry<Word>> overlay) {
    if (overlay.empty()) {
      eval_cone(sp, golden_slots);
      return;
    }
    load_cone_arena(sp, golden_slots);
    CompiledKernel::eval_runs_overlay<Word>(sp.instrs, sp.runs,
                                            arena_.data(), overlay);
  }

  /// Clock edge: state <- D in every lane.
  void step() {
    const auto d_slots = kernel_->dff_d_slots();
    for (std::size_t i = 0; i < d_slots.size(); ++i) {
      state_[i] = values_[d_slots[i]];
    }
  }

  /// Clock edge restricted to cone flip-flops (the only ones that can hold
  /// non-golden values), fused with the golden-state comparison the campaign
  /// engine needs every cycle — one pass over the cone FFs instead of two.
  /// Non-cone state words go stale and must not be read until the next
  /// broadcast_state().
  [[nodiscard]] Word step_cone_mismatch(
      const CompiledKernel::ConeSubProgram& sp,
      std::span<const Word> golden_state_words) {
    Word mismatch = Traits::zero();
    for (std::size_t k = 0; k < sp.dff_indices.size(); ++k) {
      const std::uint32_t i = sp.dff_indices[k];
      const Word next = arena_[sp.dff_d_locals[k]];
      state_[i] = next;
      mismatch |= next ^ golden_state_words[i];
    }
    return mismatch;
  }

  /// step_cone_mismatch with per-FF latching-window thinning: the lanes of
  /// `suppress[k]` (parallel to sp.dff_indices) latch the broadcast golden
  /// next-state bit instead of their computed D value — a transient pulse
  /// that missed flip-flop k's setup window in those lanes. Only called on
  /// cycles where a pulse-width fault injects; all other cycles take the
  /// plain variant above.
  [[nodiscard]] Word step_cone_mismatch_thinned(
      const CompiledKernel::ConeSubProgram& sp,
      std::span<const Word> golden_state_words,
      std::span<const Word> suppress) {
    Word mismatch = Traits::zero();
    for (std::size_t k = 0; k < sp.dff_indices.size(); ++k) {
      const std::uint32_t i = sp.dff_indices[k];
      const Word golden = golden_state_words[i];
      const Word next = (arena_[sp.dff_d_locals[k]] & ~suppress[k]) |
                        (golden & suppress[k]);
      state_[i] = next;
      mismatch |= next ^ golden;
    }
    return mismatch;
  }

  /// Forces the lanes of `lanes` in flip-flop `ff_index`'s state word to the
  /// broadcast golden word — the full-eval path's latching-window thinning,
  /// applied between step() and the state-mismatch query.
  void force_state_lanes(std::size_t ff_index, Word lanes, Word golden_word) {
    state_[ff_index] = (state_[ff_index] & ~lanes) | (golden_word & lanes);
  }

  void cycle(const BitVec& inputs) {
    eval(inputs);
    step();
  }

  /// Lanes whose primary outputs differ from the precomputed golden output
  /// words for the current cycle. Call after eval().
  [[nodiscard]] Word output_mismatch_lanes(
      std::span<const Word> golden_out_words) const {
    const auto outs = kernel_->output_slots();
    Word mismatch = Traits::zero();
    for (std::size_t i = 0; i < outs.size(); ++i) {
      mismatch |= values_[outs[i]] ^ golden_out_words[i];
    }
    return mismatch;
  }

  /// Lanes whose flip-flop state differs from the precomputed golden state
  /// words.
  [[nodiscard]] Word state_mismatch_lanes(
      std::span<const Word> golden_state_words) const {
    Word mismatch = Traits::zero();
    for (std::size_t i = 0; i < state_.size(); ++i) {
      mismatch |= state_[i] ^ golden_state_words[i];
    }
    return mismatch;
  }

  /// Cone-restricted output mismatch: only cone outputs can deviate from
  /// golden, so only those are compared. Exact — equal to the full-width
  /// query whenever lane state outside the cone is golden. (The state-side
  /// equivalent is fused into step_cone_mismatch.)
  [[nodiscard]] Word output_mismatch_lanes_cone(
      const CompiledKernel::ConeSubProgram& sp,
      std::span<const Word> golden_out_words) const {
    Word mismatch = Traits::zero();
    for (std::size_t k = 0; k < sp.out_indices.size(); ++k) {
      mismatch |= arena_[sp.out_locals[k]] ^ golden_out_words[sp.out_indices[k]];
    }
    return mismatch;
  }

  /// State of one lane as a scalar BitVec (diagnostics / tests).
  [[nodiscard]] BitVec lane_state(unsigned lane) const {
    BitVec out(state_.size());
    for (std::size_t i = 0; i < state_.size(); ++i) {
      out.set(i, Traits::test(state_[i], lane));
    }
    return out;
  }

  /// Outputs of one lane after eval() (diagnostics / tests).
  [[nodiscard]] BitVec lane_outputs(unsigned lane) const {
    const auto outs = kernel_->output_slots();
    BitVec out(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      out.set(i, Traits::test(values_[outs[i]], lane));
    }
    return out;
  }

  /// Outputs of one lane after eval_cone(): cone outputs read from the
  /// arena, every other output copied from the golden vector — exact,
  /// because a lane can deviate from golden only inside the (narrowed)
  /// sub-program's cone. Used to form full-width failure syndromes
  /// (faulty XOR golden) without ever leaving the cone-restricted path.
  [[nodiscard]] BitVec lane_outputs_cone(
      const CompiledKernel::ConeSubProgram& sp, const BitVec& golden_outputs,
      unsigned lane) const {
    BitVec out = golden_outputs;
    for (std::size_t k = 0; k < sp.out_indices.size(); ++k) {
      out.set(sp.out_indices[k], Traits::test(arena_[sp.out_locals[k]], lane));
    }
    return out;
  }

  /// Raw lane word of a node after eval() (diagnostics).
  [[nodiscard]] Word node_word(NodeId id) const { return values_[id]; }

  /// Raw lane word of flip-flop `ff_index` (the divergence-narrowing scan
  /// reads these to find which FFs still differ from golden).
  [[nodiscard]] Word state_word(std::size_t ff_index) const {
    return state_[ff_index];
  }

 private:
  void load_state_and_eval() {
    const auto dffs = kernel_->dff_slots();
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      values_[dffs[i]] = state_[i];
    }
    kernel_->eval(values_.data());
  }

  /// Loads the sub-program's dense arena: golden boundary words and cone
  /// DFF state words into their leading arena slots. Grows (never shrinks)
  /// the arena buffer, so its capacity stabilises at the largest cone a
  /// worker ever evaluates.
  void load_cone_arena(const CompiledKernel::ConeSubProgram& sp,
                       const BitVec& golden_slots) {
    if (arena_.size() < sp.arena_slots) {
      arena_.resize(sp.arena_slots);
    }
    const std::span<const std::uint64_t> gw = golden_slots.words();
    for (std::size_t k = 0; k < sp.boundary_slots.size(); ++k) {
      const std::uint32_t s = sp.boundary_slots[k];
      arena_[sp.boundary_locals[k]] =
          Traits::broadcast(((gw[s >> 6] >> (s & 63)) & 1) != 0);
    }
    for (std::size_t k = 0; k < sp.dff_indices.size(); ++k) {
      arena_[sp.dff_q_locals[k]] = state_[sp.dff_indices[k]];
    }
  }

  std::shared_ptr<const CompiledKernel> kernel_;
  std::vector<Word> values_;  // per node slot, one lane per bit
  std::vector<Word> arena_;   // dense cone-eval working set (see ConeSubProgram)
  std::vector<Word> state_;   // per DFF
};

}  // namespace femu
