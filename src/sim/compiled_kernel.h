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

  /// Lowers `circuit` (validates it first). The circuit must outlive the
  /// kernel — the kernel keeps a reference for diagnostics and index order.
  explicit CompiledKernel(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }

  /// One value slot per circuit node; slot index == NodeId.
  [[nodiscard]] std::size_t num_slots() const noexcept { return num_slots_; }

  [[nodiscard]] std::span<const Instr> program() const noexcept {
    return program_;
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
  ///                     (level, node id) when the build levelizes (see
  ///                     below), operands/destinations in arena space
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
  /// `levelize` reorders the filtered instructions by (logic level, node id)
  /// before arena assignment — any (level, ...) order is topological, so the
  /// dataflow (and therefore every lane bit) is unchanged, but each level's
  /// destinations now occupy one contiguous arena block and an instruction's
  /// operand reads land in the block written just before it (plus the
  /// leading boundary/state block) instead of gathering across the whole
  /// arena. Arena destinations stay strictly ascending either way (each
  /// instruction claims the next free arena slot in stream order), so the
  /// overlay merge is unaffected; overlay dests are translated through this
  /// build's local_of_slot as always. A narrowing derivation inherits the
  /// source's order (a subsequence of a levelized stream is levelized), so
  /// the flag only matters for full builds. The campaign engine always
  /// levelizes; `levelize = false` (filtered netlist order) survives only as
  /// the reference layout the sub-program property tests compare against.
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
  /// instruction on overlay cycles and nothing on all others.
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

  /// Executes one instruction (shared by the plain and overlay eval loops).
  /// Operand complements (Instr::neg) take a single highly-predictable
  /// branch: a raw stream carries no flags at all and an optimized stream
  /// flags only a small minority of instructions, so the neg == 0 body —
  /// the exact pre-optimizer codegen, no masking — is what the loop
  /// actually runs; paying the flag XORs unconditionally instead costs
  /// ~15 % of b14 campaign throughput at 512 lanes.
  template <typename Word>
  static inline void exec_instr(const Instr& in, Word* values) {
    using T = LaneTraits<Word>;
    if (in.neg == 0) [[likely]] {
      switch (in.op) {
        case CellType::kBuf:
          values[in.dest] = values[in.a];
          break;
        case CellType::kNot:
          values[in.dest] = ~values[in.a];
          break;
        case CellType::kAnd:
          values[in.dest] = values[in.a] & values[in.b];
          break;
        case CellType::kOr:
          values[in.dest] = values[in.a] | values[in.b];
          break;
        case CellType::kNand:
          values[in.dest] = ~(values[in.a] & values[in.b]);
          break;
        case CellType::kNor:
          values[in.dest] = ~(values[in.a] | values[in.b]);
          break;
        case CellType::kXor:
          values[in.dest] = values[in.a] ^ values[in.b];
          break;
        case CellType::kXnor:
          values[in.dest] = ~(values[in.a] ^ values[in.b]);
          break;
        case CellType::kMux:
          values[in.dest] = (values[in.a] & values[in.c]) |
                            (~values[in.a] & values[in.b]);
          break;
        default:
          break;  // sources/DFFs never appear in the program
      }
      return;
    }
    const Word a = values[in.a] ^ T::broadcast((in.neg & 1) != 0);
    switch (in.op) {
      case CellType::kBuf:
        values[in.dest] = a;
        break;
      case CellType::kNot:
        values[in.dest] = ~a;
        break;
      case CellType::kAnd:
        values[in.dest] = a & (values[in.b] ^ T::broadcast((in.neg & 2) != 0));
        break;
      case CellType::kOr:
        values[in.dest] = a | (values[in.b] ^ T::broadcast((in.neg & 2) != 0));
        break;
      case CellType::kNand:
        values[in.dest] =
            ~(a & (values[in.b] ^ T::broadcast((in.neg & 2) != 0)));
        break;
      case CellType::kNor:
        values[in.dest] =
            ~(a | (values[in.b] ^ T::broadcast((in.neg & 2) != 0)));
        break;
      case CellType::kXor:
        values[in.dest] = a ^ values[in.b] ^ T::broadcast((in.neg & 2) != 0);
        break;
      case CellType::kXnor:
        values[in.dest] =
            ~(a ^ values[in.b] ^ T::broadcast((in.neg & 2) != 0));
        break;
      case CellType::kMux: {
        const Word b = values[in.b] ^ T::broadcast((in.neg & 2) != 0);
        const Word c = values[in.c] ^ T::broadcast((in.neg & 4) != 0);
        values[in.dest] = (a & c) | (~a & b);
        break;
      }
      default:
        break;  // sources/DFFs never appear in the program
    }
  }

  /// Executes an instruction sequence. `values` must hold num_slots() words
  /// with every slot the sequence reads already loaded.
  template <typename Word>
  static void eval_instrs(std::span<const Instr> instrs, Word* values) {
    for (const Instr& in : instrs) {
      exec_instr(in, values);
    }
  }

  /// Executes an instruction sequence with an injection overlay merged in:
  /// `overlay` must be sorted by dest (strictly ascending). Entries whose
  /// dest is not written by `instrs` are skipped — a narrowed sub-program
  /// may have dropped an already-injected site.
  template <typename Word>
  static void eval_instrs_overlay(std::span<const Instr> instrs, Word* values,
                                  std::span<const OverlayEntry<Word>> overlay) {
    const OverlayEntry<Word>* ov = overlay.data();
    const OverlayEntry<Word>* const ov_end = ov + overlay.size();
    for (const Instr& in : instrs) {
      exec_instr(in, values);
      while (ov != ov_end && ov->dest <= in.dest) {
        if (ov->dest == in.dest) {
          values[in.dest] = (values[in.dest] & ov->keep) ^ ov->flip;
        }
        ++ov;
      }
    }
  }

  /// Executes the full combinational program.
  template <typename Word>
  void eval(Word* values) const {
    eval_instrs<Word>(program_, values);
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

  const Circuit* circuit_ = nullptr;
  std::size_t num_slots_ = 0;
  std::vector<Instr> program_;
  std::vector<std::uint32_t> levels_;
  std::vector<std::uint32_t> input_slots_;
  std::vector<std::uint32_t> dff_slots_;
  std::vector<std::uint32_t> dff_d_slots_;
  std::vector<std::uint32_t> output_slots_;
  std::vector<std::uint32_t> const1_slots_;
  OptStats opt_stats_;
};

/// Word512's hot loops are runtime-dispatched: one binary carries both an
/// AVX-512 implementation (a separate translation unit compiled with
/// -mavx512f, see sim/compiled_kernel_avx512.cpp) and the portable limb
/// instantiation; a CPUID check picks the path once at first use. See
/// sim/simd_dispatch.h for the feature query.
template <>
void CompiledKernel::eval_instrs<Word512>(std::span<const Instr> instrs,
                                          Word512* values);
template <>
void CompiledKernel::eval_instrs_overlay<Word512>(
    std::span<const Instr> instrs, Word512* values,
    std::span<const OverlayEntry<Word512>> overlay);

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
    CompiledKernel::eval_instrs_overlay<Word>(kernel_->program(),
                                              values_.data(), overlay);
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
    CompiledKernel::eval_instrs<Word>(sp.instrs, arena_.data());
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
    CompiledKernel::eval_instrs_overlay<Word>(sp.instrs, arena_.data(),
                                              overlay);
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
