#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "fault/fault.h"
#include "fault/mbu.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/circuit.h"
#include "netlist/fanout_cones.h"
#include "sim/compiled_kernel.h"
#include "sim/lane_word.h"

namespace femu {

/// The cone source behind a campaign: the materialized matrices when the
/// greedy FF order runs, the on-demand oracle otherwise (see
/// ParallelFaultSimulator::on_demand_cones). Both derive bit-identical
/// cones; the group runners never know which one is active.
struct ConeBackend {
  const FanoutCones* eager_ff = nullptr;
  const GateCones* eager_gate = nullptr;
  const ConeOracle* oracle = nullptr;

  void union_ff(std::span<std::uint64_t> mask, std::size_t ff) const {
    if (eager_ff != nullptr) {
      eager_ff->union_into(mask, ff);
    } else {
      oracle->union_into_ff(mask, ff);
    }
  }
  void union_gate(std::span<std::uint64_t> mask, NodeId gate) const {
    if (eager_gate != nullptr) {
      eager_gate->union_into(mask, eager_gate->site_index(gate));
    } else {
      oracle->union_into_gate(mask, gate);
    }
  }
};

/// Fault-model descriptor — the one place a fault model's mechanics live.
///
/// `ParallelFaultSimulator` is a single generic campaign engine; everything
/// model-specific is answered by the matching FaultModelTraits
/// specialization, instantiated once per campaign:
///
///   FaultT              — the fault record the caller grades
///   kDescriptor         — stable descriptor name ("model:mechanism"), the
///                         string the CLI/bench JSON reports
///   kUsesOverlay        — the fault enters through the kernel's
///                         instruction-stream overlay instead of state-bit
///                         flips before eval
///   kOverlayOp          — which overlay op the model emits (see
///                         CompiledKernel::OverlayEntry's op table)
///   kOverlayEveryCycle  — the overlay applies on every cycle (permanent
///                         fault) rather than only on the injection cycle
///   kRetireOnConvergence— a lane whose state re-converges to golden is
///                         graded silent and retired; false for permanent
///                         faults, which can be re-excited later (their
///                         undetected lanes map to latent/silent by the
///                         final-state comparison instead)
///   kSiteKeyed          — schedule keys, seed keys and affinity ranks live
///                         in gate-site (node-id) space instead of
///                         flip-flop space
///   kLatchThinning      — lanes may carry a sub-full-width transient whose
///                         latching is thinned per destination FF
///                         (pulse-width SET)
///   cycle/schedule_site — the (cycle, site) schedule key of a fault
///   inject              — state-bit entry (no-op for overlay models)
///   overlay_node/entry  — overlay destination and op-tagged lane masks
///   union_cone/seed_key — the structural divergence bound and the
///                         sub-program cache key bits
///   collect_preserve    — the model's injectable-node set: every node id a
///                         campaign over these faults may target with an
///                         overlay, appended to the kernel optimizer's
///                         preserve set (see sim/kernel_opt.h) so injection
///                         sites stay materialized. State-injection models
///                         (SEU/MBU) contribute nothing and optimize
///                         maximally; overlay models push their rep sites
///   validate            — per-fault precondition checks
///
/// Adding a fault model = adding a FaultT, one specialization here, and a
/// public entry point wrapping run_model<Traits>() in the model's result
/// shape (see DESIGN.md, "adding a fault model").
template <FaultModel M>
struct FaultModelTraits;

/// The overlay op a model emits (lowered to OverlayEntry keep/flip masks).
enum class OverlayOp : std::uint8_t {
  kNone,   ///< no overlay — state-bit injection
  kXor,    ///< invert the lane (SET transient)
  kForce,  ///< drive the lane to a fixed value (stuck-at-0/1)
};

[[nodiscard]] constexpr const char* overlay_op_name(OverlayOp op) noexcept {
  switch (op) {
    case OverlayOp::kNone: return "none";
    case OverlayOp::kXor: return "xor";
    case OverlayOp::kForce: return "and-or";
  }
  return "?";
}

namespace traits_detail {

inline void set_key_bit(std::span<std::uint64_t> key, std::uint32_t bit) {
  key[bit >> 6] |= std::uint64_t{1} << (bit & 63);
}

}  // namespace traits_detail

template <>
struct FaultModelTraits<FaultModel::kSeu> {
  using FaultT = Fault;
  static constexpr FaultModel kModel = FaultModel::kSeu;
  static constexpr const char* kDescriptor = "seu:state-xor";
  static constexpr bool kUsesOverlay = false;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kNone;
  static constexpr bool kOverlayEveryCycle = false;
  static constexpr bool kRetireOnConvergence = true;
  static constexpr bool kSiteKeyed = false;
  static constexpr bool kLatchThinning = false;

  static std::uint32_t cycle(const FaultT& f) noexcept { return f.cycle; }
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.ff_index;
  }
  template <typename Engine>
  static void inject(Engine& engine, const FaultT& f, unsigned lane) {
    engine.flip_state_bit(f.ff_index, lane);
  }
  static constexpr std::uint32_t overlay_node(const FaultT&) noexcept {
    return kInvalidNode;
  }
  /// State-bit injection only — no gate slot needs materializing.
  static void collect_preserve(std::span<const FaultT>,
                               std::vector<NodeId>&) {}
  static void union_cone(const ConeBackend& cones,
                         std::span<std::uint64_t> mask, const FaultT& f) {
    cones.union_ff(mask, f.ff_index);
  }
  static void seed_key(std::span<std::uint64_t> key, const FaultT& f) {
    traits_detail::set_key_bit(key, f.ff_index);
  }
  static void validate(const Circuit& circuit, std::size_t num_cycles,
                       const FaultT& f) {
    FEMU_CHECK(f.cycle < num_cycles, "fault cycle ", f.cycle,
               " beyond testbench length ", num_cycles);
    FEMU_CHECK(f.ff_index < circuit.num_dffs(), "fault FF ", f.ff_index,
               " out of range");
  }
};

template <>
struct FaultModelTraits<FaultModel::kMbu> {
  using FaultT = MbuFault;
  static constexpr FaultModel kModel = FaultModel::kMbu;
  static constexpr const char* kDescriptor = "mbu:state-xor";
  static constexpr bool kUsesOverlay = false;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kNone;
  static constexpr bool kOverlayEveryCycle = false;
  static constexpr bool kRetireOnConvergence = true;
  static constexpr bool kSiteKeyed = false;
  static constexpr bool kLatchThinning = false;

  static std::uint32_t cycle(const FaultT& f) noexcept { return f.cycle; }
  /// An MBU spans several FFs; its first (lowest-index) FF stands in for
  /// the fault in the affinity key. Approximate — the schedule is a
  /// performance knob, never a semantic one.
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.ff_indices.front();
  }
  template <typename Engine>
  static void inject(Engine& engine, const FaultT& f, unsigned lane) {
    for (const std::uint32_t ff : f.ff_indices) {
      engine.flip_state_bit(ff, lane);
    }
  }
  static constexpr std::uint32_t overlay_node(const FaultT&) noexcept {
    return kInvalidNode;
  }
  /// State-bit injection only — no gate slot needs materializing.
  static void collect_preserve(std::span<const FaultT>,
                               std::vector<NodeId>&) {}
  static void union_cone(const ConeBackend& cones,
                         std::span<std::uint64_t> mask, const FaultT& f) {
    for (const std::uint32_t ff : f.ff_indices) {
      cones.union_ff(mask, ff);
    }
  }
  static void seed_key(std::span<std::uint64_t> key, const FaultT& f) {
    for (const std::uint32_t ff : f.ff_indices) {
      traits_detail::set_key_bit(key, ff);
    }
  }
  static void validate(const Circuit& circuit, std::size_t num_cycles,
                       const FaultT& f) {
    FEMU_CHECK(f.cycle < num_cycles, "MBU cycle ", f.cycle,
               " beyond testbench length ", num_cycles);
    FEMU_CHECK(!f.ff_indices.empty(), "MBU with no flip-flops");
    for (const std::uint32_t ff : f.ff_indices) {
      FEMU_CHECK(ff < circuit.num_dffs(), "MBU FF ", ff, " out of range");
    }
  }
};

template <>
struct FaultModelTraits<FaultModel::kSet> {
  using FaultT = SetFault;
  static constexpr FaultModel kModel = FaultModel::kSet;
  static constexpr const char* kDescriptor = "set:overlay-xor";
  static constexpr bool kUsesOverlay = true;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kXor;
  static constexpr bool kOverlayEveryCycle = false;
  static constexpr bool kRetireOnConvergence = true;
  static constexpr bool kSiteKeyed = true;
  static constexpr bool kLatchThinning = true;

  static std::uint32_t cycle(const FaultT& f) noexcept { return f.cycle; }
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Engine>
  static void inject(Engine&, const FaultT&, unsigned) {}  // overlay-borne
  static std::uint32_t overlay_node(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Word>
  static CompiledKernel::OverlayEntry<Word> overlay_entry(const FaultT&,
                                                          std::uint32_t dest,
                                                          unsigned lane) {
    return CompiledKernel::overlay_xor<Word>(
        dest, LaneTraits<Word>::lane_bit(lane));
  }
  /// Overlay-borne: every (collapsed) rep site must stay materialized.
  static void collect_preserve(std::span<const FaultT> faults,
                               std::vector<NodeId>& preserve) {
    for (const FaultT& f : faults) preserve.push_back(f.node);
  }
  static void union_cone(const ConeBackend& cones,
                         std::span<std::uint64_t> mask, const FaultT& f) {
    cones.union_gate(mask, f.node);
  }
  static void seed_key(std::span<std::uint64_t> key, const FaultT& f) {
    traits_detail::set_key_bit(key, f.node);
  }
  /// Pulse-width thinning: lanes at sub-full width draw a per-destination-FF
  /// setup-window-overlap decision (set_pulse_latches).
  static bool lane_thins(const FaultT& f) noexcept {
    return f.pulse_q < kSetPulseFull;
  }
  static bool latches(const FaultT& f, std::uint32_t ff) noexcept {
    return set_pulse_latches(f.node, f.cycle, ff, f.pulse_q);
  }
  static void validate(const Circuit& circuit, std::size_t num_cycles,
                       const FaultT& f) {
    FEMU_CHECK(f.cycle < num_cycles, "SET cycle ", f.cycle,
               " beyond testbench length ", num_cycles);
    FEMU_CHECK(f.node < circuit.node_count() &&
                   is_comb_cell(circuit.type(f.node)),
               "SET node ", f.node, " is not a combinational gate");
    FEMU_CHECK(f.pulse_q <= kSetPulseFull, "SET pulse step ", f.pulse_q,
               " beyond full width ", kSetPulseFull);
  }
};

template <>
struct FaultModelTraits<FaultModel::kStuckAt> {
  using FaultT = StuckAtFault;
  static constexpr FaultModel kModel = FaultModel::kStuckAt;
  static constexpr const char* kDescriptor = "stuckat:overlay-force";
  static constexpr bool kUsesOverlay = true;
  static constexpr OverlayOp kOverlayOp = OverlayOp::kForce;
  static constexpr bool kOverlayEveryCycle = true;
  static constexpr bool kRetireOnConvergence = false;
  static constexpr bool kSiteKeyed = true;
  static constexpr bool kLatchThinning = false;

  /// Permanent: present from reset, so every fault "injects" at cycle 0.
  static constexpr std::uint32_t cycle(const FaultT&) noexcept { return 0; }
  static std::uint32_t schedule_site(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Engine>
  static void inject(Engine&, const FaultT&, unsigned) {}  // overlay-borne
  static std::uint32_t overlay_node(const FaultT& f) noexcept {
    return f.node;
  }
  template <typename Word>
  static CompiledKernel::OverlayEntry<Word> overlay_entry(const FaultT& f,
                                                          std::uint32_t dest,
                                                          unsigned lane) {
    return CompiledKernel::overlay_force<Word>(
        dest, LaneTraits<Word>::lane_bit(lane), f.stuck_one);
  }
  /// Overlay-borne and permanent: every fault node must stay materialized.
  static void collect_preserve(std::span<const FaultT> faults,
                               std::vector<NodeId>& preserve) {
    for (const FaultT& f : faults) preserve.push_back(f.node);
  }
  static void union_cone(const ConeBackend& cones,
                         std::span<std::uint64_t> mask, const FaultT& f) {
    cones.union_gate(mask, f.node);
  }
  static void seed_key(std::span<std::uint64_t> key, const FaultT& f) {
    traits_detail::set_key_bit(key, f.node);
  }
  static void validate(const Circuit& circuit, std::size_t /*num_cycles*/,
                       const FaultT& f) {
    FEMU_CHECK(f.node < circuit.node_count() &&
                   is_comb_cell(circuit.type(f.node)),
               "stuck-at node ", f.node, " is not a combinational gate");
  }
};

/// Descriptor name of a model ("model:mechanism") — the string the CLI and
/// bench JSON report next to the model name.
[[nodiscard]] constexpr const char* fault_model_descriptor(
    FaultModel model) noexcept {
  switch (model) {
    case FaultModel::kSeu: return FaultModelTraits<FaultModel::kSeu>::kDescriptor;
    case FaultModel::kMbu: return FaultModelTraits<FaultModel::kMbu>::kDescriptor;
    case FaultModel::kSet: return FaultModelTraits<FaultModel::kSet>::kDescriptor;
    case FaultModel::kStuckAt:
      return FaultModelTraits<FaultModel::kStuckAt>::kDescriptor;
  }
  return "?";
}

[[nodiscard]] constexpr OverlayOp fault_model_overlay_op(
    FaultModel model) noexcept {
  switch (model) {
    case FaultModel::kSeu: return FaultModelTraits<FaultModel::kSeu>::kOverlayOp;
    case FaultModel::kMbu: return FaultModelTraits<FaultModel::kMbu>::kOverlayOp;
    case FaultModel::kSet: return FaultModelTraits<FaultModel::kSet>::kOverlayOp;
    case FaultModel::kStuckAt:
      return FaultModelTraits<FaultModel::kStuckAt>::kOverlayOp;
  }
  return OverlayOp::kNone;
}

/// One lane group of a model's faults, normalized for the generic group
/// runners: lane k carries faults[k]. Answers, per lane, when the fault
/// enters (cycle), how it enters (inject / overlay_entry), which structural
/// cone bounds its divergence (union_cone) and which bits identify its
/// injection sites in the sub-program cache key (seed_key) — all by
/// delegation to the model's FaultModelTraits, so the group runners are
/// written once against this view and specialize per model purely through
/// `if constexpr` on the descriptor flags (SEU/MBU codegen carries no
/// overlay or thinning code at all).
template <typename Traits>
struct ModelView {
  using FaultT = typename Traits::FaultT;

  std::span<const FaultT> faults;
  ConeBackend cones;

  static constexpr bool kHasOverlay = Traits::kUsesOverlay;
  static constexpr bool kOverlayEveryCycle = Traits::kOverlayEveryCycle;
  static constexpr bool kRetireOnConvergence = Traits::kRetireOnConvergence;
  static constexpr bool kKeyOverNodes = Traits::kSiteKeyed;
  static constexpr bool kLatchThinning = Traits::kLatchThinning;

  [[nodiscard]] std::size_t size() const noexcept { return faults.size(); }
  [[nodiscard]] std::uint32_t cycle(std::size_t i) const {
    return Traits::cycle(faults[i]);
  }
  template <typename Engine>
  void inject(Engine& engine, unsigned lane) const {
    Traits::inject(engine, faults[lane], lane);
  }
  [[nodiscard]] std::uint32_t overlay_node(std::size_t i) const {
    return Traits::overlay_node(faults[i]);
  }
  template <typename Word>
  [[nodiscard]] CompiledKernel::OverlayEntry<Word> overlay_entry(
      std::size_t i, std::uint32_t dest) const {
    return Traits::template overlay_entry<Word>(faults[i], dest,
                                                static_cast<unsigned>(i));
  }
  void union_cone(std::span<std::uint64_t> mask, std::size_t i) const {
    Traits::union_cone(cones, mask, faults[i]);
  }
  void union_ff_cone(std::span<std::uint64_t> mask, std::size_t ff) const {
    cones.union_ff(mask, ff);
  }
  void seed_key(std::span<std::uint64_t> key, std::size_t i) const {
    Traits::seed_key(key, faults[i]);
  }
  [[nodiscard]] bool lane_thins(std::size_t i) const {
    return Traits::lane_thins(faults[i]);
  }
  [[nodiscard]] bool latches(std::size_t i, std::uint32_t ff) const {
    return Traits::latches(faults[i], ff);
  }
};

}  // namespace femu
