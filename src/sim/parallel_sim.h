#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "netlist/circuit.h"
#include "sim/compiled_kernel.h"

namespace femu {

/// 64-machine bit-parallel logic simulator.
///
/// Every node value is a 64-bit word; lane k carries the node's value in
/// machine k. All machines receive the same stimulus (inputs are broadcast
/// to all lanes) but may hold different flip-flop states — exactly the shape
/// of a single-stuck-SEU campaign, where 64 faulty machines differ from the
/// golden run only in their state evolution. The per-fault MBU reference
/// (MbuFaultSimulator) runs on it; the campaign engine uses the
/// width-generic LaneEngine instead.
///
/// The combinational network executes through a CompiledKernel (flat
/// instruction stream, pre-resolved fanin slots).
class ParallelSimulator {
 public:
  explicit ParallelSimulator(const Circuit& circuit);

  /// Shares a pre-built kernel (one kernel serves many engines — this is how
  /// the threaded campaign sharder avoids re-lowering per worker).
  explicit ParallelSimulator(std::shared_ptr<const CompiledKernel> kernel);

  /// All lanes to the reset state (all flip-flops 0).
  void reset();

  /// Broadcasts the scalar state to all 64 lanes.
  void broadcast_state(const BitVec& state);

  /// XORs lane `lane` of flip-flop `ff_index` (SEU injection).
  void flip_state_bit(std::size_t ff_index, unsigned lane);

  /// Combinational evaluation with `inputs` broadcast to every lane.
  void eval(const BitVec& inputs);

  /// Combinational evaluation from pre-broadcast input words (one word per
  /// primary input, e.g. GoldenWordImage::inputs(t)) — skips the per-bit
  /// extract+broadcast of the BitVec overload.
  void eval_words(std::span<const std::uint64_t> input_words);

  /// Clock edge: state <- D in every lane.
  void step();

  void cycle(const BitVec& inputs) {
    eval(inputs);
    step();
  }

  /// Lanes whose primary outputs differ from the golden outputs
  /// (bit k set <=> machine k shows an output mismatch). Call after eval().
  [[nodiscard]] std::uint64_t output_mismatch_lanes(
      const BitVec& golden_outputs) const;

  /// Lanes whose flip-flop state differs from the golden state
  /// (bit k set <=> machine k has not converged back to golden).
  [[nodiscard]] std::uint64_t state_mismatch_lanes(
      const BitVec& golden_state) const;

  /// Fast-path mismatch queries against pre-broadcast golden word images
  /// (see GoldenWordImage): no per-signal bit-extract/broadcast per call.
  [[nodiscard]] std::uint64_t output_mismatch_lanes(
      std::span<const std::uint64_t> golden_out_words) const;
  [[nodiscard]] std::uint64_t state_mismatch_lanes(
      std::span<const std::uint64_t> golden_state_words) const;

  /// State of one lane as a scalar BitVec (diagnostics / tests).
  [[nodiscard]] BitVec lane_state(unsigned lane) const;

  /// Outputs of one lane after eval() (diagnostics / tests).
  [[nodiscard]] BitVec lane_outputs(unsigned lane) const;

  /// Raw 64-lane word of a node after eval() (diagnostics).
  [[nodiscard]] std::uint64_t node_word(NodeId id) const;

  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }

 private:
  void eval_loaded_inputs();

  const Circuit& circuit_;
  std::shared_ptr<const CompiledKernel> kernel_;
  std::vector<NodeId> dff_d_;          // D-driver per DFF, snapshot
  std::vector<std::uint64_t> values_;  // per node, one lane per bit
  std::vector<std::uint64_t> state_;   // per DFF
};

}  // namespace femu
