#pragma once

#include <span>
#include <vector>

#include "sim/golden.h"
#include "sim/lane_word.h"

namespace femu {

/// Golden trace (and optionally the stimuli) pre-broadcast into lane words.
///
/// The fault engines compare every cycle's outputs and next-state against the
/// golden run, and broadcast every cycle's input vector to all lanes. Doing
/// that against BitVecs costs a bit-extract + broadcast per signal per cycle
/// per group — pure recomputation, since neither the golden trace nor the
/// testbench changes within a campaign. This image hoists the broadcast: one
/// flat array of lane words per trace, built once and shared read-only by
/// every worker thread.
///
/// Layout (T = num_cycles):
///   outputs(t) — broadcast golden outputs of cycle t,     t in [0, T)
///   states(t)  — broadcast golden state at START of cycle t, t in [0, T]
///   inputs(t)  — broadcast input vector of cycle t,       t in [0, T)
///                (only when constructed with the input vectors)
template <typename Word>
struct GoldenWordImage {
  std::size_t num_outputs = 0;
  std::size_t num_ffs = 0;
  std::size_t num_inputs = 0;
  std::vector<Word> out_words;
  std::vector<Word> state_words;
  std::vector<Word> in_words;

  GoldenWordImage() = default;

  /// Builds serially; `build_threads` is accepted and ignored until the
  /// callers that still pass it are gone (ROADMAP item 2(b)).
  explicit GoldenWordImage(const GoldenTrace& trace,
                           std::span<const BitVec> input_vectors = {},
                           [[maybe_unused]] unsigned build_threads = 1)
      : num_outputs(trace.outputs.empty() ? 0 : trace.outputs.front().size()),
        num_ffs(trace.states.empty() ? 0 : trace.states.front().size()),
        num_inputs(input_vectors.empty() ? 0 : input_vectors.front().size()) {
    using T = LaneTraits<Word>;
    out_words.resize(trace.outputs.size() * num_outputs);
    for (std::size_t t = 0; t < trace.outputs.size(); ++t) {
      const BitVec& outs = trace.outputs[t];
      for (std::size_t i = 0; i < num_outputs; ++i) {
        out_words[t * num_outputs + i] = T::broadcast(outs.get(i));
      }
    }
    state_words.resize(trace.states.size() * num_ffs);
    for (std::size_t t = 0; t < trace.states.size(); ++t) {
      const BitVec& state = trace.states[t];
      for (std::size_t i = 0; i < num_ffs; ++i) {
        state_words[t * num_ffs + i] = T::broadcast(state.get(i));
      }
    }
    in_words.resize(input_vectors.size() * num_inputs);
    for (std::size_t t = 0; t < input_vectors.size(); ++t) {
      const BitVec& vector = input_vectors[t];
      for (std::size_t i = 0; i < num_inputs; ++i) {
        in_words[t * num_inputs + i] = T::broadcast(vector.get(i));
      }
    }
  }

  [[nodiscard]] std::span<const Word> outputs(std::size_t t) const {
    return std::span<const Word>(out_words).subspan(t * num_outputs,
                                                    num_outputs);
  }

  [[nodiscard]] std::span<const Word> states(std::size_t t) const {
    return std::span<const Word>(state_words).subspan(t * num_ffs, num_ffs);
  }

  [[nodiscard]] std::span<const Word> inputs(std::size_t t) const {
    return std::span<const Word>(in_words).subspan(t * num_inputs, num_inputs);
  }
};

}  // namespace femu
