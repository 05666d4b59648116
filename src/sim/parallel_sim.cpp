#include "sim/parallel_sim.h"

#include "common/error.h"

namespace femu {

namespace {

constexpr std::uint64_t broadcast(bool bit) {
  return bit ? ~std::uint64_t{0} : std::uint64_t{0};
}

}  // namespace

ParallelSimulator::ParallelSimulator(const Circuit& circuit)
    : ParallelSimulator(compile_kernel(circuit)) {}

ParallelSimulator::ParallelSimulator(
    std::shared_ptr<const CompiledKernel> kernel)
    : circuit_(kernel->circuit()),
      kernel_(std::move(kernel)),
      values_(circuit_.node_count(), 0),
      state_(circuit_.num_dffs(), 0) {
  // compile_kernel() already validated and resolved the D drivers.
  const auto d_slots = kernel_->dff_d_slots();
  dff_d_.assign(d_slots.begin(), d_slots.end());
  kernel_->init(std::span<std::uint64_t>(values_));
}

void ParallelSimulator::reset() {
  kernel_->init(std::span<std::uint64_t>(values_));
  std::fill(state_.begin(), state_.end(), std::uint64_t{0});
}

void ParallelSimulator::broadcast_state(const BitVec& state) {
  FEMU_CHECK(state.size() == state_.size(), "state width ", state.size(),
             " != ", state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = broadcast(state.get(i));
  }
}

void ParallelSimulator::flip_state_bit(std::size_t ff_index, unsigned lane) {
  FEMU_CHECK(ff_index < state_.size(), "ff index ", ff_index, " out of range");
  FEMU_CHECK(lane < 64, "lane ", lane, " out of range");
  state_[ff_index] ^= std::uint64_t{1} << lane;
}

void ParallelSimulator::eval(const BitVec& inputs) {
  FEMU_CHECK(inputs.size() == circuit_.num_inputs(), "input width ",
             inputs.size(), " != ", circuit_.num_inputs());
  const auto& pis = circuit_.inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    values_[pis[i]] = broadcast(inputs.get(i));
  }
  eval_loaded_inputs();
}

void ParallelSimulator::eval_words(
    std::span<const std::uint64_t> input_words) {
  FEMU_CHECK(input_words.size() == circuit_.num_inputs(), "input width ",
             input_words.size(), " != ", circuit_.num_inputs());
  const auto& pis = circuit_.inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    values_[pis[i]] = input_words[i];
  }
  eval_loaded_inputs();
}

void ParallelSimulator::eval_loaded_inputs() {
  const auto& dffs = circuit_.dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    values_[dffs[i]] = state_[i];
  }
  kernel_->eval(values_.data());
}

void ParallelSimulator::step() {
  for (std::size_t i = 0; i < dff_d_.size(); ++i) {
    state_[i] = values_[dff_d_[i]];
  }
}

std::uint64_t ParallelSimulator::output_mismatch_lanes(
    const BitVec& golden_outputs) const {
  const auto& outputs = circuit_.outputs();
  FEMU_CHECK(golden_outputs.size() == outputs.size(), "output width ",
             golden_outputs.size(), " != ", outputs.size());
  std::uint64_t mismatch = 0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    mismatch |= values_[outputs[i].driver] ^ broadcast(golden_outputs.get(i));
  }
  return mismatch;
}

std::uint64_t ParallelSimulator::state_mismatch_lanes(
    const BitVec& golden_state) const {
  FEMU_CHECK(golden_state.size() == state_.size(), "state width ",
             golden_state.size(), " != ", state_.size());
  std::uint64_t mismatch = 0;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    mismatch |= state_[i] ^ broadcast(golden_state.get(i));
  }
  return mismatch;
}

std::uint64_t ParallelSimulator::output_mismatch_lanes(
    std::span<const std::uint64_t> golden_out_words) const {
  const auto& outputs = circuit_.outputs();
  FEMU_CHECK(golden_out_words.size() == outputs.size(), "output width ",
             golden_out_words.size(), " != ", outputs.size());
  std::uint64_t mismatch = 0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    mismatch |= values_[outputs[i].driver] ^ golden_out_words[i];
  }
  return mismatch;
}

std::uint64_t ParallelSimulator::state_mismatch_lanes(
    std::span<const std::uint64_t> golden_state_words) const {
  FEMU_CHECK(golden_state_words.size() == state_.size(), "state width ",
             golden_state_words.size(), " != ", state_.size());
  std::uint64_t mismatch = 0;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    mismatch |= state_[i] ^ golden_state_words[i];
  }
  return mismatch;
}

BitVec ParallelSimulator::lane_state(unsigned lane) const {
  FEMU_CHECK(lane < 64, "lane ", lane, " out of range");
  BitVec out(state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    out.set(i, ((state_[i] >> lane) & 1) != 0);
  }
  return out;
}

BitVec ParallelSimulator::lane_outputs(unsigned lane) const {
  FEMU_CHECK(lane < 64, "lane ", lane, " out of range");
  const auto& outputs = circuit_.outputs();
  BitVec out(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    out.set(i, ((values_[outputs[i].driver] >> lane) & 1) != 0);
  }
  return out;
}

std::uint64_t ParallelSimulator::node_word(NodeId id) const {
  FEMU_CHECK(id < values_.size(), "node id ", id, " out of range");
  return values_[id];
}

}  // namespace femu
