#include "sim/golden_slots.h"

#include <cstddef>
#include <cstdint>

namespace femu {
namespace {

/// Bit i of the result is set iff byte i of `bytes[0..8)` is nonzero. The
/// bytes are assembled by shifts, so the result does not depend on the
/// host's byte order; the multiply gathers the eight per-byte flags into
/// the top byte.
[[nodiscard]] std::uint64_t nonzero_byte_bits(const Word8* bytes) {
  std::uint64_t x = 0;
  for (unsigned i = 0; i < 8; ++i) {
    x |= std::uint64_t{bytes[i]} << (8 * i);
  }
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  const std::uint64_t high = (((x & kLow7) + kLow7) | x) & ~kLow7;
  return ((high >> 7) * 0x0102040810204080ULL) >> 56;
}

/// One fault-free cycle on the scalar (Word8) machine: load vector + state,
/// settle, extract. Shared by every golden capture below so all views of the
/// golden run (outputs, next state, full slot snapshot) come from the same
/// settled values — identical to the GoldenTrace capture semantics.
struct ScalarGoldenMachine {
  const CompiledKernel& kernel;
  std::vector<Word8> values;
  std::vector<Word8> state;
  std::vector<std::uint64_t> packed;  // snapshot_slots scratch

  explicit ScalarGoldenMachine(const CompiledKernel& k)
      : kernel(k), values(k.num_slots()), state(k.dff_slots().size(), 0) {
    kernel.init(std::span<Word8>(values));
  }

  void settle(const BitVec& vector) {
    const auto pis = kernel.input_slots();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      values[pis[i]] = LaneTraits<Word8>::broadcast(vector.get(i));
    }
    const auto dffs = kernel.dff_slots();
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      values[dffs[i]] = state[i];
    }
    kernel.eval(values.data());
  }

  void latch() {
    const auto d_slots = kernel.dff_d_slots();
    for (std::size_t i = 0; i < d_slots.size(); ++i) {
      state[i] = values[d_slots[i]];
    }
  }

  /// Packs every settled slot into a BitVec, 64 slots per word: each slot
  /// is one byte, so eight slots fold into eight bits at once, and the
  /// words land in the BitVec in one bulk copy.
  [[nodiscard]] BitVec snapshot_slots() {
    const std::size_t n = values.size();
    packed.assign((n + BitVec::kWordBits - 1) / BitVec::kWordBits, 0);
    std::size_t s = 0;
    for (; s + 8 <= n; s += 8) {
      packed[s / 64] |= nonzero_byte_bits(values.data() + s) << (s % 64);
    }
    for (; s < n; ++s) {
      packed[s / 64] |= std::uint64_t{values[s] != 0} << (s % 64);
    }
    BitVec snapshot;
    snapshot.assign_words(n, packed);
    return snapshot;
  }

  [[nodiscard]] BitVec snapshot_outputs() const {
    const auto outs = kernel.output_slots();
    BitVec bits(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      bits.set(i, values[outs[i]] != 0);
    }
    return bits;
  }

  [[nodiscard]] BitVec snapshot_state() const {
    BitVec bits(state.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      bits.set(i, state[i] != 0);
    }
    return bits;
  }
};

}  // namespace

GoldenSlotTrace capture_golden_slots(const CompiledKernel& kernel,
                                     std::span<const BitVec> vectors) {
  GoldenSlotTrace trace;
  trace.num_slots = kernel.num_slots();
  trace.cycles.reserve(vectors.size());

  ScalarGoldenMachine machine(kernel);
  for (const BitVec& vector : vectors) {
    machine.settle(vector);
    trace.cycles.push_back(machine.snapshot_slots());
    machine.latch();
  }
  return trace;
}

GoldenCapture capture_golden_unified(const CompiledKernel& kernel,
                                     std::span<const BitVec> vectors,
                                     bool want_slots) {
  GoldenCapture cap;
  cap.trace.states.reserve(vectors.size() + 1);
  cap.trace.outputs.reserve(vectors.size());
  if (want_slots) {
    cap.slots.num_slots = kernel.num_slots();
    cap.slots.cycles.reserve(vectors.size());
  }
  ScalarGoldenMachine machine(kernel);
  cap.trace.states.push_back(machine.snapshot_state());
  for (const BitVec& vector : vectors) {
    machine.settle(vector);
    cap.trace.outputs.push_back(machine.snapshot_outputs());
    if (want_slots) {
      cap.slots.cycles.push_back(machine.snapshot_slots());
    }
    machine.latch();
    cap.trace.states.push_back(machine.snapshot_state());
  }
  return cap;
}

GoldenCapture capture_golden_unified(const CompiledKernel& kernel,
                                     std::span<const BitVec> vectors,
                                     [[maybe_unused]] unsigned build_threads,
                                     bool want_slots) {
  return capture_golden_unified(kernel, vectors, want_slots);
}

}  // namespace femu
