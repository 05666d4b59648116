#pragma once

#include <span>
#include <vector>

#include "common/bitvec.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"

namespace femu {

/// Golden value of **every kernel slot** at every cycle — the fault-free
/// machine's full combinational settle, 1 bit per slot per cycle.
///
/// The cone-restricted engine evaluates only the instructions inside a fault
/// group's fanout-cone union. Instructions at the cone boundary read fanin
/// slots the sub-program never computes; those slots are provably golden in
/// every lane, so each cycle they are loaded with the broadcast golden value
/// from this trace instead of being recomputed. Slot index == node id, so
/// `at(t).get(slot)` is the value node `slot` settled to during cycle t
/// (inputs hold vector t, DFF Q slots hold the start-of-cycle-t state).
///
/// Size: num_slots x num_cycles bits — for b14 x 160 vectors about 47 KiB,
/// captured once per campaign and shared read-only by every worker.
struct GoldenSlotTrace {
  std::size_t num_slots = 0;
  std::vector<BitVec> cycles;

  [[nodiscard]] std::size_t num_cycles() const noexcept {
    return cycles.size();
  }

  [[nodiscard]] const BitVec& at(std::size_t t) const { return cycles[t]; }
};

/// Runs the fault-free machine over `vectors` on the compiled kernel and
/// snapshots every slot after each combinational settle.
[[nodiscard]] GoldenSlotTrace capture_golden_slots(
    const CompiledKernel& kernel, std::span<const BitVec> vectors);

/// Both golden views of one fault-free run: the output/state trace the
/// classifiers compare against, and (optionally) the full per-slot trace the
/// cone-restricted engine reads at cone boundaries.
struct GoldenCapture {
  GoldenTrace trace;
  GoldenSlotTrace slots;
};

/// Captures the golden output/state trace and (when `want_slots`) the golden
/// slot trace in ONE serial walk of the fault-free machine, replacing the
/// separate `capture_golden` (interpreted re-simulation) +
/// `capture_golden_slots` passes the engine constructor used to run back to
/// back. Bit-identical to both separate captures by construction: outputs(t)
/// and next-state(t) are read from the same settled slot values the snapshot
/// packs.
[[nodiscard]] GoldenCapture capture_golden_unified(
    const CompiledKernel& kernel, std::span<const BitVec> vectors,
    bool want_slots = true);

/// The same serial capture; `build_threads` is accepted and ignored until
/// the callers that still pass it are gone (ROADMAP item 2(b)). No defaults,
/// so a three-argument call always means `want_slots`.
[[nodiscard]] GoldenCapture capture_golden_unified(
    const CompiledKernel& kernel, std::span<const BitVec> vectors,
    unsigned build_threads, bool want_slots);

}  // namespace femu
