#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/board.h"
#include "core/controller_cost.h"
#include "core/cycle_model.h"
#include "core/instrument.h"
#include "core/ram_layout.h"
#include "core/technique.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "map/lut_mapper.h"
#include "stim/testbench.h"

namespace femu {

/// Configuration of the modelled emulation platform.
struct EmulatorOptions {
  double clock_mhz = 25.0;          ///< the paper's emulation frequency
  Board board{};                    ///< RC1000/Virtex-2000E by default
  LutMapper::Options map_options{};
  std::size_t ram_word = 32;        ///< board RAM data width
  bool compute_area = true;         ///< run the LUT mapper on the instrumented
                                    ///< netlist (skip for timing-only sweeps)
  bool enforce_fit = false;         ///< throw CapacityError when the system
                                    ///< exceeds the board
  CampaignConfig campaign{};        ///< grading-engine config (lane width,
                                    ///< evaluation mode, threads, ...)
};

/// Synthesis-side results of one technique on one circuit (Table 1 row).
struct AreaReport {
  LutMapper::Result original;
  LutMapper::Result instrumented;
  ControllerCost controller;
  RamLayout ram;

  /// Instrumented circuit + controller (the paper's "Emulator System").
  [[nodiscard]] SystemResources system() const {
    SystemResources resources;
    resources.luts = instrumented.num_luts + controller.luts;
    resources.ffs = instrumented.num_ffs + controller.ffs;
    resources.fpga_ram_bits = ram.fpga_bits();
    resources.board_ram_bits = ram.board_bits();
    return resources;
  }

  [[nodiscard]] double circuit_lut_overhead() const {
    return ratio(instrumented.num_luts, original.num_luts);
  }
  [[nodiscard]] double circuit_ff_overhead() const {
    return ratio(instrumented.num_ffs, original.num_ffs);
  }
  [[nodiscard]] double system_lut_overhead() const {
    return ratio(instrumented.num_luts + controller.luts, original.num_luts);
  }
  [[nodiscard]] double system_ff_overhead() const {
    return ratio(instrumented.num_ffs + controller.ffs, original.num_ffs);
  }

 private:
  static double ratio(std::size_t now, std::size_t base) {
    return base == 0 ? 0.0
                     : (static_cast<double>(now) - static_cast<double>(base)) /
                           static_cast<double>(base);
  }
};

/// Complete result of one autonomous-emulation campaign: the fault grading,
/// the exact cycle account (Table 2), and the synthesis view (Table 1).
struct EmulationReport {
  Technique technique = Technique::kMaskScan;
  CampaignResult grading;
  CampaignCycles cycles;
  double emulation_seconds = 0.0;  ///< cycles at the configured clock
  double us_per_fault = 0.0;
  std::optional<AreaReport> area;  ///< present when compute_area
  FitReport fit;                   ///< meaningful when area is present
  double host_engine_seconds = 0.0;  ///< wall time of the software engine
};

/// The paper's system: an FPGA-resident campaign controller that needs the
/// host only to download the design and read back the classification RAM.
///
/// This facade models that system on the simulation substrate: the fault
/// grading itself comes from the 64-way parallel fault simulator, the
/// emulated wall-clock comes from the exact controller cycle account
/// (cross-validated against the literal instrumented-netlist engine by the
/// integration tests), and the area view comes from instrumenting the real
/// netlist and running the LUT mapper on it.
class AutonomousEmulator {
 public:
  AutonomousEmulator(const Circuit& circuit, const Testbench& testbench,
                     EmulatorOptions options = {});

  /// Runs a campaign over `faults` (any schedule; cycle-major is canonical).
  [[nodiscard]] EmulationReport run(Technique technique,
                                    std::span<const Fault> faults);

  /// Grades `faults` once and applies each technique's cycle account and
  /// area to that one grading — classifications do not depend on the
  /// technique, only the emulation time and the instrumented netlist do.
  /// Reports align with `techniques`; each equals run(technique, faults).
  [[nodiscard]] std::vector<EmulationReport> run(
      std::span<const Technique> techniques, std::span<const Fault> faults);

  /// Runs the complete N x T single-SEU campaign (the paper's experiment).
  [[nodiscard]] EmulationReport run_complete(Technique technique);

  [[nodiscard]] const GoldenTrace& golden() const noexcept {
    return engine_.golden();
  }
  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }
  [[nodiscard]] const EmulatorOptions& options() const noexcept {
    return options_;
  }
  /// The underlying campaign engine — read-only access to the per-run work
  /// metrics (lane occupancy, eval instruction/byte counters, group widths).
  [[nodiscard]] const ParallelFaultSimulator& engine() const noexcept {
    return engine_;
  }
  /// Mutable engine access for campaign-lifecycle hooks that live on the
  /// engine (streaming retire callback, signature capture) — the grading
  /// semantics stay fully owned by this emulator.
  [[nodiscard]] ParallelFaultSimulator& engine() noexcept { return engine_; }

 private:
  [[nodiscard]] AreaReport compute_area(Technique technique,
                                        std::size_t num_faults) const;

  const Circuit& circuit_;
  const Testbench& testbench_;
  EmulatorOptions options_;
  ParallelFaultSimulator engine_;
};

}  // namespace femu
