#include "core/autonomous_emulator.h"

#include <utility>

#include "common/error.h"
#include "common/strings.h"

namespace femu {

AutonomousEmulator::AutonomousEmulator(const Circuit& circuit,
                                       const Testbench& testbench,
                                       EmulatorOptions options)
    : circuit_(circuit),
      testbench_(testbench),
      options_(options),
      engine_(circuit, testbench, options.campaign) {
  FEMU_CHECK(options_.clock_mhz > 0.0, "clock must be positive");
}

EmulationReport AutonomousEmulator::run(Technique technique,
                                        std::span<const Fault> faults) {
  return std::move(run(std::span<const Technique>(&technique, 1), faults)
                       .front());
}

std::vector<EmulationReport> AutonomousEmulator::run(
    std::span<const Technique> techniques, std::span<const Fault> faults) {
  const CampaignResult grading = engine_.run(faults);
  const double engine_seconds = engine_.last_run_seconds();
  const CycleModelParams params{circuit_.num_dffs(), testbench_.num_cycles(),
                                options_.ram_word};

  std::vector<EmulationReport> reports;
  reports.reserve(techniques.size());
  for (const Technique technique : techniques) {
    EmulationReport& report = reports.emplace_back();
    report.technique = technique;
    report.grading = grading;
    report.host_engine_seconds = engine_seconds;
    report.cycles =
        campaign_cycles(technique, params, faults, grading.outcomes());
    report.emulation_seconds =
        report.cycles.seconds_at_mhz(options_.clock_mhz);
    report.us_per_fault =
        report.cycles.us_per_fault(faults.size(), options_.clock_mhz);

    if (options_.compute_area) {
      report.area = compute_area(technique, faults.size());
      report.fit = check_fit(options_.board, report.area->system());
      if (options_.enforce_fit && !report.fit.fits) {
        throw CapacityError(str_cat(
            "emulator system for '", circuit_.name(), "' with ",
            technique_name(technique), " does not fit ", options_.board.name,
            ": LUT ", format_percent(report.fit.lut_util), ", FF ",
            format_percent(report.fit.ff_util), ", FPGA RAM ",
            format_percent(report.fit.fpga_ram_util), ", board RAM ",
            format_percent(report.fit.board_ram_util)));
      }
    }
  }
  return reports;
}

EmulationReport AutonomousEmulator::run_complete(Technique technique) {
  const auto faults =
      complete_fault_list(circuit_.num_dffs(), testbench_.num_cycles());
  return run(technique, faults);
}

AreaReport AutonomousEmulator::compute_area(Technique technique,
                                            std::size_t num_faults) const {
  AreaReport area;
  const LutMapper mapper(options_.map_options);
  area.original = mapper.map(circuit_);
  const InstrumentedCircuit inst = instrument(circuit_, technique);
  area.instrumented = mapper.map(inst.circuit);

  const ControllerCostParams controller_params{
      circuit_.num_inputs(), circuit_.num_outputs(), circuit_.num_dffs(),
      testbench_.num_cycles(), num_faults, options_.ram_word};
  area.controller = estimate_controller(technique, controller_params);

  const RamLayoutParams ram_params{circuit_.num_inputs(),
                                   circuit_.num_outputs(),
                                   circuit_.num_dffs(),
                                   testbench_.num_cycles(),
                                   num_faults,
                                   /*class_bits=*/2};
  area.ram = compute_ram_layout(technique, ram_params);
  return area;
}

}  // namespace femu
