// Campaign-engine throughput bench with machine-readable JSON output —
// the multi-circuit bench matrix.
//
// Sweeps a matrix of circuits x engine configurations and reports, per
// entry, faults/sec, eval-cycles/sec, kernel instructions executed and
// eval_bytes_per_instr (slot-storage bytes streamed per executed kernel
// instruction — the memory-wall metric):
//
//   b14            — the paper's benchmark: the full engine ladder
//                    (full vs cone, 64/256/512 lanes, single- vs
//                    multi-threaded) plus a same-sized
//                    sampled SET campaign through the injection overlay and
//                    a complete stuck-at test-pattern campaign through the
//                    every-cycle force overlay
//   pipe8x32       — generator family sweep (pipeline depth x width):
//   pipe16x64        cone-restricted engines at 64/256/512 lanes, sampled
//   pipe32x128       SEU campaigns; the per-family faults/sec trend across
//                    lane widths shows where each circuit shape hits the
//                    memory wall (best_cone_lane_width per circuit)
//
// Each engine entry reports its lane_occupancy and group counts, so a
// partial final group is visible per line.
//
// The *-noopt-* configurations run with the kernel IR optimizer off
// (CampaignConfig::optimize = false — sim/kernel_opt.h): the A/B baseline
// for the optimizer's instruction reduction. Every engine entry reports an
// "optimizer" object (raw vs optimized instruction counts and the
// per-pass deletions), and the identical-classification cross-check
// covers opt-on vs opt-off rows of the same model like any other pair.
//
// Circuits with more FFs than CampaignConfig::greedy_order_cap (or at least
// CampaignConfig::kOnDemandNodeThreshold nodes) derive cones on demand with
// the anchor order; pipe32x128 (4,096 FFs) is one, so the matrix also tracks
// the oracle's schedule-construction cost in the wall-clock numbers.
//
// Classification counts are cross-checked across all configurations of the
// same (circuit, fault model); any disagreement is reported in the JSON
// ("identical_classifications") and fails the process, so CI can use this
// bench as a correctness smoke test as well as a perf trajectory.
//
// The *-cache-cold-* / *-cache-warm-* twins (b14 and pipe32x128) run the
// same cone campaign against a fresh artifact-cache directory: the cold
// twin pays full setup and stores the entry, the warm twin loads it back.
// Their per-phase JSON ("setup_s", "cache_load_s", "cache_hits") is the
// committed evidence for the setup-wall speedup; the classification
// cross-check covers the pair like any other twin.
//
// Usage: engine_throughput [--cycles N] [--repeat N] [--out FILE]
//                          [--bench-index N] [--baseline FILE]
//                          [--bench-file FILE]
//   --cycles N       b14 testbench length (default 160, the paper's vector
//                    count; pipeline circuits use min(N, 48) vectors)
//   --repeat N       timed repetitions per config, best-of (default 3)
//   --out FILE       write the JSON to FILE instead of stdout
//   --bench-index N  write the JSON to BENCH_<N>.json — the stable name CI
//                    uses so the perf trajectory accumulates across PRs
//   --baseline FILE  previous BENCH_*.json to compare against; regressions
//                    >10% on matching "<circuit>/<config>" names print a
//                    warning but do NOT fail the process (soft-fail check)
//   --bench-file FILE
//                    additionally run an external ISCAS-89 .bench netlist
//                    through the cone-engine ladder (complete SEU campaign,
//                    same cross-check) — external circuits ride the same
//                    matrix as the built-ins

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "fault/fault_list.h"
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/bench_io.h"
#include "sim/simd_dispatch.h"
#include "stim/generate.h"

namespace {

using namespace femu;

struct BenchConfig {
  const char* name;
  FaultModel model;
  CampaignConfig campaign;
};

struct BenchResult {
  std::string name;  // "<circuit>/<config>"
  std::string circuit;
  FaultModel model = FaultModel::kSeu;
  CampaignConfig config;
  unsigned threads = 1;
  std::size_t faults = 0;
  double seconds = 0.0;
  std::uint64_t eval_cycles = 0;
  std::uint64_t eval_instrs = 0;
  std::uint64_t eval_slot_bytes = 0;
  double lane_occupancy = 1.0;
  obs::GroupWidthCounts group_widths;

  // Per-phase breakdown: one-time construction phases (kernel compile,
  // golden/slot traces + word images, cone build) from the engine's
  // telemetry scalars, plus the best-of grading wall time. compile/golden/
  // cone are paid once per engine; grade_s is what `seconds` times.
  double compile_s = 0.0;
  double golden_s = 0.0;
  double cone_s = 0.0;
  double cache_load_s = 0.0;
  double cache_store_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  // The setup wall: everything paid before the first fault grades (the
  // cache-store write-back is excluded — it overlaps no grading and a warm
  // run never pays it).
  [[nodiscard]] double setup_s() const {
    return compile_s + golden_s + cone_s + cache_load_s;
  }
  [[nodiscard]] double setup_frac() const {
    const double total = setup_s() + seconds;
    return total > 0.0 ? setup_s() / total : 0.0;
  }

  // Kernel-optimizer accounting of the run kernel (all zero when the row
  // runs opt-off).
  std::uint64_t opt_raw_instrs = 0;
  std::uint64_t opt_instrs = 0;
  std::uint64_t opt_absorbed = 0;
  std::uint64_t opt_folded = 0;
  std::uint64_t opt_dead = 0;

  ClassCounts counts;

  [[nodiscard]] double faults_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(faults) / seconds : 0.0;
  }
  [[nodiscard]] double eval_cycles_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(eval_cycles) / seconds : 0.0;
  }
  [[nodiscard]] double eval_bytes_per_instr() const {
    return eval_instrs > 0
               ? static_cast<double>(eval_slot_bytes) /
                     static_cast<double>(eval_instrs)
               : 0.0;
  }
};

struct CircuitSummary {
  std::string name;
  std::size_t nodes = 0;
  std::size_t gates = 0;
  std::size_t ffs = 0;
  std::size_t cycles = 0;
  std::size_t best_cone_lane_width = 0;  // fastest 1t cone config
};

void write_json(std::ostream& out, const std::vector<BenchResult>& results,
                const std::vector<CircuitSummary>& circuits, bool identical,
                double cone_speedup_64, double set_faults_per_sec,
                double set_faults_per_sec_full) {
  // Baseline for speedup_vs_base: the first entry of the same circuit —
  // compiled-64-full-1t on b14 (and on a --bench-file netlist),
  // compiled-64-cone-1t on the pipeline families (which run no full-eval
  // row). Per-circuit relative only; never compare the column across
  // circuits.
  const auto base_of = [&](const BenchResult& r) -> const BenchResult& {
    for (const BenchResult& b : results) {
      if (b.circuit == r.circuit) return b;
    }
    return r;
  };
  out << "{\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"word512_simd_path\": \"" << word512_simd_path() << "\",\n";
  out << "  \"identical_classifications\": " << (identical ? "true" : "false")
      << ",\n";
  out << "  \"cone_speedup_64\": " << cone_speedup_64 << ",\n";
  out << "  \"set_faults_per_sec\": " << set_faults_per_sec << ",\n";
  out << "  \"set_faults_per_sec_full\": " << set_faults_per_sec_full
      << ",\n";
  out << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const CircuitSummary& c = circuits[i];
    out << "    {\"name\": \"" << c.name << "\", \"nodes\": " << c.nodes
        << ", \"gates\": " << c.gates << ", \"ffs\": " << c.ffs
        << ", \"cycles\": " << c.cycles << ", \"best_cone_lane_width\": "
        << c.best_cone_lane_width << "}"
        << (i + 1 < circuits.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"engines\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    const double base = base_of(r).faults_per_sec();
    out << "    {\"name\": \"" << r.name << "\", \"circuit\": \""
        << r.circuit << "\", \"model\": \"" << fault_model_name(r.model)
        << "\", \"lanes\": " << lane_count(r.config.lanes)
        << ", \"cone_restricted\": "
        << (r.config.cone_restricted ? "true" : "false")
        << ", \"schedule\": \"" << campaign_schedule_name(r.config.schedule)
        << "\", \"threads\": " << r.threads << ", \"faults\": " << r.faults
        << ", \"seconds\": " << r.seconds
        << ", \"faults_per_sec\": " << r.faults_per_sec()
        << ", \"eval_cycles\": " << r.eval_cycles
        << ", \"eval_instrs\": " << r.eval_instrs
        << ", \"eval_bytes_per_instr\": " << r.eval_bytes_per_instr()
        << ", \"eval_cycles_per_sec\": " << r.eval_cycles_per_sec()
        << ", \"lane_occupancy\": " << r.lane_occupancy
        << ", \"group_widths\": {\"64\": " << r.group_widths.g64
        << ", \"256\": " << r.group_widths.g256
        << ", \"512\": " << r.group_widths.g512 << "}"
        << ", \"optimizer\": {\"raw_instrs\": " << r.opt_raw_instrs
        << ", \"instrs\": " << r.opt_instrs
        << ", \"absorbed\": " << r.opt_absorbed
        << ", \"folded\": " << r.opt_folded
        << ", \"dead\": " << r.opt_dead << "}"
        << ", \"phases\": {\"compile_s\": " << r.compile_s
        << ", \"golden_s\": " << r.golden_s << ", \"cone_s\": " << r.cone_s
        << ", \"cache_load_s\": " << r.cache_load_s
        << ", \"cache_store_s\": " << r.cache_store_s
        << ", \"grade_s\": " << r.seconds
        << ", \"setup_s\": " << r.setup_s()
        << ", \"setup_frac\": " << r.setup_frac() << "}"
        << ", \"cache\": {\"hits\": " << r.cache_hits
        << ", \"misses\": " << r.cache_misses << "}"
        << ", \"speedup_vs_base\": "
        << (base > 0.0 ? r.faults_per_sec() / base : 0.0)
        << ", \"counts\": {\"failure\": " << r.counts.failure
        << ", \"latent\": " << r.counts.latent
        << ", \"silent\": " << r.counts.silent << "}}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

/// Pulls "name": <string> / "faults_per_sec": <number> pairs out of a
/// previous BENCH_*.json without a JSON library — the bench emits one engine
/// object per line, so a line-oriented scan is exact for our own output.
std::vector<std::pair<std::string, double>> read_baseline(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto name_pos = line.find("\"name\": \"");
    const auto fps_pos = line.find("\"faults_per_sec\": ");
    if (name_pos == std::string::npos || fps_pos == std::string::npos) {
      continue;
    }
    const auto name_begin = name_pos + 9;
    const auto name_end = line.find('"', name_begin);
    const std::string name = line.substr(name_begin, name_end - name_begin);
    const double fps = std::strtod(line.c_str() + fps_pos + 18, nullptr);
    entries.emplace_back(name, fps);
  }
  return entries;
}

CampaignConfig full_config(LaneWidth w, unsigned threads) {
  return {.lanes = w,
          .num_threads = threads,
          .cone_restricted = false,
          .schedule = CampaignSchedule::kCycleMajor};
}

CampaignConfig cone_config(LaneWidth w, unsigned threads) {
  return {.lanes = w,
          .num_threads = threads,
          .cone_restricted = true,
          .schedule = CampaignSchedule::kConeAffine};
}

/// cone_config with the kernel IR optimizer off — the raw-kernel A/B
/// baseline the optimizer rows are measured against.
CampaignConfig noopt_cone_config(LaneWidth w, unsigned threads) {
  CampaignConfig config = cone_config(w, threads);
  config.optimize = false;
  return config;
}

/// cone_config against a persistent artifact cache. The cold/warm twins
/// share `dir`: main() wipes it before the circuit runs, construction order
/// inside run_circuit puts the cold twin first, so the warm twin always
/// finds the entry the cold one stored.
CampaignConfig cached_cone_config(LaneWidth w, unsigned threads,
                                  const std::string& dir) {
  CampaignConfig config = cone_config(w, threads);
  config.cache_dir = dir;
  return config;
}

/// Per-circuit scratch cache directory for the cold/warm twins, wiped on
/// every bench invocation so the cold twin is genuinely cold.
std::string fresh_cache_dir(const std::string& circuit_name) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("femu-bench-cache-" + circuit_name);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir.string();
}

/// Runs one circuit's configuration set (round-robin over repetitions so
/// machine-load drift lands on all configurations roughly equally) and
/// appends the results.
void run_circuit(const std::string& circuit_name, const Circuit& circuit,
                 const Testbench& tb, std::span<const Fault> seu_faults,
                 std::span<const SetFault> set_faults,
                 std::span<const StuckAtFault> stuckat_faults,
                 std::span<const BenchConfig> configs, int repeat,
                 std::vector<BenchResult>& results,
                 std::vector<CircuitSummary>& circuits) {
  const auto fault_count = [&](FaultModel model) {
    switch (model) {
      case FaultModel::kSet: return set_faults.size();
      case FaultModel::kStuckAt: return stuckat_faults.size();
      default: return seu_faults.size();
    }
  };
  std::vector<std::unique_ptr<ParallelFaultSimulator>> sims;
  const std::size_t first_result = results.size();
  for (const BenchConfig& config : configs) {
    sims.push_back(std::make_unique<ParallelFaultSimulator>(circuit, tb,
                                                            config.campaign));
    BenchResult r;
    r.name = circuit_name + "/" + config.name;
    r.circuit = circuit_name;
    r.model = config.model;
    r.config = config.campaign;
    r.faults = fault_count(config.model);
    r.seconds = -1.0;
    results.push_back(std::move(r));
  }
  for (int rep = 0; rep < repeat; ++rep) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      ParallelFaultSimulator& sim = *sims[i];
      BenchResult& r = results[first_result + i];
      if (r.model == FaultModel::kSet) {
        const SetCampaignResult result = sim.run_set(set_faults);
        r.counts = result.counts;
      } else if (r.model == FaultModel::kStuckAt) {
        const StuckAtCampaignResult result = sim.run_stuckat(stuckat_faults);
        r.counts = result.counts;
      } else {
        const CampaignResult result = sim.run(seu_faults);
        r.counts = result.counts();
      }
      r.threads = sim.last_run_threads();  // actual workers, post-clamp
      if (r.seconds < 0.0 || sim.last_run_seconds() < r.seconds) {
        r.seconds = sim.last_run_seconds();
        r.eval_cycles = sim.last_run_eval_cycles();
        r.eval_instrs = sim.last_run_eval_instrs();
        r.eval_slot_bytes = sim.last_run_eval_slot_bytes();
        r.lane_occupancy = sim.last_run_lane_occupancy();
        r.group_widths = sim.last_run_group_widths();
      }
    }
  }
  // Construction-phase scalars plus the optimizer counters, which describe
  // the kernel the reps executed (so they are read after the reps).
  for (std::size_t i = 0; i < configs.size(); ++i) {
    BenchResult& r = results[first_result + i];
    const obs::CampaignTelemetry& t = sims[i]->telemetry_snapshot();
    r.compile_s = t.compile_seconds;
    r.golden_s = t.golden_seconds;
    r.cone_s = t.cone_seconds;
    r.cache_load_s = t.cache_load_seconds;
    r.cache_store_s = t.cache_store_seconds;
    r.cache_hits = t.cache_hits;
    r.cache_misses = t.cache_misses;
    r.opt_raw_instrs = t.opt_raw_instrs;
    r.opt_instrs = t.opt_instrs;
    r.opt_absorbed = t.opt_absorbed;
    r.opt_folded = t.opt_folded;
    r.opt_dead = t.opt_dead;
  }

  CircuitSummary summary;
  summary.name = circuit_name;
  summary.nodes = circuit.node_count();
  summary.gates = circuit.num_gates();
  summary.ffs = circuit.num_dffs();
  summary.cycles = tb.num_cycles();
  double best_fps = 0.0;
  for (std::size_t i = first_result; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    if (r.model != FaultModel::kSeu || !r.config.cone_restricted ||
        r.threads != 1) {
      continue;
    }
    if (r.faults_per_sec() > best_fps) {
      best_fps = r.faults_per_sec();
      summary.best_cone_lane_width = lane_count(r.config.lanes);
    }
  }
  circuits.push_back(std::move(summary));

  for (std::size_t i = first_result; i < results.size(); ++i) {
    std::cerr << results[i].name << ": " << results[i].faults_per_sec()
              << " faults/s (" << results[i].seconds << " s, "
              << results[i].eval_bytes_per_instr() << " B/instr)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cycles = 160;
  int repeat = 3;
  std::string out_path;
  std::string baseline_path;
  std::string bench_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      cycles = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--bench-index") == 0 && i + 1 < argc) {
      out_path = std::string("BENCH_") + argv[++i] + ".json";
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--bench-file") == 0 && i + 1 < argc) {
      bench_file = argv[++i];
    } else {
      std::cerr << "usage: engine_throughput [--cycles N] [--repeat N]"
                   " [--out FILE] [--bench-index N] [--baseline FILE]"
                   " [--bench-file FILE]\n";
      return 2;
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr FaultModel kSeu = FaultModel::kSeu;
  constexpr FaultModel kSet = FaultModel::kSet;
  constexpr FaultModel kStuckAt = FaultModel::kStuckAt;

  std::vector<BenchResult> results;
  std::vector<CircuitSummary> circuit_summaries;

  // ---- b14: the full engine ladder (the paper's campaign shape) ----------
  {
    const std::string b14_cache_dir = fresh_cache_dir("b14");
    const Circuit circuit = circuits::build_b14();
    const Testbench tb = random_testbench(circuit.num_inputs(), cycles, 2005);
    const auto faults =
        complete_fault_list(circuit.num_dffs(), tb.num_cycles());
    // SET campaign: representative gate sites x cycles is ~20x the SEU set
    // on b14, so sample it down to the SEU campaign's size — same work
    // scale, directly comparable faults/sec.
    const SetSites sites(circuit);
    const auto set_faults = sample_set_fault_list(
        sites, tb.num_cycles(),
        std::min(faults.size(),
                 sites.num_representatives() * tb.num_cycles()),
        2005);
    // Stuck-at: the complete collapsed test-pattern campaign (2 polarities
    // per representative site). Undetected lanes run the whole testbench —
    // no convergence retirement — so this config also tracks the
    // every-cycle force overlay's cost.
    const auto stuckat_faults = complete_stuckat_fault_list(sites);
    const std::vector<BenchConfig> configs = {
        {"compiled-64-full-1t", kSeu, full_config(LaneWidth::k64, 1)},
        {"compiled-64-cone-1t", kSeu, cone_config(LaneWidth::k64, 1)},
        {"compiled-256-full-1t", kSeu, full_config(LaneWidth::k256, 1)},
        {"compiled-256-cone-1t", kSeu, cone_config(LaneWidth::k256, 1)},
        {"compiled-512-full-1t", kSeu, full_config(LaneWidth::k512, 1)},
        {"compiled-512-cone-1t", kSeu, cone_config(LaneWidth::k512, 1)},
        {"compiled-512-cone-noopt-1t", kSeu,
         noopt_cone_config(LaneWidth::k512, 1)},
        {"compiled-64-cone-mt", kSeu, cone_config(LaneWidth::k64, hw)},
        {"compiled-256-cone-mt", kSeu, cone_config(LaneWidth::k256, hw)},
        {"compiled-512-cone-mt", kSeu, cone_config(LaneWidth::k512, hw)},
        {"set-64-full-1t", kSet, full_config(LaneWidth::k64, 1)},
        {"set-64-cone-1t", kSet, cone_config(LaneWidth::k64, 1)},
        {"set-256-cone-1t", kSet, cone_config(LaneWidth::k256, 1)},
        {"set-512-cone-1t", kSet, cone_config(LaneWidth::k512, 1)},
        {"set-512-cone-noopt-1t", kSet,
         noopt_cone_config(LaneWidth::k512, 1)},
        {"set-64-cone-mt", kSet, cone_config(LaneWidth::k64, hw)},
        {"stuckat-64-cone-1t", kStuckAt, cone_config(LaneWidth::k64, 1)},
        {"stuckat-512-cone-1t", kStuckAt, cone_config(LaneWidth::k512, 1)},
        {"stuckat-512-cone-noopt-1t", kStuckAt,
         noopt_cone_config(LaneWidth::k512, 1)},
        {"stuckat-64-cone-mt", kStuckAt, cone_config(LaneWidth::k64, hw)},
        {"compiled-512-cone-cache-cold-1t", kSeu,
         cached_cone_config(LaneWidth::k512, 1, b14_cache_dir)},
        {"compiled-512-cone-cache-warm-1t", kSeu,
         cached_cone_config(LaneWidth::k512, 1, b14_cache_dir)},
    };
    run_circuit("b14", circuit, tb, faults, set_faults, stuckat_faults,
                configs, repeat, results, circuit_summaries);
  }

  // ---- generator family sweep: pipeline depth x width --------------------
  //
  // Cone-restricted engines across the three lane widths on sampled SEU
  // campaigns. The family spans ~0.8k to ~12k gates, so the per-family
  // lane-width trend shows where each circuit shape's working set crosses
  // the cache hierarchy (pipe32x128, past the greedy FF cap, runs with
  // on-demand cones and the anchor order).
  struct Family {
    const char* name;
    std::size_t stages;
    std::size_t width;
    std::size_t sample;
  };
  const std::vector<Family> families = {
      {"pipe8x32", 8, 32, 4096},
      {"pipe16x64", 16, 64, 4096},
      {"pipe32x128", 32, 128, 4096},
  };
  const std::size_t pipe_cycles = std::min<std::size_t>(cycles, 48);
  for (const Family& family : families) {
    const Circuit circuit = circuits::build_pipeline(family.stages,
                                                     family.width);
    const Testbench tb =
        random_testbench(circuit.num_inputs(), pipe_cycles, 2005);
    const std::size_t total = circuit.num_dffs() * tb.num_cycles();
    const auto faults =
        family.sample >= total
            ? complete_fault_list(circuit.num_dffs(), tb.num_cycles())
            : sample_fault_list(circuit.num_dffs(), tb.num_cycles(),
                                family.sample, 2005);
    std::vector<BenchConfig> configs = {
        {"compiled-64-cone-1t", kSeu, cone_config(LaneWidth::k64, 1)},
        {"compiled-256-cone-1t", kSeu, cone_config(LaneWidth::k256, 1)},
        {"compiled-512-cone-1t", kSeu, cone_config(LaneWidth::k512, 1)},
        {"compiled-512-cone-noopt-1t", kSeu,
         noopt_cone_config(LaneWidth::k512, 1)},
        {"compiled-512-cone-mt", kSeu, cone_config(LaneWidth::k512, hw)},
    };
    // Cache twins on the largest family only — it has the largest setup
    // artifacts (golden slot trace, cone oracle), so it is the cache's
    // evidence.
    std::string family_cache_dir;
    if (family.name == std::string("pipe32x128")) {
      family_cache_dir = fresh_cache_dir(family.name);
      configs.push_back({"compiled-512-cone-cache-cold-1t", kSeu,
                         cached_cone_config(LaneWidth::k512, 1,
                                            family_cache_dir)});
      configs.push_back({"compiled-512-cone-cache-warm-1t", kSeu,
                         cached_cone_config(LaneWidth::k512, 1,
                                            family_cache_dir)});
    }
    run_circuit(family.name, circuit, tb, faults, {}, {}, configs, repeat,
                results, circuit_summaries);
  }

  // ---- external .bench netlist through the cone ladder -------------------
  if (!bench_file.empty()) {
    const Circuit circuit = load_bench_file(bench_file);
    const Testbench tb =
        random_testbench(circuit.num_inputs(), pipe_cycles, 2005);
    const auto faults =
        complete_fault_list(circuit.num_dffs(), tb.num_cycles());
    const std::vector<BenchConfig> configs = {
        {"compiled-64-full-1t", kSeu, full_config(LaneWidth::k64, 1)},
        {"compiled-64-cone-1t", kSeu, cone_config(LaneWidth::k64, 1)},
        {"compiled-256-cone-1t", kSeu, cone_config(LaneWidth::k256, 1)},
        {"compiled-512-cone-1t", kSeu, cone_config(LaneWidth::k512, 1)},
    };
    run_circuit(circuit.name(), circuit, tb, faults, {}, {}, configs, repeat,
                results, circuit_summaries);
  }

  // Per-(circuit, model) cross-check: every configuration of a model must
  // classify its campaign identically.
  bool identical = true;
  for (const BenchResult& r : results) {
    const BenchResult* base_of_model = nullptr;
    for (const BenchResult& b : results) {
      if (b.model == r.model && b.circuit == r.circuit) {
        base_of_model = &b;
        break;
      }
    }
    identical = identical &&
                r.counts.failure == base_of_model->counts.failure &&
                r.counts.latent == base_of_model->counts.latent &&
                r.counts.silent == base_of_model->counts.silent;
  }

  // The tentpole numbers (b14): cone vs full at 64 lanes, and the SET
  // overlay throughput, both single-threaded.
  const auto fps_of = [&](const char* name) {
    for (const BenchResult& r : results) {
      if (r.name == name) return r.faults_per_sec();
    }
    return 0.0;
  };
  const double full64 = fps_of("b14/compiled-64-full-1t");
  const double cone64 = fps_of("b14/compiled-64-cone-1t");
  const double cone_speedup_64 = full64 > 0.0 ? cone64 / full64 : 0.0;
  const double set_cone64 = fps_of("b14/set-64-cone-1t");
  const double set_full64 = fps_of("b14/set-64-full-1t");
  std::cerr << "cone-restricted speedup vs full-eval (b14, 64 lanes, 1t): "
            << cone_speedup_64 << "x\n";
  std::cerr << "SET throughput (b14, 64 lanes, 1t): cone " << set_cone64
            << " faults/s, full-eval " << set_full64 << " faults/s\n";
  std::cerr << "Word512 SIMD path: " << word512_simd_path() << "\n";
  for (const CircuitSummary& c : circuit_summaries) {
    std::cerr << c.name << ": best cone lane width " << c.best_cone_lane_width
              << "\n";
  }

  if (out_path.empty()) {
    write_json(std::cout, results, circuit_summaries, identical,
               cone_speedup_64, set_cone64, set_full64);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 2;
    }
    write_json(out, results, circuit_summaries, identical, cone_speedup_64,
               set_cone64, set_full64);
    std::cerr << "wrote " << out_path << "\n";
  }

  // Soft-fail regression check: compare against a previous BENCH_*.json by
  // "<circuit>/<config>" name. Warn-only — machine noise must not break CI;
  // the warning plus the accumulated artifacts give the trajectory
  // reviewers the signal.
  if (!baseline_path.empty()) {
    const auto baseline = read_baseline(baseline_path);
    if (baseline.empty()) {
      std::cerr << "baseline " << baseline_path
                << " has no engine entries — skipping regression check\n";
    }
    for (const auto& [name, prev_fps] : baseline) {
      bool matched = false;
      for (const BenchResult& r : results) {
        if (name != r.name) continue;
        matched = true;
        if (prev_fps <= 0.0) {
          std::cerr << "NOTE: baseline config \"" << name
                    << "\" has a non-positive faults_per_sec — comparison "
                       "skipped\n";
          break;
        }
        const double ratio = r.faults_per_sec() / prev_fps;
        if (ratio < 0.9) {
          std::cerr << "WARNING: " << name << " regressed to " << ratio
                    << "x of baseline (" << r.faults_per_sec() << " vs "
                    << prev_fps << " faults/s)\n";
        }
      }
      // Renamed/retired configs must be loud, not silently uncompared —
      // otherwise a rename would blind the whole regression check.
      if (!matched) {
        std::cerr << "NOTE: baseline config \"" << name
                  << "\" has no current counterpart — comparison skipped\n";
      }
    }
  }

  if (!identical) {
    std::cerr << "ERROR: classification counts differ across engines\n";
    return 1;
  }
  return 0;
}
