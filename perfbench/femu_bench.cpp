// End-to-end benchmark program: runs one workload as a closed loop of cold
// fault-grading campaigns (one client; each campaign starts when the previous
// one ends) and prints the raw samples as one JSON object on stdout.
// perfbench/run.py builds this program, aggregates the samples and prints the
// named metrics.
//
//   femu_bench reference --workload W --set-seeds N[,N...]
//       Outcome digest of each input set (one per seed), graded by the
//       independent serial reference engines (SerialFaultSimulator,
//       SerialSetSimulator, SerialStuckAtSimulator) sharded over a few threads.
//   femu_bench run --workload W --set-seeds N[,N...] --seconds S --trace 0|1
//                  --expect-digest HEX[,HEX...] --work-dir DIR
//       The timed loop, cycling through the input sets. Every campaign's
//       digest is compared with the one for its input set, and its exact work
//       counts are reported for run.py to compare. --trace 1 additionally
//       times each layer's public setup functions standalone, and interleaves
//       campaigns with an obs::TelemetryCollector attached (their Chrome
//       traces go to DIR/traces.jsonl) with untraced ones.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/b14.h"
#include "circuits/generators.h"
#include "common/parallel_for.h"
#include "common/timer.h"
#include "fault/artifact_cache.h"
#include "fault/dictionary.h"
#include "fault/fault_list.h"
#include "fault/journal.h"
#include "fault/model_traits.h"
#include "fault/parallel_faultsim.h"
#include "fault/serial_faultsim.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/fanout_cones.h"
#include "obs/telemetry.h"
#include "sim/compiled_kernel.h"
#include "sim/golden_slots.h"
#include "sim/golden_words.h"
#include "sim/kernel_opt.h"
#include "sim/simd_dispatch.h"
#include "stim/generate.h"

namespace {

using namespace femu;

// Engine workers per campaign. Fixed rather than hardware_concurrency so a
// result does not depend on the host's core count; see README.md.
constexpr unsigned kWorkers = 4;

enum class Kind { kSeu, kPipe, kSite, kDurable };

struct Workload {
  std::string_view name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"b14-seu", Kind::kSeu},
    {"pipe32x128-seu", Kind::kPipe},
    {"b14-site", Kind::kSite},
    {"b14-seu-durable", Kind::kDurable},
};

// One testbench and the fault lists graded on it.
struct InputSet {
  Testbench testbench;
  std::span<const Fault> seu;  // into Inputs::seu_lists
  std::vector<SetFault> set;
  std::vector<StuckAtFault> stuckat;
};

struct Inputs {
  Circuit circuit;
  // The complete SEU list does not depend on the seed, so the b14 SEU sets
  // share one copy and extra sets do not inflate peak_rss_mb.
  std::vector<std::vector<Fault>> seu_lists;
  std::vector<InputSet> sets;
};

// The library sees only these generated inputs. A set's seed drives both its
// stimuli and any fault sampling, as in the repository's CLI.
Inputs make_inputs(const Workload& w,
                   std::span<const std::uint64_t> set_seeds) {
  const bool pipe = w.kind == Kind::kPipe;
  Inputs in{pipe ? circuits::build_pipeline(32, 128) : circuits::build_b14(),
            {}, {}};
  const std::size_t cycles = pipe ? 48 : 160;
  const std::size_t ffs = in.circuit.num_dffs();
  if (w.kind == Kind::kSeu || w.kind == Kind::kDurable) {
    in.seu_lists.push_back(complete_fault_list(ffs, cycles));
  }
  for (const std::uint64_t set_seed : set_seeds) {
    InputSet set{random_testbench(in.circuit.num_inputs(), cycles, set_seed),
                 {}, {}, {}};
    if (pipe) {
      in.seu_lists.push_back(sample_fault_list(ffs, cycles, 4096, set_seed));
    } else if (w.kind == Kind::kSite) {
      const SetSites sites(in.circuit);
      set.set = sample_set_fault_list(sites, cycles, 34400, set_seed);
      set.stuckat = complete_stuckat_fault_list(sites);
    }
    if (!in.seu_lists.empty()) set.seu = in.seu_lists.back();
    in.sets.push_back(std::move(set));
  }
  return in;
}

std::size_t engines_per_campaign(Kind kind) {
  return kind == Kind::kSite ? 2 : 1;
}

// FNV-1a over every outcome field, in caller order.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;

  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value ^= (word >> (8 * i)) & 0xff;
      value *= 0x100000001b3ull;
    }
  }
  void add(std::span<const FaultOutcome> outcomes) {
    add(outcomes.size());
    for (const FaultOutcome& o : outcomes) {
      add(static_cast<std::uint64_t>(o.cls));
      add(o.detect_cycle);
      add(o.converge_cycle);
    }
  }
};

std::span<const FaultOutcome> outcomes_of(const CampaignResult& r) {
  return r.outcomes();
}
std::span<const FaultOutcome> outcomes_of(const SetCampaignResult& r) {
  return r.outcomes;
}
std::span<const FaultOutcome> outcomes_of(const StuckAtCampaignResult& r) {
  return r.outcomes;
}

// Grades `faults` with one serial reference simulator per thread; each thread
// takes every kWorkers-th chunk so early- and late-cycle faults spread evenly.
template <typename Serial, typename FaultT>
std::vector<FaultOutcome> serial_outcomes(const Circuit& circuit,
                                          const Testbench& testbench,
                                          std::span<const FaultT> faults) {
  constexpr std::size_t kChunks = 64;
  const std::size_t chunk = (faults.size() + kChunks - 1) / kChunks;
  std::vector<FaultOutcome> out(faults.size());
  parallel_for_ranges(kWorkers, kWorkers, [&](std::size_t begin,
                                              std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      Serial sim(circuit, testbench);
      for (std::size_t c = t; c * chunk < faults.size(); c += kWorkers) {
        const std::size_t first = c * chunk;
        const std::size_t count = std::min(chunk, faults.size() - first);
        const auto result = sim.run(faults.subspan(first, count));
        const std::span<const FaultOutcome> got = outcomes_of(result);
        std::copy(got.begin(), got.end(), out.begin() + first);
      }
    }
  });
  return out;
}

std::uint64_t reference_digest(Kind kind, const Circuit& circuit,
                               const InputSet& set) {
  const Testbench& tb = set.testbench;
  Digest d;
  if (kind == Kind::kSite) {
    d.add(serial_outcomes<SerialSetSimulator, SetFault>(circuit, tb, set.set));
    d.add(serial_outcomes<SerialStuckAtSimulator, StuckAtFault>(circuit, tb,
                                                                set.stuckat));
  } else {
    d.add(serial_outcomes<SerialFaultSimulator, Fault>(circuit, tb, set.seu));
  }
  return d.value;
}

// Work counts that must repeat exactly across campaigns of one code + seed.
struct Counts {
  std::uint64_t kernel_instrs = 0;
  std::uint64_t opt_instrs = 0;
  std::uint64_t eval_instrs = 0;
  std::uint64_t eval_slot_bytes = 0;
  std::uint64_t eval_cycles = 0;
  std::uint64_t narrowings = 0;
  std::uint64_t groups = 0;
  std::uint64_t lane_slots = 0;
  std::uint64_t faults = 0;
  std::uint64_t cache_bytes_read = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t dictionary_bytes = 0;

  friend bool operator==(const Counts&, const Counts&) = default;

  void add_engine(const ParallelFaultSimulator& sim) {
    const obs::CampaignTelemetry& t = sim.telemetry_snapshot();
    kernel_instrs += t.opt_raw_instrs;
    opt_instrs += t.opt_instrs;
    eval_instrs += t.eval_instrs;
    eval_slot_bytes += t.eval_slot_bytes;
    eval_cycles += t.eval_cycles;
    narrowings += t.narrowings;
    groups += t.group_widths.total();
    lane_slots += 64 * t.group_widths.g64 + 256 * t.group_widths.g256 +
                  512 * t.group_widths.g512;
    faults += t.faults;
    cache_bytes_read += t.cache_bytes_read;
  }
};

struct Sample {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  double grade_s = 0.0;
  double dictionary_s = 0.0;
  unsigned threads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t digest = 0;
  Counts counts;
  std::string error;
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak resident set of this program in KiB. getrusage's ru_maxrss is not
// used: Linux carries the pre-exec high-water mark of the forking parent into
// it, so under run.py it reads the Python interpreter's footprint.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

std::uint64_t file_bytes(const std::filesystem::path& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

CampaignConfig campaign_config(Kind kind, const std::filesystem::path& work,
                               obs::TelemetryCollector* telemetry) {
  CampaignConfig cfg;
  cfg.num_threads = kWorkers;
  cfg.telemetry = telemetry;
  if (kind == Kind::kDurable) cfg.cache_dir = (work / "cache").string();
  return cfg;
}

// One cold campaign: fresh engine(s), from netlist + testbench + fault list
// to classified result (plus journal and dictionary on the durable
// workload). Only the campaign itself is inside the wall/CPU window; the
// digest and file sizes are taken after it.
Sample run_campaign(Kind kind, const Circuit& circuit, const InputSet& in,
                    const std::filesystem::path& work,
                    obs::TelemetryCollector* telemetry) {
  Sample s;
  s.traced = telemetry != nullptr;
  const CampaignConfig cfg = campaign_config(kind, work, telemetry);
  const std::filesystem::path journal = work / "campaign.journal";
  const std::filesystem::path dict = work / "campaign.dict";
  CampaignResult seu_result;
  SetCampaignResult set_result;
  StuckAtCampaignResult stuckat_result;
  const auto note_engine = [&s](const ParallelFaultSimulator& sim) {
    s.counts.add_engine(sim);
    s.threads = std::max(s.threads, sim.last_run_threads());
    s.cache_hits += sim.telemetry_snapshot().cache_hits;
    s.cache_misses += sim.telemetry_snapshot().cache_misses;
  };
  try {
    const double cpu0 = process_cpu_seconds();
    const WallTimer wall;
    if (kind == Kind::kSite) {
      {
        WallTimer t;
        ParallelFaultSimulator sim(circuit, in.testbench, cfg);
        s.setup_s += t.elapsed_seconds();
        t.restart();
        set_result = sim.run_set(in.set);
        s.grade_s += t.elapsed_seconds();
        note_engine(sim);
      }
      {
        WallTimer t;
        ParallelFaultSimulator sim(circuit, in.testbench, cfg);
        s.setup_s += t.elapsed_seconds();
        t.restart();
        stuckat_result = sim.run_stuckat(in.stuckat);
        s.grade_s += t.elapsed_seconds();
        note_engine(sim);
      }
    } else {
      WallTimer t;
      ParallelFaultSimulator sim(circuit, in.testbench, cfg);
      s.setup_s = t.elapsed_seconds();
      if (kind == Kind::kDurable) {
        sim.set_capture_signatures(true);
        t.restart();
        JournaledCampaignReport rep =
            run_journaled_seu_campaign(sim, in.seu, journal.string(), false);
        s.grade_s = t.elapsed_seconds();
        t.restart();
        const FaultDictionary dictionary = FaultDictionary::from_campaign(
            in.seu, rep.result.outcomes(), rep.signatures,
            sim.golden().outputs);
        dictionary.save_file(dict.string());
        s.dictionary_s = t.elapsed_seconds();
        seu_result = std::move(rep.result);
      } else {
        t.restart();
        seu_result = sim.run(in.seu);
        s.grade_s = t.elapsed_seconds();
      }
      note_engine(sim);
    }
    s.wall_s = wall.elapsed_seconds();
    s.cpu_s = process_cpu_seconds() - cpu0;
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  Digest d;
  if (kind == Kind::kSite) {
    d.add(set_result.outcomes);
    d.add(stuckat_result.outcomes);
  } else {
    d.add(seu_result.outcomes());
  }
  s.digest = d.value;
  if (kind == Kind::kDurable) {
    s.counts.journal_bytes = file_bytes(journal);
    s.counts.dictionary_bytes = file_bytes(dict);
    std::filesystem::remove(journal);
    std::filesystem::remove(dict);
  }
  return s;
}

// Calls `fn`, adds its wall time to `seconds`, and hands back its result, so
// the caller destroys it outside the timed window (the engine keeps what it
// builds, so destruction is no part of its setup).
template <typename F>
auto timed(double& seconds, const F& fn) {
  const WallTimer t;
  auto result = fn();
  seconds += t.elapsed_seconds();
  return result;
}

std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

std::vector<NodeId> sorted_unique(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// Standalone timings of each layer's public setup functions, called with the
// arguments the engine passes. One probe() call times every layer once, in
// seconds per campaign (a layer the engine runs once per construction or per
// run counts once per engine); the loop interleaves probes with campaigns so
// both see the same host conditions.
class LayerProbe {
 public:
  LayerProbe(Kind kind, const Inputs& in, const std::filesystem::path& work)
      : kind_(kind), in_(in), cfg_(campaign_config(kind, work, nullptr)) {
    FEMU_CHECK(cfg_.lanes == LaneWidth::k64 && cfg_.cone_restricted &&
                   cfg_.schedule == CampaignSchedule::kConeAffine,
               "layer probes assume the default 64-lane cone-affine engine");
    // Which cone machinery the engine resolves, and the spans one traced
    // constructor emits (run.py sums the matching standalone layers).
    obs::TelemetryCollector collector;
    const ParallelFaultSimulator sim(in.circuit, in.sets[0].testbench,
                                     campaign_config(kind, work, &collector));
    on_demand_ = sim.on_demand_cones();
    std::ostringstream trace;
    collector.write_chrome_trace(trace);
    ctor_trace_ = one_line(trace.str());
  }

  [[nodiscard]] const std::string& ctor_trace() const { return ctor_trace_; }
  [[nodiscard]] bool cache_probe_hit() const { return cache_probe_hit_; }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& samples()
      const {
    return samples_;
  }

  // Times every layer once on input set `k`.
  void probe(std::size_t k) {
    const Circuit& circuit = in_.circuit;
    const InputSet& set = in_.sets[k];
    Rep rep;
    const auto raw = timed(rep.compile, [&] {
      return compile_kernel(circuit);
    });
    const auto cap = timed(rep.golden, [&] {
      return capture_golden_unified(*raw, set.testbench.vectors(), kWorkers,
                                    true);
    });
    const auto image = timed(rep.word_image, [&] {
      return GoldenWordImage<std::uint64_t>(cap.trace, set.testbench.vectors(),
                                            kWorkers);
    });

    std::vector<std::uint32_t> labels;
    std::unique_ptr<FanoutCones> cones;
    std::unique_ptr<ConeOracle> oracle;
    std::vector<std::uint32_t> order;
    if (on_demand_) {
      oracle = timed(rep.cones, [&] {
        return std::make_unique<ConeOracle>(circuit, kWorkers);
      });
      labels = timed(rep.ff_order, [&] { return next_ff_labels(circuit); });
      order = timed(rep.ff_order, [&] {
        return cone_affine_ff_order_anchor(circuit, labels);
      });
    } else {
      cones = timed(rep.cones, [&] {
        return std::make_unique<FanoutCones>(circuit, kWorkers);
      });
      order = timed(rep.ff_order, [&] {
        return cone_affine_ff_order(circuit, *cones,
                                    lane_count(cfg_.lanes),
                                    cfg_.greedy_order_cap);
      });
    }

    if (kind_ == Kind::kSite) {
      std::vector<std::uint32_t> ff_rank(order.size());
      for (std::size_t r = 0; r < order.size(); ++r) {
        ff_rank[order[r]] = static_cast<std::uint32_t>(r);
      }
      if (on_demand_) {
        const auto rank = timed(rep.site_cones, [&] {
          return cone_affine_site_rank_anchor(circuit, ff_rank, labels);
        });
      } else {
        const auto gates = timed(rep.site_cones, [&] {
          return std::make_unique<GateCones>(circuit, *cones);
        });
        const auto site_order = timed(rep.site_cones, [&] {
          return cone_affine_site_order(*gates, circuit, ff_rank);
        });
      }
      // One optimized kernel per run, each under its model's preserve set.
      std::vector<NodeId> set_sites;
      std::vector<NodeId> stuck_sites;
      FaultModelTraits<FaultModel::kSet>::collect_preserve(set.set, set_sites);
      FaultModelTraits<FaultModel::kStuckAt>::collect_preserve(set.stuckat,
                                                               stuck_sites);
      set_sites = sorted_unique(std::move(set_sites));
      stuck_sites = sorted_unique(std::move(stuck_sites));
      const auto set_kernel = timed(rep.optimize, [&] {
        return optimize_kernel(raw, set_sites);
      });
      const auto stuck_kernel = timed(rep.optimize, [&] {
        return optimize_kernel(raw, stuck_sites);
      });
    } else {
      const auto kernel = timed(rep.optimize, [&] {
        return optimize_kernel(raw, {});
      });
    }

    if (kind_ == Kind::kDurable) {
      // Key derivation + load, as the engine's cache probe does it.
      const ArtifactLoadResult loaded = timed(rep.cache_load, [&] {
        ArtifactCacheKey key;
        key.circuit = circuit_structure_hash(circuit);
        key.testbench = testbench_content_hash(set.testbench);
        key.config_rule = campaign_config_rule_hash();
        key.optimizer = optimizer_pipeline_hash(cfg_.optimize);
        key.shape = artifact_shape_hash(
            on_demand_, true, true, cfg_.optimize,
            on_demand_ ? 0 : lane_count(cfg_.lanes),
            on_demand_ ? 0 : cfg_.greedy_order_cap);
        return load_artifacts(cfg_.cache_dir, key, circuit);
      });
      cache_probe_hit_ = loaded.status == ArtifactCacheStatus::kHit;
    }

    // Per-construction layers repeat in every engine of the campaign; the
    // site workload's two optimizer calls are already one per run.
    const double engines = static_cast<double>(engines_per_campaign(kind_));
    add("sim.compile_s", rep.compile * engines);
    add("sim.golden_s", rep.golden * engines);
    add("sim.word_image_s", rep.word_image * engines);
    add("netlist.cone_build_s", rep.cones * engines);
    add("netlist.ff_order_s", rep.ff_order * engines);
    add("netlist.site_cones_s", rep.site_cones * engines);
    add("sim.optimize_s", rep.optimize);
    add("fault.cache_load_s", rep.cache_load);
  }

 private:
  struct Rep {
    double compile = 0.0, golden = 0.0, word_image = 0.0, cones = 0.0,
           ff_order = 0.0, site_cones = 0.0, optimize = 0.0, cache_load = 0.0;
  };

  void add(const char* name, double seconds) {
    samples_[name].push_back(seconds);
  }

  Kind kind_;
  const Inputs& in_;
  CampaignConfig cfg_;
  bool on_demand_ = false;
  bool cache_probe_hit_ = false;
  std::string ctor_trace_;
  std::map<std::string, std::vector<double>> samples_;
};

void print_counts(const Counts& c) {
  std::printf(
      "{\"kernel_instrs\": %llu, \"opt_instrs\": %llu, \"eval_instrs\": %llu, "
      "\"eval_slot_bytes\": %llu, \"eval_cycles\": %llu, \"narrowings\": "
      "%llu, \"groups\": %llu, \"lane_slots\": %llu, \"faults\": %llu, "
      "\"cache_bytes_read\": %llu, \"journal_bytes\": %llu, "
      "\"dictionary_bytes\": %llu}",
      static_cast<unsigned long long>(c.kernel_instrs),
      static_cast<unsigned long long>(c.opt_instrs),
      static_cast<unsigned long long>(c.eval_instrs),
      static_cast<unsigned long long>(c.eval_slot_bytes),
      static_cast<unsigned long long>(c.eval_cycles),
      static_cast<unsigned long long>(c.narrowings),
      static_cast<unsigned long long>(c.groups),
      static_cast<unsigned long long>(c.lane_slots),
      static_cast<unsigned long long>(c.faults),
      static_cast<unsigned long long>(c.cache_bytes_read),
      static_cast<unsigned long long>(c.journal_bytes),
      static_cast<unsigned long long>(c.dictionary_bytes));
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Args {
  std::string mode;
  const Workload* workload = nullptr;
  std::vector<std::uint64_t> set_seeds;
  double seconds = 10.0;
  bool trace = false;
  std::vector<std::uint64_t> expect_digests;  // one per input set
  std::filesystem::path work_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  FEMU_CHECK(argc >= 2, "usage: femu_bench reference|run --workload W ...");
  a.mode = argv[1];
  FEMU_CHECK(a.mode == "reference" || a.mode == "run", "unknown mode '",
             a.mode, "'");
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) a.workload = &w;
      }
      FEMU_CHECK(a.workload != nullptr, "unknown workload '", value, "'");
    } else if (flag == "--set-seeds") {
      std::istringstream list(value);
      for (std::string seed; std::getline(list, seed, ',');) {
        a.set_seeds.push_back(std::stoull(seed));
      }
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--expect-digest") {
      std::istringstream list(value);
      for (std::string hex; std::getline(list, hex, ',');) {
        a.expect_digests.push_back(std::stoull(hex, nullptr, 16));
      }
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      FEMU_CHECK(false, "unknown flag '", flag, "'");
    }
  }
  FEMU_CHECK(a.workload != nullptr, "--workload is required");
  FEMU_CHECK(!a.set_seeds.empty(), "--set-seeds is required");
  if (a.mode == "run") {
    FEMU_CHECK(!a.work_dir.empty(), "--work-dir is required");
    FEMU_CHECK(a.expect_digests.size() == a.set_seeds.size(),
               "--expect-digest needs ", a.set_seeds.size(),
               " comma-separated digests, one per set seed");
  }
  return a;
}

int run_loop(const Args& args) {
  const Kind kind = args.workload->kind;
  const Inputs in = make_inputs(*args.workload, args.set_seeds);
  const std::size_t num_sets = in.sets.size();
  std::filesystem::create_directories(args.work_dir);

  // Warm the artifact cache (durable) and the process (first-touch pages,
  // allocator arenas) with one untimed campaign per input set.
  for (const InputSet& set : in.sets) {
    run_campaign(kind, in.circuit, set, args.work_dir, nullptr);
  }

  std::unique_ptr<LayerProbe> layers;
  std::ofstream traces;
  if (args.trace) {
    layers = std::make_unique<LayerProbe>(kind, in, args.work_dir);
    traces.open(args.work_dir / "traces.jsonl");
    traces << "{\"kind\": \"ctor\", \"trace\": " << layers->ctor_trace()
           << "}\n";
  }

  std::vector<Sample> samples;
  std::vector<std::size_t> sample_sets;
  // At least one campaign (one traced and one untraced when tracing) on
  // every set, however short the run.
  const std::size_t min_samples = num_sets * (args.trace ? 2 : 1);
  const WallTimer loop;
  while (samples.size() < min_samples ||
         loop.elapsed_seconds() < args.seconds) {
    // Traced runs alternate untraced and traced campaigns on the same input
    // set, so both halves see the same inputs and host conditions and the
    // overhead is an in-run ratio.
    const bool traced = args.trace && samples.size() % 2 == 1;
    const std::size_t k = (samples.size() / (args.trace ? 2 : 1)) % num_sets;
    std::unique_ptr<obs::TelemetryCollector> collector;
    if (traced) collector = std::make_unique<obs::TelemetryCollector>();
    samples.push_back(
        run_campaign(kind, in.circuit, in.sets[k], args.work_dir,
                     collector.get()));
    sample_sets.push_back(k);
    if (traced) {
      std::ostringstream trace;
      collector->write_chrome_trace(trace);
      traces << "{\"kind\": \"campaign\", \"index\": " << samples.size() - 1
             << ", \"trace\": " << one_line(trace.str()) << "}\n";
      layers->probe(k);
    }
  }

  const InputSet& first = in.sets[0];
  std::printf("{\"workload\": %s, \"faults\": %zu, "
              "\"input_sets\": %zu, \"hardware_concurrency\": %u, "
              "\"simd\": %s, \"build_type\": %s, \"peak_rss_kb\": %ld, ",
              json_string(args.workload->name).c_str(),
              first.seu.size() + first.set.size() + first.stuckat.size(),
              num_sets, std::thread::hardware_concurrency(),
              json_string(word512_simd_path()).c_str(),
              json_string(FEMU_BENCH_BUILD_TYPE).c_str(), peak_rss_kb());
  if (args.trace) {
    std::printf("\"layers\": {");
    const char* sep = "";
    for (const auto& [name, values] : layers->samples()) {
      std::printf("%s%s: [", sep, json_string(name).c_str());
      for (std::size_t j = 0; j < values.size(); ++j) {
        std::printf("%s%.9g", j ? ", " : "", values[j]);
      }
      std::printf("]");
      sep = ", ";
    }
    std::printf("}, \"cache_probe_hit\": %s, ",
                layers->cache_probe_hit() ? "true" : "false");
  }
  std::printf("\"campaigns\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::printf(
        "{\"set\": %zu, \"traced\": %s, \"wall_s\": %.9g, \"cpu_s\": %.9g, "
        "\"setup_s\": %.9g, \"grade_s\": %.9g, \"dictionary_s\": %.9g, "
        "\"threads\": %u, \"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"digest_ok\": %s, \"error\": %s, \"counts\": ",
        sample_sets[i], s.traced ? "true" : "false", s.wall_s, s.cpu_s,
        s.setup_s, s.grade_s, s.dictionary_s, s.threads,
        static_cast<unsigned long long>(s.cache_hits),
        static_cast<unsigned long long>(s.cache_misses),
        s.digest == args.expect_digests[sample_sets[i]] ? "true" : "false",
        json_string(s.error).c_str());
    print_counts(s.counts);
    std::printf("}%s\n", i + 1 < samples.size() ? "," : "");
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "reference") {
      const Inputs in = make_inputs(*args.workload, args.set_seeds);
      std::printf("{\"digests\": [");
      for (std::size_t k = 0; k < in.sets.size(); ++k) {
        std::printf("%s\"%016llx\"", k ? ", " : "",
                    static_cast<unsigned long long>(reference_digest(
                        args.workload->kind, in.circuit, in.sets[k])));
      }
      std::printf("]}\n");
      return 0;
    }
    return run_loop(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "femu_bench: %s\n", e.what());
    return 1;
  }
}
