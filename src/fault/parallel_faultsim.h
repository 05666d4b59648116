#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "fault/campaign_result.h"
#include "fault/mbu.h"
#include "fault/model_traits.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/circuit.h"
#include "netlist/fanout_cones.h"
#include "obs/telemetry.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"
#include "sim/golden_slots.h"
#include "sim/golden_words.h"
#include "stim/testbench.h"

namespace femu {

/// How many faulty machines one lane group carries.
enum class LaneWidth : std::uint32_t {
  k64 = 64,    ///< one uint64_t per signal (classic bit-parallel width)
  k256 = 256,  ///< four uint64_t per signal — 4x faults per pass
  k512 = 512,  ///< eight uint64_t per signal — one zmm register / cache
               ///< line per signal; AVX-512 when the host has it, portable
               ///< limbs otherwise (see sim/simd_dispatch.h)
};

[[nodiscard]] constexpr std::size_t lane_count(LaneWidth w) noexcept {
  return static_cast<std::size_t>(w);
}

/// How run() orders faults into lane groups. Outcomes always align with the
/// caller's fault order regardless of schedule — the scheduler permutes
/// internally and scatters results back through the inverse permutation —
/// so the schedule is purely a performance knob.
enum class CampaignSchedule : std::uint8_t {
  /// Sort by (cycle, ff): groups span minimal injection-cycle ranges, so
  /// groups start late and fast-forward far.
  kCycleMajor,
  /// Cycle-major, but within a cycle FFs follow the cone-affinity order
  /// (see cone_affine_ff_order): each group's fanout-cone union — the work
  /// the cone-restricted engine evaluates per cycle — stays small.
  kConeAffine,
};

[[nodiscard]] constexpr const char* campaign_schedule_name(
    CampaignSchedule s) noexcept {
  switch (s) {
    case CampaignSchedule::kCycleMajor: return "cycle-major";
    case CampaignSchedule::kConeAffine: return "cone-affine";
  }
  return "?";
}

/// Campaign engine configuration.
///
/// Every campaign runs on the compiled kernel (sim/compiled_kernel.h). The
/// per-model references the tests grade against (SerialFaultSimulator,
/// MbuFaultSimulator, SerialSetSimulator, SerialStuckAtSimulator) are test
/// oracles, not selectable engines. The default — 64 lanes, cone-restricted
/// differential evaluation, cone-affine scheduling, one worker per hardware
/// thread — is not the fastest setting everywhere (512 lanes grades a b14
/// SEU campaign faster), but it is the one whose memory stays small: the
/// broadcast golden word images and every worker's arenas grow with the
/// lane width. `cone_restricted = false` selects full-program evaluation.
///
/// A campaign runs at exactly one lane width: every group is a consecutive
/// `lanes`-wide span of the scheduled fault list (only the last may be
/// partial), and every worker holds one engine of that width.
struct CampaignConfig {
  /// Faulty machines per lane group.
  LaneWidth lanes = LaneWidth::k64;
  /// Worker threads for group sharding; 0 = std::thread::hardware_concurrency().
  unsigned num_threads = 0;
  /// Evaluate only the per-group union of injected-FF fanout cones against
  /// the golden baseline; false evaluates the whole program every cycle.
  bool cone_restricted = true;
  CampaignSchedule schedule = CampaignSchedule::kConeAffine;
  /// Run campaigns on an optimizer-processed kernel (sim/kernel_opt.h):
  /// inverter/buffer absorption into per-operand complement flags, constant
  /// folding and dead-logic elimination, under the model's injection-site
  /// preserve set (FaultModelTraits::collect_preserve) so overlay sites
  /// stay materialized. Classifications are bit-identical on vs off for
  /// every model, lane width, schedule, cone source and thread count — off
  /// is the A/B baseline benches measure the instruction reduction against.
  /// Cones, golden traces and images are always derived from the raw
  /// circuit/kernel; only the executed instruction stream changes.
  bool optimize = true;
  /// Telemetry sink (not owned; must outlive the engine). Null — the
  /// default — is the near-zero-cost fast path: the engine takes no
  /// per-group timestamps and records nothing. When attached, the engine
  /// emits phase spans, per-group trace slices and per-worker metric
  /// shards into the collector. Telemetry is provably outcome-neutral:
  /// classifications, signatures and all `last_run_*` work metrics are
  /// bit-identical with a collector attached or not.
  obs::TelemetryCollector* telemetry = nullptr;

  /// Persistent content-addressed artifact cache directory
  /// (fault/artifact_cache.h). Empty — the default — disables caching.
  /// When set, construction first tries to adopt the cached setup artifacts
  /// (golden traces, cone structures, cone-affine order, optimized FF-model
  /// kernel) keyed by circuit/testbench/config-rule content hashes plus
  /// optimizer and shape hashes; any invalid entry degrades
  /// totally-and-warned to a rebuild, and every miss stores the rebuilt
  /// artifacts via tmp + atomic rename. Outcome-neutral by the same contract
  /// as every other knob: classifications and work metrics are bit-identical
  /// cold vs warm.
  std::string cache_dir{};

  /// The cone source is not a knob: the engine materializes the cone
  /// matrices (FanoutCones, and GateCones for site-keyed models) exactly
  /// when the quadratic greedy cone-affine order will run,
  ///   num_dffs() <= greedy_order_cap && node_count() < kOnDemandNodeThreshold,
  /// and otherwise derives unions through the ConeOracle and schedules by
  /// the anchor-rank orders. Outcomes are identical either way.
  static constexpr std::size_t greedy_order_cap = 2048;
  static constexpr std::size_t kOnDemandNodeThreshold = 20000;
};

/// Bit-parallel fault simulation with cone-restricted differential
/// evaluation and multi-threaded campaign sharding — the unified campaign
/// engine for every fault model (FaultModel):
///
///   run()         — SEU (flip-flop bit-flips, the paper's model)
///   run_mbu()     — MBU (multi-bit upsets: several FFs flipped together)
///   run_set()     — SET (transient inversions at combinational gate
///                   outputs, optionally pulse-width-limited with per-FF
///                   latching-window thinning; injection rides the
///                   kernel's instruction-stream overlay)
///   run_stuckat() — stuck-at-0/1 at combinational gate outputs
///                   (test-pattern grading; the permanent force rides
///                   the same overlay, op-tagged AND/OR instead of XOR,
///                   applied every cycle)
///
/// One CampaignConfig drives every model with identical sharding,
/// scheduling and classification semantics. Everything model-specific —
/// fault type, injection mechanism (state-bit XOR before eval vs op-tagged
/// instruction-overlay update during eval), overlay emission cadence,
/// divergence cone space, schedule key and classification mapping — lives
/// in the model's FaultModelTraits descriptor (fault/model_traits.h); the
/// engine core is instantiated once per model from that descriptor, so a
/// new fault model is one descriptor specialization plus a result-shaping
/// entry point, never a new engine path.
///
/// Faults are processed in groups of lane-width size; lane k of every signal
/// word carries faulty machine k. A lane whose injection cycle has not
/// arrived yet simply tracks the golden machine (identical state + identical
/// stimuli), so a group spanning several injection cycles needs no special
/// casing: the group starts from the golden state at its earliest injection
/// cycle and each lane is XOR-flipped when its cycle comes.
///
/// Differential evaluation: a faulty lane can differ from golden only inside
/// the structural fanout cone of its injected flip-flop (closed over
/// sequential feedback — see FanoutCones). The cone-restricted path
/// therefore evaluates just the sub-program covered by the group's cone
/// union, loading cone-boundary fanin slots with broadcast golden values
/// from a GoldenSlotTrace, and re-derives a smaller sub-program as lanes
/// classify (narrowing: whenever any lane classifies, and periodically). The
/// cone-affine schedule keeps those unions small by grouping faults
/// cycle-major and cone-clustered.
///
/// Early retirement: a lane is done at its first output mismatch (failure) or
/// state re-convergence (silent); when every injected lane of a group is
/// done, the group fast-forwards to the next injection cycle by reloading the
/// golden state image (the next injection cycle comes from the group's
/// pre-sorted schedule — O(1) per fast-forward).
///
/// Groups are independent — they share only the read-only kernel, cones,
/// golden traces and pre-broadcast golden word images — so the campaign
/// shards them across a pool of workers pulling group indices from an atomic
/// counter. Every group writes its own outcome slice and the scheduler's
/// permutation is inverted before returning, so results align with the
/// caller's fault order and are bit-identical for any thread count, lane
/// width, evaluation mode and schedule. An exception thrown while grading a
/// group (or by the retire callback) on any worker stops further group
/// claims; every worker joins and the first exception is rethrown to the
/// caller.
class ParallelFaultSimulator {
 public:
  ParallelFaultSimulator(const Circuit& circuit, const Testbench& testbench,
                         CampaignConfig config = {});

  /// Grades every fault; outcomes align with input order regardless of the
  /// configured schedule. Faults may be in any order.
  [[nodiscard]] CampaignResult run(std::span<const Fault> faults);

  /// Grades an MBU campaign through the same sharded, scheduled,
  /// cone-restricted engine stack (an MBU lane flips several state bits and
  /// its divergence cone is the union of the flipped FFs' cones). Any lane
  /// width.
  [[nodiscard]] MbuCampaignResult run_mbu(std::span<const MbuFault> faults);

  /// Grades a SET campaign: each lane's gate output is XOR-inverted inline
  /// during its injection cycle's evaluation via the kernel's injection
  /// overlay, then the latched divergence is tracked exactly like an SEU's.
  /// Sub-full-width pulses (SetFault::pulse_q) additionally thin the latch
  /// per destination flip-flop by the deterministic setup-window draw.
  /// All lane widths, both schedules, cone-restricted or full.
  [[nodiscard]] SetCampaignResult run_set(std::span<const SetFault> faults);

  /// Grades a stuck-at campaign with test-pattern semantics: each lane's
  /// gate output is forced to its stuck value on **every** cycle's
  /// evaluation (an op-tagged AND/OR overlay instead of SET's XOR), failure
  /// means the testbench detected the fault at a primary output, and
  /// undetected lanes run to the end of the testbench (no convergence
  /// retirement — a permanent fault can be re-excited) before mapping to
  /// latent/silent by the final-state comparison.
  [[nodiscard]] StuckAtCampaignResult run_stuckat(
      std::span<const StuckAtFault> faults);

  [[nodiscard]] const GoldenTrace& golden() const noexcept { return golden_; }

  [[nodiscard]] const CampaignConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }

  [[nodiscard]] const Testbench& testbench() const noexcept {
    return testbench_;
  }

  /// Streaming retire notification: called as each lane group finishes,
  /// before the campaign completes — the hook the crash-safe campaign
  /// journal (fault/journal.h) appends records through. `fault_indices`
  /// are positions in the *caller's* fault list (the schedule permutation
  /// is already inverted), `outcomes` the group's gradings in the same
  /// order, and `signature_hashes` the failure syndromes (empty unless
  /// signature capture is enabled; zero for non-failure lanes).
  ///
  /// Invoked from worker threads — one call per group, possibly
  /// concurrently from several workers — so the callback must be
  /// thread-safe. The spans are only valid during the call.
  using RetireCallback = std::function<void(
      std::span<const std::uint32_t> fault_indices,
      std::span<const FaultOutcome> outcomes,
      std::span<const std::uint64_t> signature_hashes)>;

  /// Installs (or clears, with an empty function) the retire callback for
  /// subsequent runs.
  void set_retire_callback(RetireCallback callback) {
    retire_cb_ = std::move(callback);
  }

  /// Enables failure-signature capture: every failure lane's first
  /// deviating output vector is XORed against golden at the detect cycle
  /// and hashed (BitVec::hash of the full-width syndrome — identical to
  /// the serial FaultDictionary syndrome, including on the cone-restricted
  /// path, where non-cone outputs are provably golden). Off by default; the
  /// per-failure BitVec materialization costs a few percent on
  /// failure-heavy campaigns.
  void set_capture_signatures(bool on) { capture_signatures_ = on; }

  [[nodiscard]] bool capture_signatures() const noexcept {
    return capture_signatures_;
  }

  /// Caller-aligned failure signature hashes of the last run (empty when
  /// capture was off; zero at non-failure positions). Deterministic: a
  /// lane's syndrome depends only on its own fault, never on grouping,
  /// schedule, width or thread count.
  [[nodiscard]] std::span<const std::uint64_t> last_run_signatures()
      const noexcept {
    return last_run_signatures_;
  }

  /// Per-FF fanout cones. Built when the circuit is small enough for the
  /// greedy order (see CampaignConfig::greedy_order_cap) and the
  /// cone-restricted engine or the cone-affine schedule needs them; null
  /// otherwise — in particular always null when on_demand_cones() holds,
  /// where cone_oracle() serves instead.
  [[nodiscard]] const FanoutCones* cones() const noexcept {
    return cones_.get();
  }

  /// On-demand cone oracle; null when the cone matrix is materialized.
  [[nodiscard]] const ConeOracle* cone_oracle() const noexcept {
    return oracle_.get();
  }

  /// True when this engine derives cones on demand: the circuit has more
  /// than CampaignConfig::greedy_order_cap FFs or at least
  /// CampaignConfig::kOnDemandNodeThreshold nodes.
  [[nodiscard]] bool on_demand_cones() const noexcept {
    return on_demand_cones_;
  }

  /// Structured scalar telemetry: the engine's construction-phase timings
  /// plus every work metric of the last run, in one snapshot. Always
  /// populated (no collector required); the `last_run_*` accessors below
  /// are thin views into this struct, kept for API continuity.
  [[nodiscard]] const obs::CampaignTelemetry& telemetry_snapshot()
      const noexcept {
    return telem_;
  }

  /// Worker threads the last run() actually used.
  [[nodiscard]] unsigned last_run_threads() const noexcept {
    return telem_.threads;
  }

  [[nodiscard]] double last_run_seconds() const noexcept {
    return telem_.seconds;
  }

  /// Circuit-evaluation cycles spent in the last run, summed over all lane
  /// groups (engine efficiency metric used by the microbenches). One eval of
  /// a 256-lane group counts as one cycle, like one eval of a 64-lane group;
  /// a cone-restricted eval also counts as one cycle even though it executes
  /// fewer instructions (see last_run_eval_instrs for the finer metric).
  [[nodiscard]] std::uint64_t last_run_eval_cycles() const noexcept {
    return telem_.eval_cycles;
  }

  /// Kernel instructions executed in the last run, summed over all lane
  /// groups — the metric that shows the cone restriction's work reduction.
  [[nodiscard]] std::uint64_t last_run_eval_instrs() const noexcept {
    return telem_.eval_instrs;
  }

  /// Sub-program re-derivations (narrowing rebuilds) in the last run.
  [[nodiscard]] std::uint64_t last_run_narrowings() const noexcept {
    return telem_.narrowings;
  }

  /// Slot-storage bytes the eval loops streamed over in the last run: every
  /// eval adds its working set (full slot array for full-program evals, the
  /// dense cone arena for cone evals) times the lane word size. Divided by
  /// last_run_eval_instrs() this is the engine's bytes-per-instruction — the
  /// memory-wall metric the bench matrix reports per circuit and lane width.
  [[nodiscard]] std::uint64_t last_run_eval_slot_bytes() const noexcept {
    return telem_.eval_slot_bytes;
  }

  /// Bytes streamed per executed kernel instruction in the last run — the
  /// memory-wall ratio (last_run_eval_slot_bytes / last_run_eval_instrs).
  [[nodiscard]] double last_run_eval_bytes_per_instr() const noexcept {
    return telem_.bytes_per_instr();
  }

  /// How many lane groups the last run executed, counted under the
  /// configured width's tier (the other tiers stay zero).
  [[nodiscard]] const obs::GroupWidthCounts& last_run_group_widths()
      const noexcept {
    return telem_.group_widths;
  }

  /// Fraction of lane slots that carried a fault in the last run: injected
  /// lanes / (sum of group widths). 1.0 means every word was full; the
  /// shortfall is pure dead-lane bandwidth (a 512-lane group with 60 live
  /// faults still streams all 8 limbs of every word). Only the last group
  /// of a run can be partial.
  [[nodiscard]] double last_run_lane_occupancy() const noexcept {
    return telem_.lane_occupancy;
  }

 private:
  /// Per-worker scratch reused across every group the worker runs: the
  /// injection-schedule index sort, the cone-union masks, the overlay lists
  /// and the derived sub-programs all keep their heap storage between
  /// groups. The initial sub-program is additionally cached keyed on the
  /// group's injection-site set (FF bitset for SEU/MBU, node bitset for
  /// SET) — under the block-major cone-affine schedule consecutive groups
  /// carry the same site block at successive cycles, so the derivation runs
  /// once per block, not once per group.
  struct WorkerScratch {
    std::vector<std::uint32_t> order;
    std::vector<std::uint64_t> group_key;     // site bitset of current group
    std::vector<std::uint64_t> cached_key;    // site set initial_sp was built for
    std::vector<std::uint64_t> initial_mask;  // cone union of cached_key
    std::vector<std::uint64_t> cone_mask;     // working mask (narrowed)
    std::vector<std::uint64_t> narrow_mask;   // checkpoint candidate mask
    // Divergence fingerprint at the last narrowing checkpoint: FF bits
    // first, then one tail bit per lane still waiting to inject (a waiting
    // lane's divergence bound is its seed cone, which no FF bit can
    // express for a SET site).
    std::vector<std::uint64_t> diverged_ffs;
    std::vector<std::uint64_t> diverged_now;
    // Injection overlays (one vector per lane word type; only the active
    // width's vector is ever touched): per injection cycle for transient
    // models, persistent across cycles for every-cycle models (stuck-at).
    std::vector<CompiledKernel::OverlayEntry<std::uint64_t>> overlay64;
    std::vector<CompiledKernel::OverlayEntry<Word256>> overlay256;
    std::vector<CompiledKernel::OverlayEntry<Word512>> overlay512;
    // Per-cone-FF latching suppression words for pulse-width thinning
    // (parallel to the sub-program's dff_indices; see
    // LaneEngine::step_cone_mismatch_thinned).
    std::vector<std::uint64_t> thin64;
    std::vector<Word256> thin256;
    std::vector<Word512> thin512;
    CompiledKernel::ConeSubProgram initial_sp;
    // Two narrow buffers, ping-ponged: a re-derivation filters the current
    // sub-program (see build_subprogram's narrow_from), which must not
    // alias the buffer being written.
    CompiledKernel::ConeSubProgram narrow_sp[2];
    bool initial_valid = false;
    std::uint64_t eval_cycles = 0;
    std::uint64_t eval_instrs = 0;
    std::uint64_t eval_slot_bytes = 0;
    std::uint64_t narrowings = 0;
    /// This worker's telemetry sink, or null when telemetry is off — the
    /// group runners take timestamps only when this is set.
    obs::WorkerTelemetry* telemetry = nullptr;
  };

  /// One scheduled lane group: faults [begin, begin + count) of the
  /// scheduled list (count <= the configured lane width).
  struct GroupSpec {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  template <typename Word, typename View>
  void run_group_full(LaneEngine<Word>& engine,
                      const GoldenWordImage<Word>& image, const View& view,
                      std::span<FaultOutcome> outcomes,
                      std::span<std::uint64_t> sigs,
                      WorkerScratch& scratch) const;

  template <typename Word, typename View>
  void run_group_cone(LaneEngine<Word>& engine,
                      const GoldenWordImage<Word>& image, const View& view,
                      std::span<FaultOutcome> outcomes,
                      std::span<std::uint64_t> sigs,
                      WorkerScratch& scratch) const;

  /// Runs every group of `plan` on `num_workers` workers (the caller is
  /// worker 0), each owning one LaneEngine<Word> over run_kernel_. The
  /// first exception any worker throws is rethrown here after all workers
  /// have joined.
  template <typename Word, typename FaultT, typename RunGroup>
  void run_sharded(const RunGroup& run_group, std::span<const GroupSpec> plan,
                   std::span<const FaultT> faults,
                   std::span<FaultOutcome> outcomes, unsigned num_workers);

  /// Partitions `n` scheduled faults into consecutive lane-width groups and
  /// records the occupancy and group-count metrics for this run.
  [[nodiscard]] std::vector<GroupSpec> group_plan(std::size_t n);

  /// The generic campaign driver every public entry point wraps: validates
  /// the faults through the model descriptor, applies the schedule
  /// permutation, dispatches on lane width, shards the groups
  /// (running them through ModelView<Traits>) and scatters the outcomes
  /// back to caller order.
  template <typename Traits>
  void run_model(std::span<const typename Traits::FaultT> faults,
                 std::span<FaultOutcome> outcomes);

  /// Sorts the injection schedule indices for one group into scratch.order.
  template <typename View>
  void sort_group_order(const View& view, WorkerScratch& scratch) const;

  /// Schedule permutation: perm[i] is the caller index of the i-th fault in
  /// engine order. One generic keyed sort; the
  /// per-fault (cycle, affinity-rank) key comes from the model descriptor
  /// (schedule_site in FF or gate-site space, kSiteKeyed).
  template <typename Traits>
  [[nodiscard]] std::vector<std::uint32_t> schedule_permutation(
      std::span<const typename Traits::FaultT> faults) const;

  /// Builds the per-gate cones and the site affinity ranks on the first
  /// site-keyed campaign (SET, stuck-at) that needs them (cone-restricted
  /// evaluation or cone-affine scheduling); FF-keyed campaigns never pay
  /// for them.
  void ensure_site_structures();

  /// Resolves the kernel the next run executes: the raw kernel when the
  /// optimizer is off, otherwise a cached
  /// optimized clone for `preserve` (the campaign's injection-site set,
  /// from FaultModelTraits::collect_preserve). An empty set — SEU/MBU —
  /// shares one maximally-optimized kernel across runs; site-keyed
  /// campaigns reuse the cached site kernel when their sites are a subset
  /// of the set it preserves (a superset preserve set is sound, just less
  /// optimized) and rebuild otherwise. Sets run_kernel_ and the telemetry
  /// optimizer counters.
  void select_run_kernel(std::vector<NodeId> preserve);

  const Circuit& circuit_;
  const Testbench& testbench_;
  CampaignConfig config_;
  bool on_demand_cones_ = false;  // cone source, fixed at construction
  std::size_t words_per_cone_ = 0;
  GoldenTrace golden_;
  std::shared_ptr<const CompiledKernel> kernel_;
  /// Optimized kernel clones (sim/kernel_opt.h), built lazily per preserve
  /// shape and cached across runs: one for FF-keyed campaigns (empty
  /// preserve set — maximal optimization) and one for the latest site-keyed
  /// preserve set (reused while subsequent runs' sites stay a subset).
  /// kernel_ itself always stays the raw kernel: the golden slot trace and
  /// the cone structures are derived from it, and boundary loads need every
  /// slot's golden value.
  std::shared_ptr<const CompiledKernel> opt_kernel_ff_;
  std::shared_ptr<const CompiledKernel> opt_kernel_site_;
  std::vector<NodeId> site_preserve_;  // sorted sites opt_kernel_site_ keeps
  /// The kernel the current run executes (set by select_run_kernel at the
  /// top of run_model; campaign runs are serial per simulator object, and
  /// worker scratch never outlives a run, so per-run selection is safe).
  std::shared_ptr<const CompiledKernel> run_kernel_;
  std::unique_ptr<FanoutCones> cones_;            // eager mode only
  std::unique_ptr<ConeOracle> oracle_;            // on-demand mode only
  std::unique_ptr<GateCones> gate_cones_;         // eager ensure_site_structures
  GoldenSlotTrace slot_trace_;                    // empty when full-eval
  std::vector<std::uint32_t> next_ff_labels_;     // on-demand anchor labels
  std::vector<std::uint32_t> ff_affinity_rank_;   // rank of ff in cone order
  std::vector<std::uint32_t> site_affinity_rank_;  // node id -> site rank
  /// Golden trace + stimuli pre-broadcast at the configured lane width.
  std::variant<GoldenWordImage<std::uint64_t>, GoldenWordImage<Word256>,
               GoldenWordImage<Word512>>
      image_;
  RetireCallback retire_cb_;
  bool capture_signatures_ = false;
  std::vector<std::uint64_t> last_run_signatures_;
  /// Scalar telemetry backing every last_run_* accessor (see
  /// telemetry_snapshot). Construction phases are written once in the
  /// constructor; run fields are overwritten by each run.
  obs::CampaignTelemetry telem_;
};

}  // namespace femu
