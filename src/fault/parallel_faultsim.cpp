#include "fault/parallel_faultsim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/error.h"
#include "common/timer.h"
#include "fault/artifact_cache.h"
#include "fault/journal.h"
#include "sim/kernel_opt.h"

namespace femu {

namespace {

// The engine core below is model-agnostic: every model-specific question —
// injection mechanism, overlay op and cadence, cone space, schedule key,
// retirement rule — is answered by the FaultModelTraits descriptor through
// a ModelView (fault/model_traits.h). The group runners specialize per
// model purely via `if constexpr` on the view's flags, so SEU/MBU
// instantiations carry no overlay, thinning or every-cycle code at all.

/// Selects the lane-width-matching overlay vector out of the per-worker
/// scratch (Scratch is deduced — WorkerScratch is private).
template <typename Word, typename Scratch>
[[nodiscard]] auto& overlay_in(Scratch& scratch) {
  if constexpr (std::is_same_v<Word, Word512>) {
    return scratch.overlay512;
  } else if constexpr (std::is_same_v<Word, Word256>) {
    return scratch.overlay256;
  } else {
    return scratch.overlay64;
  }
}

/// Selects the lane-width-matching latch-suppression vector.
template <typename Word, typename Scratch>
[[nodiscard]] auto& thin_in(Scratch& scratch) {
  if constexpr (std::is_same_v<Word, Word512>) {
    return scratch.thin512;
  } else if constexpr (std::is_same_v<Word, Word256>) {
    return scratch.thin256;
  } else {
    return scratch.thin64;
  }
}

/// Sorts an overlay by dest slot and composes entries landing on the same
/// gate (several lanes faulting the same site this cycle — possibly with
/// different ops), as required by eval_instrs_overlay: applying (k1,f1)
/// then (k2,f2) folds into the single masked update (k1&k2, (f1&k2)^f2).
template <typename Word>
void finalize_overlay(std::vector<CompiledKernel::OverlayEntry<Word>>& ov) {
  std::sort(ov.begin(), ov.end(),
            [](const auto& a, const auto& b) { return a.dest < b.dest; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < ov.size(); ++i) {
    if (out != 0 && ov[out - 1].dest == ov[i].dest) {
      ov[out - 1].flip = (ov[out - 1].flip & ov[i].keep) ^ ov[i].flip;
      ov[out - 1].keep &= ov[i].keep;
    } else {
      ov[out++] = ov[i];
    }
  }
  ov.resize(out);
}

/// Generic schedule sort shared by every model: a packed (bucket, position)
/// key per fault, counting-sorted when the bucket space is dense (the
/// complete-campaign case), comparison-sorted otherwise.
template <typename KeyOf>
[[nodiscard]] std::vector<std::uint32_t> keyed_schedule_perm(
    std::size_t n, const KeyOf& key_of) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> keys(n);
  std::uint64_t max_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = key_of(i);
    max_key = std::max(max_key, keys[i]);
  }
  // Counting sort: O(n + buckets), stable by construction. The bucket space
  // is about the size of the complete fault list, but a sparse sample of a
  // huge campaign could make it balloon (4 bytes per bucket), so fall back
  // to a comparison sort when buckets would dwarf the fault count.
  if (max_key <= 16 * keys.size() + 4096) {
    std::vector<std::uint32_t> counts(max_key + 2, 0);
    for (const std::uint64_t k : keys) ++counts[k + 1];
    for (std::size_t k = 1; k < counts.size(); ++k) {
      counts[k] += counts[k - 1];
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      perm[counts[keys[i]]++] = static_cast<std::uint32_t>(i);
    }
  } else {
    std::sort(perm.begin(), perm.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return std::pair{keys[x], x} < std::pair{keys[y], y};
              });
  }
  return perm;
}

/// Calls `fn.template operator()<Word>()` with the lane word type of `lanes`.
template <typename Fn>
void with_lane_word(LaneWidth lanes, const Fn& fn) {
  switch (lanes) {
    case LaneWidth::k64: fn.template operator()<std::uint64_t>(); break;
    case LaneWidth::k256: fn.template operator()<Word256>(); break;
    case LaneWidth::k512: fn.template operator()<Word512>(); break;
  }
}

}  // namespace

ParallelFaultSimulator::ParallelFaultSimulator(const Circuit& circuit,
                                               const Testbench& testbench,
                                               CampaignConfig config)
    : circuit_(circuit), testbench_(testbench), config_(config) {
  FEMU_CHECK(testbench.input_width() == circuit.num_inputs(),
             "testbench width ", testbench.input_width(), " != circuit PI ",
             circuit.num_inputs());
  // The cone matrix is materialized exactly when the greedy FF order, its
  // one consumer, runs; past either size bound the oracle serves unions.
  on_demand_cones_ =
      circuit.num_dffs() > CampaignConfig::greedy_order_cap ||
      circuit.node_count() >= CampaignConfig::kOnDemandNodeThreshold;
  words_per_cone_ = (circuit.node_count() + 63) / 64;
  const bool cones_for_eval = config_.cone_restricted;
  const bool need_cones =
      cones_for_eval || config_.schedule == CampaignSchedule::kConeAffine;
  // Construction is serial: every builder runs on this thread with its
  // default of one build thread. Each setup structure is sub-millisecond
  // work on the benchmark circuits, so spawning and joining threads per
  // builder cost more than it saved; num_threads shards grading only.

  // ---- artifact cache probe ----
  // One lookup per construction: a hit supplies every artifact the resolved
  // shape needs; any miss flavor (absent, corrupt, version skew, foreign
  // fingerprint) degrades to a full rebuild + store.
  const bool cache_on = !config_.cache_dir.empty();
  const bool cache_opt_kernel = cache_on && config_.optimize;
  ArtifactCacheKey cache_key;
  ArtifactBundle cached;
  bool cache_hit = false;
  if (cache_on) {
    obs::PhaseSpan span(config_.telemetry, "cache_load");
    WallTimer timer;
    cache_key.circuit = circuit_structure_hash(circuit);
    cache_key.testbench = testbench_content_hash(testbench);
    cache_key.config_rule = campaign_config_rule_hash();
    cache_key.optimizer = optimizer_pipeline_hash(config_.optimize);
    cache_key.shape = artifact_shape_hash(
        on_demand_cones_, need_cones, cones_for_eval, cache_opt_kernel,
        (need_cones && !on_demand_cones_) ? lane_count(config_.lanes) : 0,
        (need_cones && !on_demand_cones_) ? CampaignConfig::greedy_order_cap
                                          : 0);
    ArtifactLoadResult loaded =
        load_artifacts(config_.cache_dir, cache_key, circuit);
    telem_.cache_bytes_read = loaded.bytes;
    if (loaded.status == ArtifactCacheStatus::kHit) {
      cache_hit = true;
      telem_.cache_hits = 1;
      cached = std::move(loaded.bundle);
    } else {
      telem_.cache_misses = 1;
      if (loaded.status != ArtifactCacheStatus::kMiss) {
        std::fprintf(stderr, "femu: artifact cache %s: %s -- rebuilding\n",
                     artifact_cache_status_name(loaded.status),
                     loaded.detail.c_str());
      }
    }
    telem_.cache_load_seconds = timer.elapsed_seconds();
  }

  // The raw kernel is always compiled fresh: it binds the live circuit,
  // site-keyed optimizations re-run from it per preserve set, and compiling
  // is orders of magnitude cheaper than the phases the cache skips.
  {
    obs::PhaseSpan span(config_.telemetry, "compile");
    WallTimer timer;
    kernel_ = compile_kernel(circuit);
    telem_.compile_seconds = timer.elapsed_seconds();
  }

  // Construction phases are timed unconditionally into the scalar snapshot
  // (a handful of timer reads on a one-time path); the trace spans are
  // emitted only when a collector is attached.
  const bool have_golden = cache_hit && cached.has_golden;
  const bool have_slots = cache_hit && cached.has_slot_trace;
  if (have_golden) golden_ = std::move(cached.golden);
  if (have_slots) slot_trace_ = std::move(cached.slot_trace);
  if (!have_golden || (cones_for_eval && !have_slots)) {
    obs::PhaseSpan span(config_.telemetry, "golden_trace");
    WallTimer timer;
    // One scalar walk captures every golden view — the output/state trace
    // and (when cone restriction needs them) the full slot snapshots —
    // instead of two full passes over the vector set.
    GoldenCapture cap =
        capture_golden_unified(*kernel_, testbench.vectors(),
                               cones_for_eval && !have_slots);
    if (!have_golden) golden_ = std::move(cap.trace);
    if (cones_for_eval && !have_slots) slot_trace_ = std::move(cap.slots);
    telem_.golden_seconds += timer.elapsed_seconds();
  }

  if (need_cones) {
    const bool have_rank = cache_hit && cached.has_ff_rank;
    if (cache_hit) {
      if (cached.oracle != nullptr) oracle_ = std::move(cached.oracle);
      if (cached.eager_cones != nullptr) cones_ = std::move(cached.eager_cones);
      if (cached.has_labels) next_ff_labels_ = std::move(cached.next_ff_labels);
      if (have_rank) ff_affinity_rank_ = std::move(cached.ff_affinity_rank);
    }
    const bool complete =
        have_rank && (on_demand_cones_
                          ? oracle_ != nullptr && !next_ff_labels_.empty()
                          : cones_ != nullptr);
    if (!complete) {
      obs::PhaseSpan span(config_.telemetry, "cone_build");
      WallTimer timer;
      std::vector<std::uint32_t> order;
      if (on_demand_cones_) {
        // On-demand mode never materializes cone matrices: the oracle serves
        // unions by DFS and the FF ordering comes from the near-linear
        // anchor-rank pass — campaign construction stays near-linear in the
        // circuit size. The labels are kept so a later site-keyed campaign's
        // site ranking reuses them instead of repeating the sweep.
        if (oracle_ == nullptr) {
          oracle_ = std::make_unique<ConeOracle>(circuit);
        }
        if (next_ff_labels_.empty()) next_ff_labels_ = next_ff_labels(circuit);
        order = cone_affine_ff_order_anchor(circuit, next_ff_labels_);
      } else {
        if (cones_ == nullptr) {
          cones_ = std::make_unique<FanoutCones>(circuit);
        }
        order = cone_affine_ff_order(*cones_, lane_count(config_.lanes));
      }
      if (!have_rank) {
        ff_affinity_rank_.resize(order.size());
        for (std::size_t rank = 0; rank < order.size(); ++rank) {
          ff_affinity_rank_[order[rank]] = static_cast<std::uint32_t>(rank);
        }
      }
      telem_.cone_seconds = timer.elapsed_seconds();
    }
  }

  // FF-model optimized kernel: adopt the cached one, or — when caching — build
  // it eagerly so the stored entry is complete and the first select_run_kernel
  // gets it for free. Its build time lands in compile_seconds (kernel
  // preparation); select_run_kernel's opt_seconds stays a cache-miss meter.
  if (cached.opt_kernel != nullptr) {
    opt_kernel_ff_ = std::move(cached.opt_kernel);
  } else if (cache_opt_kernel) {
    obs::PhaseSpan span(config_.telemetry, "optimize");
    WallTimer timer;
    opt_kernel_ff_ = optimize_kernel(kernel_, {});
    telem_.compile_seconds += timer.elapsed_seconds();
  }

  if (cache_on && !cache_hit) {
    obs::PhaseSpan span(config_.telemetry, "cache_store");
    WallTimer timer;
    ArtifactStoreView view;
    view.golden = &golden_;
    if (cones_for_eval) view.slot_trace = &slot_trace_;
    if (need_cones) {
      view.ff_affinity_rank = &ff_affinity_rank_;
      if (on_demand_cones_) {
        view.oracle = oracle_.get();
        view.next_ff_labels = &next_ff_labels_;
      } else {
        view.eager_cones = cones_.get();
      }
    }
    if (opt_kernel_ff_ != nullptr) view.opt_kernel = opt_kernel_ff_.get();
    const ArtifactStoreResult stored =
        store_artifacts(config_.cache_dir, cache_key, view);
    telem_.cache_bytes_written = stored.bytes;
    if (!stored.stored) {
      std::fprintf(stderr, "femu: artifact cache store failed: %s\n",
                   stored.detail.c_str());
    }
    telem_.cache_store_seconds = timer.elapsed_seconds();
  }

  // Golden trace + stimuli pre-broadcast once per campaign engine at the
  // configured width; shared read-only by every worker thread.
  {
    obs::PhaseSpan span(config_.telemetry, "word_image");
    WallTimer timer;
    with_lane_word(config_.lanes, [&]<typename Word>() {
      image_.emplace<GoldenWordImage<Word>>(golden_, testbench.vectors());
    });
    telem_.golden_seconds += timer.elapsed_seconds();
  }
  if (cache_on && config_.telemetry != nullptr) {
    config_.telemetry->record_cache(telem_.cache_hits, telem_.cache_misses,
                                    telem_.cache_bytes_read,
                                    telem_.cache_bytes_written);
  }
}

void ParallelFaultSimulator::ensure_site_structures() {
  const bool need_cones = config_.cone_restricted ||
                          config_.schedule == CampaignSchedule::kConeAffine;
  if (!need_cones) {
    return;
  }
  if (on_demand_cones_) {
    // The oracle already answers per-gate cone unions; only the site
    // affinity ranks are missing, and the anchor-label pass derives them
    // without a per-site cone matrix.
    if (config_.schedule == CampaignSchedule::kConeAffine &&
        site_affinity_rank_.empty()) {
      site_affinity_rank_ = cone_affine_site_rank_anchor(
          circuit_, ff_affinity_rank_, next_ff_labels_);
    }
    return;
  }
  if (gate_cones_ != nullptr) {
    return;
  }
  // Whenever need_cones holds, the constructor already built the per-FF
  // cones and the FF affinity ranks (same condition).
  FEMU_CHECK(cones_ != nullptr, "per-FF cones missing");
  gate_cones_ = std::make_unique<GateCones>(circuit_, *cones_);
  if (config_.schedule == CampaignSchedule::kConeAffine) {
    const std::vector<std::uint32_t> order =
        cone_affine_site_order(*gate_cones_, circuit_, ff_affinity_rank_);
    site_affinity_rank_.assign(circuit_.node_count(), 0);
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      site_affinity_rank_[gate_cones_->sites()[order[rank]]] =
          static_cast<std::uint32_t>(rank);
    }
  }
}

void ParallelFaultSimulator::select_run_kernel(std::vector<NodeId> preserve) {
  if (!config_.optimize) {
    run_kernel_ = kernel_;  // raw stream
    telem_.opt_seconds = 0.0;
    telem_.opt_raw_instrs = telem_.opt_instrs = 0;
    telem_.opt_absorbed = telem_.opt_folded = telem_.opt_dead = 0;
    telem_.opt_preserved = 0;
    if (config_.telemetry != nullptr) {
      config_.telemetry->record_optimizer(0, 0, 0, 0, 0, 0);
    }
    return;
  }
  std::sort(preserve.begin(), preserve.end());
  preserve.erase(std::unique(preserve.begin(), preserve.end()),
                 preserve.end());
  double build_seconds = 0.0;
  if (preserve.empty()) {
    // FF-keyed models (SEU/MBU) inject into state words, never gate slots:
    // one maximally-optimized kernel serves every such run.
    if (opt_kernel_ff_ == nullptr) {
      obs::PhaseSpan span(config_.telemetry, "optimize");
      WallTimer timer;
      opt_kernel_ff_ = optimize_kernel(kernel_, preserve);
      build_seconds = timer.elapsed_seconds();
    }
    run_kernel_ = opt_kernel_ff_;
  } else {
    // Site-keyed models: a kernel optimized under a superset preserve set is
    // sound (just less optimized), so reuse the cached one while this run's
    // sites are a subset of what it keeps materialized.
    const bool subset =
        opt_kernel_site_ != nullptr &&
        std::includes(site_preserve_.begin(), site_preserve_.end(),
                      preserve.begin(), preserve.end());
    if (!subset) {
      obs::PhaseSpan span(config_.telemetry, "optimize");
      WallTimer timer;
      opt_kernel_site_ = optimize_kernel(kernel_, preserve);
      build_seconds = timer.elapsed_seconds();
      site_preserve_ = std::move(preserve);
    }
    run_kernel_ = opt_kernel_site_;
  }
  const CompiledKernel::OptStats& stats = run_kernel_->opt_stats();
  telem_.opt_seconds = build_seconds;
  telem_.opt_raw_instrs = stats.raw_instrs;
  telem_.opt_instrs = stats.opt_instrs;
  telem_.opt_absorbed = stats.absorbed;
  telem_.opt_folded = stats.folded;
  telem_.opt_dead = stats.dead;
  telem_.opt_preserved = stats.preserved;
  if (config_.telemetry != nullptr) {
    config_.telemetry->record_optimizer(stats.raw_instrs, stats.opt_instrs,
                                        stats.absorbed, stats.folded,
                                        stats.dead, stats.preserved);
  }
}

// ---- schedule permutation --------------------------------------------------

template <typename Traits>
std::vector<std::uint32_t> ParallelFaultSimulator::schedule_permutation(
    std::span<const typename Traits::FaultT> faults) const {
  const std::span<const std::uint32_t> ranks =
      Traits::kSiteKeyed ? std::span<const std::uint32_t>(site_affinity_rank_)
                         : std::span<const std::uint32_t>(ff_affinity_rank_);
  const bool affine = config_.schedule == CampaignSchedule::kConeAffine &&
                      !ranks.empty();
  // Cone-affine is block-major: the affinity order is a concatenation of
  // lane-width blocks with small cone unions; keying by (block, cycle,
  // rank) lays out each block's faults cycle-major and back to back, so a
  // lane group is exactly one block at one cycle — same small cone union,
  // single injection cycle — instead of drifting across block boundaries.
  const std::uint64_t block = lane_count(config_.lanes);
  // The FF affinity order leads with the partial block (num_ffs mod width),
  // so rank-to-block mapping pads the front to keep later blocks
  // width-aligned; site ranks are width-aligned from rank 0.
  const std::uint64_t pad =
      affine && !Traits::kSiteKeyed
          ? (block - ff_affinity_rank_.size() % block) % block
          : 0;
  const std::size_t num_cycles = testbench_.num_cycles();
  const std::size_t stride =
      Traits::kSiteKeyed ? circuit_.node_count() : circuit_.num_dffs();
  return keyed_schedule_perm(faults.size(), [&](std::size_t i) {
    const typename Traits::FaultT& f = faults[i];
    const std::uint64_t site = Traits::schedule_site(f);
    if (affine) {
      // Dense bucket id (block, cycle, rank-within-block): small enough for
      // a counting sort over the whole campaign.
      const std::uint64_t rank = ranks[site] + pad;
      return (rank / block * num_cycles + Traits::cycle(f)) * block +
             rank % block;
    }
    return std::uint64_t{Traits::cycle(f)} * stride + site;
  });
}

// ---- lane-group plan -------------------------------------------------------

std::vector<ParallelFaultSimulator::GroupSpec>
ParallelFaultSimulator::group_plan(std::size_t n) {
  const std::size_t width = lane_count(config_.lanes);
  std::vector<GroupSpec> plan;
  plan.reserve((n + width - 1) / width);
  for (std::size_t b = 0; b < n; b += width) {
    plan.push_back({static_cast<std::uint32_t>(b),
                    static_cast<std::uint32_t>(std::min(width, n - b))});
  }
  telem_.group_widths = {};
  switch (config_.lanes) {
    case LaneWidth::k64: telem_.group_widths.g64 = plan.size(); break;
    case LaneWidth::k256: telem_.group_widths.g256 = plan.size(); break;
    case LaneWidth::k512: telem_.group_widths.g512 = plan.size(); break;
  }
  const std::size_t lane_slots = plan.size() * width;
  telem_.lane_occupancy =
      lane_slots != 0 ? static_cast<double>(n) /
                            static_cast<double>(lane_slots)
                      : 1.0;
  return plan;
}

// ---- campaign entry points -------------------------------------------------
//
// One thin wrapper per model: run the generic driver, shape the result.

CampaignResult ParallelFaultSimulator::run(std::span<const Fault> faults) {
  WallTimer timer;
  std::vector<FaultOutcome> outcomes(faults.size());
  run_model<FaultModelTraits<FaultModel::kSeu>>(faults, outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return CampaignResult(std::vector<Fault>(faults.begin(), faults.end()),
                        std::move(outcomes));
}

MbuCampaignResult ParallelFaultSimulator::run_mbu(
    std::span<const MbuFault> faults) {
  WallTimer timer;
  MbuCampaignResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.outcomes.resize(faults.size());
  run_model<FaultModelTraits<FaultModel::kMbu>>(faults, result.outcomes);
  result.counts.add(result.outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return result;
}

SetCampaignResult ParallelFaultSimulator::run_set(
    std::span<const SetFault> faults) {
  WallTimer timer;
  SetCampaignResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.outcomes.resize(faults.size());
  run_model<FaultModelTraits<FaultModel::kSet>>(faults, result.outcomes);
  result.counts.add(result.outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return result;
}

StuckAtCampaignResult ParallelFaultSimulator::run_stuckat(
    std::span<const StuckAtFault> faults) {
  WallTimer timer;
  StuckAtCampaignResult result;
  result.faults.assign(faults.begin(), faults.end());
  result.outcomes.resize(faults.size());
  run_model<FaultModelTraits<FaultModel::kStuckAt>>(faults, result.outcomes);
  result.counts.add(result.outcomes);
  telem_.seconds = timer.elapsed_seconds();
  return result;
}

// ---- generic campaign driver -----------------------------------------------

template <typename Traits>
void ParallelFaultSimulator::run_model(
    std::span<const typename Traits::FaultT> faults,
    std::span<FaultOutcome> outcomes) {
  using FaultT = typename Traits::FaultT;
  using View = ModelView<Traits>;

  const std::size_t num_cycles = testbench_.num_cycles();
  for (const FaultT& fault : faults) {
    Traits::validate(circuit_, num_cycles, fault);
  }
  if constexpr (Traits::kSiteKeyed) {
    // Built lazily on the first site-keyed campaign; FF-keyed campaigns
    // never pay for the per-gate structures.
    ensure_site_structures();
  }

  // Resolve the instruction stream this run executes: the raw kernel, or an
  // optimized clone whose preserve set covers every injection site in this
  // fault list (cached — see select_run_kernel).
  {
    std::vector<NodeId> preserve;
    Traits::collect_preserve(faults, preserve);
    select_run_kernel(std::move(preserve));
  }

  // Planning span covers the schedule sort, the permuted copy and the group
  // plan. Taken manually (not PhaseSpan) because the planned vectors must
  // outlive the span scope.
  const std::uint64_t plan_begin_ns = config_.telemetry ? now_ns() : 0;

  const std::vector<std::uint32_t> perm =
      schedule_permutation<Traits>(faults);

  // Run over a permuted view, scatter outcomes back through the inverse
  // permutation so results align with caller order. A list already in
  // schedule order (say, a cycle-major sort of a complete campaign) gets the
  // identity and skips the copy.
  bool permuted = false;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != i) {
      permuted = true;
      break;
    }
  }
  std::vector<FaultT> scheduled;
  std::vector<FaultOutcome> scheduled_outcomes;
  std::span<const FaultT> run_faults = faults;
  std::span<FaultOutcome> run_outcomes = outcomes;
  if (permuted) {
    scheduled.reserve(faults.size());
    for (const std::uint32_t idx : perm) scheduled.push_back(faults[idx]);
    scheduled_outcomes.resize(faults.size());
    run_faults = scheduled;
    run_outcomes = scheduled_outcomes;
  }

  const std::vector<GroupSpec> plan = group_plan(run_faults.size());
  if (config_.telemetry != nullptr) {
    config_.telemetry->record_campaign_span("plan", plan_begin_ns, now_ns());
  }

  // Failure-signature buffer in scheduled order (scattered back through the
  // permutation at the end, like the outcomes). Empty span = capture off —
  // the group runners skip the syndrome work entirely.
  std::vector<std::uint64_t> scheduled_sigs;
  std::span<std::uint64_t> run_sigs;
  if (capture_signatures_) {
    scheduled_sigs.assign(faults.size(), 0);
    run_sigs = scheduled_sigs;
  }
  const auto sig_span = [&](const GroupSpec& spec) {
    return run_sigs.empty() ? std::span<std::uint64_t>{}
                            : run_sigs.subspan(spec.begin, spec.count);
  };
  // Streaming retire: as soon as a group's outcomes are final, hand them to
  // the caller's callback with caller-order indices (perm maps scheduled
  // position -> caller position). Runs on the worker thread that finished
  // the group; the callback is responsible for its own synchronization.
  const auto notify_retire = [&](const GroupSpec& spec,
                                 std::span<const FaultOutcome> group_outcomes,
                                 std::span<const std::uint64_t> group_sigs) {
    if (!retire_cb_) {
      return;
    }
    std::vector<std::uint32_t> indices(spec.count);
    for (std::uint32_t j = 0; j < spec.count; ++j) {
      indices[j] = perm[spec.begin + j];
    }
    retire_cb_(indices, group_outcomes, group_sigs);
  };

  unsigned workers = config_.num_threads != 0
                         ? config_.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(plan.size(), 1)));
  telem_.threads = workers;
  telem_.faults = faults.size();

  // Arm the collector before any worker thread exists (per-worker shards
  // and trace tracks are pre-registered; workers then record lock-free).
  obs::TelemetryCollector* const collector = config_.telemetry;
  if (collector != nullptr) {
    collector->begin_run(workers, faults.size());
  }
  const std::uint64_t grade_begin_ns = collector != nullptr ? now_ns() : 0;

  const auto make_view = [this](std::span<const FaultT> group) {
    return View{group, {cones_.get(), gate_cones_.get(), oracle_.get()}};
  };

  // Runs `grade()` for one group, wrapped in its trace slice. Null telemetry
  // is the fast path: no timestamps, no recording — the only per-group cost
  // is the pointer test.
  const std::uint32_t width = static_cast<std::uint32_t>(
      lane_count(config_.lanes));
  const auto traced = [&](const GroupSpec& spec, WorkerScratch& scratch,
                          const auto& grade) {
    obs::WorkerTelemetry* const wt = scratch.telemetry;
    std::uint64_t begin_ns = 0, instrs0 = 0, narrows0 = 0;
    if (wt != nullptr) {
      begin_ns = now_ns();
      instrs0 = scratch.eval_instrs;
      narrows0 = scratch.narrowings;
    }
    grade();
    if (wt != nullptr) {
      wt->group_slice(begin_ns, now_ns(), width, spec.count,
                      static_cast<std::uint32_t>(scratch.narrowings -
                                                 narrows0),
                      scratch.eval_instrs - instrs0);
    }
  };

  // One LaneEngine<Word> per worker at the configured width, chosen once
  // per run.
  const bool cone = config_.cone_restricted;
  with_lane_word(config_.lanes, [&]<typename Word>() {
    const auto& image = std::get<GoldenWordImage<Word>>(image_);
    const auto run_group = [&](LaneEngine<Word>& engine, const GroupSpec& spec,
                               std::span<const FaultT> group_faults,
                               std::span<FaultOutcome> group_outcomes,
                               WorkerScratch& scratch) {
      const std::span<std::uint64_t> group_sigs = sig_span(spec);
      traced(spec, scratch, [&] {
        const View view = make_view(group_faults);
        if (cone) {
          run_group_cone(engine, image, view, group_outcomes, group_sigs,
                         scratch);
        } else {
          run_group_full(engine, image, view, group_outcomes, group_sigs,
                         scratch);
        }
      });
      notify_retire(spec, group_outcomes, group_sigs);
    };
    run_sharded<Word, FaultT>(run_group, plan, run_faults, run_outcomes,
                              workers);
  });

  if (collector != nullptr) {
    collector->record_campaign_span("grade", grade_begin_ns, now_ns());
    collector->end_run();
  }

  if (permuted) {
    for (std::size_t i = 0; i < perm.size(); ++i) {
      outcomes[perm[i]] = scheduled_outcomes[i];
    }
  }
  if (capture_signatures_) {
    last_run_signatures_.assign(faults.size(), 0);
    for (std::size_t i = 0; i < perm.size(); ++i) {
      last_run_signatures_[perm[i]] = scheduled_sigs[i];
    }
  } else {
    last_run_signatures_.clear();
  }
}

template <typename Word, typename FaultT, typename RunGroup>
void ParallelFaultSimulator::run_sharded(const RunGroup& run_group,
                                         std::span<const GroupSpec> plan,
                                         std::span<const FaultT> faults,
                                         std::span<FaultOutcome> outcomes,
                                         unsigned num_workers) {
  const std::size_t num_groups = plan.size();

  const auto group_span = [&](std::size_t g) {
    const GroupSpec& spec = plan[g];
    return std::pair{faults.subspan(spec.begin, spec.count),
                     outcomes.subspan(spec.begin, spec.count)};
  };

  if (num_workers <= 1 || num_groups <= 1) {
    LaneEngine<Word> engine(run_kernel_);
    WorkerScratch scratch;
    if (config_.telemetry != nullptr) {
      scratch.telemetry = &config_.telemetry->worker(0);
    }
    for (std::size_t g = 0; g < num_groups; ++g) {
      const auto [group_faults, group_outcomes] = group_span(g);
      run_group(engine, plan[g], group_faults, group_outcomes, scratch);
    }
    telem_.eval_cycles = scratch.eval_cycles;
    telem_.eval_instrs = scratch.eval_instrs;
    telem_.eval_slot_bytes = scratch.eval_slot_bytes;
    telem_.narrowings = scratch.narrowings;
    return;
  }

  // Work-stealing pool: each worker owns one engine and one scratch (sharing
  // the read-only kernel, cones, slot trace and golden images) and pulls
  // group indices from an atomic counter. Each group writes a disjoint
  // outcome slice, so the result is identical for any worker count or
  // scheduling order. The first exception any worker throws (a group or the
  // retire callback) is captured, pushes the claim counter past the end so
  // every worker stops after its current group, and is rethrown here once
  // all workers have joined — an escaping exception on a pool thread, or a
  // joinable pool unwound by one on worker 0, would std::terminate.
  std::atomic<std::size_t> next_group{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto record_error = [&] {
    next_group.store(num_groups, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };
  std::atomic<std::uint64_t> total_eval_cycles{0};
  std::atomic<std::uint64_t> total_eval_instrs{0};
  std::atomic<std::uint64_t> total_eval_slot_bytes{0};
  std::atomic<std::uint64_t> total_narrowings{0};
  const auto worker = [&](unsigned worker_id) {
    WorkerScratch scratch;
    try {
      LaneEngine<Word> engine(run_kernel_);
      if (config_.telemetry != nullptr) {
        scratch.telemetry = &config_.telemetry->worker(worker_id);
      }
      for (std::size_t g = next_group.fetch_add(1, std::memory_order_relaxed);
           g < num_groups;
           g = next_group.fetch_add(1, std::memory_order_relaxed)) {
        const auto [group_faults, group_outcomes] = group_span(g);
        run_group(engine, plan[g], group_faults, group_outcomes, scratch);
      }
    } catch (...) {
      record_error();
    }
    total_eval_cycles.fetch_add(scratch.eval_cycles,
                                std::memory_order_relaxed);
    total_eval_instrs.fetch_add(scratch.eval_instrs,
                                std::memory_order_relaxed);
    total_eval_slot_bytes.fetch_add(scratch.eval_slot_bytes,
                                    std::memory_order_relaxed);
    total_narrowings.fetch_add(scratch.narrowings, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(num_workers - 1);
  try {
    for (unsigned i = 1; i < num_workers; ++i) {
      pool.emplace_back(worker, i);
    }
  } catch (...) {
    record_error();  // thread creation failed; the started workers still join
  }
  worker(0);  // the calling thread is worker 0
  for (auto& t : pool) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  telem_.eval_cycles = total_eval_cycles.load();
  telem_.eval_instrs = total_eval_instrs.load();
  telem_.eval_slot_bytes = total_eval_slot_bytes.load();
  telem_.narrowings = total_narrowings.load();
}

template <typename View>
void ParallelFaultSimulator::sort_group_order(const View& view,
                                              WorkerScratch& scratch) const {
  // Injection schedule sorted by cycle: injections then advance a cursor
  // instead of rescanning all lanes per cycle, and the cursor's head is the
  // next injection cycle the fast-forward path jumps to. The index vector is
  // per-worker scratch — reused across groups, no per-group allocation.
  scratch.order.resize(view.size());
  std::iota(scratch.order.begin(), scratch.order.end(), 0u);
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return view.cycle(x) < view.cycle(y);
            });
}

template <typename Word, typename View>
void ParallelFaultSimulator::run_group_full(LaneEngine<Word>& engine,
                                            const GoldenWordImage<Word>& image,
                                            const View& view,
                                            std::span<FaultOutcome> outcomes,
                                            std::span<std::uint64_t> sigs,
                                            WorkerScratch& scratch) const {
  using T = LaneTraits<Word>;
  const std::size_t num_cycles = testbench_.num_cycles();
  const std::size_t program_size = run_kernel_->program().size();
  const std::size_t slot_bytes = circuit_.node_count() * sizeof(Word);
  const std::size_t group_size = view.size();
  const Word group_mask = T::first_n(group_size);

  sort_group_order(view, scratch);
  const std::vector<std::uint32_t>& order = scratch.order;
  std::size_t cursor = 0;

  // Default: latent (overwritten on detection/convergence below).
  for (auto& outcome : outcomes) {
    outcome = FaultOutcome{FaultClass::kLatent, kNoCycle, kNoCycle};
  }

  const std::uint32_t first_cycle = view.cycle(order.front());
  engine.broadcast_state(golden_.states[first_cycle]);
  Word injected = T::zero();
  Word classified = T::zero();
  [[maybe_unused]] auto& overlay = overlay_in<Word>(scratch);
  if constexpr (View::kHasOverlay && View::kOverlayEveryCycle) {
    // Permanent faults: one persistent overlay entry per lane, applied on
    // every cycle's evaluation — built once per group.
    overlay.clear();
    for (std::size_t lane = 0; lane < group_size; ++lane) {
      overlay.push_back(view.template overlay_entry<Word>(
          lane, view.overlay_node(lane)));
    }
    finalize_overlay(overlay);
  }
  // Final-state divergence for models without convergence retirement (their
  // undetected lanes map to latent/silent after the loop).
  [[maybe_unused]] Word final_differs = T::zero();

  for (std::size_t t = first_cycle; t < num_cycles; ++t) {
    // Inject the lanes whose cycle has arrived. SEU/MBU flips happen in
    // state(t), before cycle t evaluates — the upset hits the new state;
    // an overlay model's lane instead contributes an overlay entry so the
    // fault lands inline during this cycle's evaluation.
    if constexpr (View::kHasOverlay && !View::kOverlayEveryCycle) {
      overlay.clear();
    }
    [[maybe_unused]] bool thin_now = false;
    [[maybe_unused]] const std::size_t inject_begin = cursor;
    while (cursor < order.size() && view.cycle(order[cursor]) == t) {
      const std::uint32_t lane = order[cursor];
      view.inject(engine, lane);
      if constexpr (View::kHasOverlay && !View::kOverlayEveryCycle) {
        overlay.push_back(view.template overlay_entry<Word>(
            lane, view.overlay_node(lane)));
      }
      if constexpr (View::kLatchThinning) {
        thin_now = thin_now || view.lane_thins(lane);
      }
      injected |= T::lane_bit(lane);
      ++cursor;
    }

    if constexpr (View::kHasOverlay) {
      if constexpr (!View::kOverlayEveryCycle) {
        finalize_overlay(overlay);
      }
      engine.eval_words_overlay(image.inputs(t), overlay);
    } else {
      engine.eval_words(image.inputs(t));
    }
    ++scratch.eval_cycles;
    scratch.eval_instrs += program_size;
    scratch.eval_slot_bytes += slot_bytes;

    const Word mismatch =
        engine.output_mismatch_lanes(image.outputs(t)) & injected &
        ~classified;
    if (T::any(mismatch)) {
      for (std::size_t lane = 0; lane < group_size; ++lane) {
        if (T::test(mismatch, static_cast<unsigned>(lane))) {
          outcomes[lane].cls = FaultClass::kFailure;
          outcomes[lane].detect_cycle = static_cast<std::uint32_t>(t);
          if (!sigs.empty()) {
            // Failure signature: faulty XOR golden outputs at the detect
            // cycle (the serial dictionary's syndrome, same hash).
            BitVec syndrome = engine.lane_outputs(static_cast<unsigned>(lane));
            syndrome ^= golden_.outputs[t];
            sigs[lane] = syndrome.hash();
          }
        }
      }
      classified |= mismatch;
    }

    engine.step();

    if constexpr (View::kLatchThinning) {
      // Latching-window thinning: a sub-full-width pulse misses some
      // destination FFs' setup windows; those latch the broadcast golden
      // next-state value instead of the transient-disturbed D.
      if (thin_now) {
        const auto golden_state = image.states(t + 1);
        for (std::size_t c = inject_begin; c < cursor; ++c) {
          const std::uint32_t lane = order[c];
          if (!view.lane_thins(lane)) continue;
          for (std::uint32_t ff = 0; ff < image.num_ffs; ++ff) {
            if (!view.latches(lane, ff)) {
              engine.force_state_lanes(ff, T::lane_bit(lane),
                                       golden_state[ff]);
            }
          }
        }
      }
    }

    if constexpr (View::kRetireOnConvergence) {
      const Word differs = engine.state_mismatch_lanes(image.states(t + 1));
      const Word converged = injected & ~classified & ~differs;
      if (T::any(converged)) {
        for (std::size_t lane = 0; lane < group_size; ++lane) {
          if (T::test(converged, static_cast<unsigned>(lane))) {
            outcomes[lane].cls = FaultClass::kSilent;
            outcomes[lane].converge_cycle = static_cast<std::uint32_t>(t + 1);
          }
        }
        classified |= converged;
      }
    } else if (t + 1 == num_cycles) {
      final_differs = engine.state_mismatch_lanes(image.states(num_cycles));
    }

    if (classified == group_mask) {
      return;  // every lane graded — skip the testbench tail entirely
    }

    // Fast-forward: when every already-injected lane is graded, the pending
    // lanes are bit-identical to the golden machine, so jump straight to the
    // next injection cycle (the cursor head) from the golden state image.
    if (!T::any(injected & ~classified) && cursor < order.size()) {
      const std::uint32_t next_cycle = view.cycle(order[cursor]);
      if (next_cycle > t + 1) {
        engine.broadcast_state(golden_.states[next_cycle]);
        t = next_cycle - 1;  // loop increment lands on next_cycle
      }
    }
  }
  if constexpr (!View::kRetireOnConvergence) {
    // Test-pattern mapping for undetected permanent faults: latent when the
    // final state still differs from golden (excited but unobserved),
    // silent when it does not. No converge_cycle — the fault never goes
    // away.
    const Word benign = group_mask & ~classified & ~final_differs;
    for (std::size_t lane = 0; lane < group_size; ++lane) {
      if (T::test(benign, static_cast<unsigned>(lane))) {
        outcomes[lane].cls = FaultClass::kSilent;
      }
    }
  }
  // Remaining unclassified lanes stay latent (their final state differs and
  // no output ever deviated).
}

template <typename Word, typename View>
void ParallelFaultSimulator::run_group_cone(LaneEngine<Word>& engine,
                                            const GoldenWordImage<Word>& image,
                                            const View& view,
                                            std::span<FaultOutcome> outcomes,
                                            std::span<std::uint64_t> sigs,
                                            WorkerScratch& scratch) const {
  using T = LaneTraits<Word>;
  const std::size_t num_cycles = testbench_.num_cycles();
  const std::size_t group_size = view.size();
  const Word group_mask = T::first_n(group_size);

  sort_group_order(view, scratch);
  const std::vector<std::uint32_t>& order = scratch.order;
  std::size_t cursor = 0;

  for (auto& outcome : outcomes) {
    outcome = FaultOutcome{FaultClass::kLatent, kNoCycle, kNoCycle};
  }

  // Initial cone: union of every group fault's cone. Under the block-major
  // cone-affine schedule consecutive groups carry the same site block, so
  // the derived initial sub-program is cached in the worker scratch keyed
  // on the group's site set and rebuilt only when the block changes.
  const std::size_t ff_words = (circuit_.num_dffs() + 63) / 64;
  const std::size_t lane_words = (T::kLanes + 63) / 64;
  const std::size_t key_words =
      View::kKeyOverNodes ? words_per_cone_ : ff_words;
  std::vector<std::uint64_t>& group_key = scratch.group_key;
  group_key.assign(key_words, 0);
  for (std::size_t i = 0; i < group_size; ++i) {
    view.seed_key(group_key, i);
  }
  if (!scratch.initial_valid || group_key != scratch.cached_key) {
    scratch.cached_key = group_key;
    scratch.initial_mask.assign(words_per_cone_, 0);
    for (std::size_t i = 0; i < group_size; ++i) {
      view.union_cone(scratch.initial_mask, i);
    }
    run_kernel_->build_subprogram(scratch.initial_mask, scratch.initial_sp);
    scratch.initial_valid = true;
  }
  std::vector<std::uint64_t>& mask = scratch.cone_mask;
  mask = scratch.initial_mask;
  const CompiledKernel::ConeSubProgram* sp = &scratch.initial_sp;
  unsigned narrow_buf = 0;  // next narrow_sp buffer to write (ping-pong)

  // The sub-program is re-derived (narrowed) at checkpoints — whenever any
  // lane classified since the last checkpoint, and every kNarrowInterval
  // cycles — from what is *currently* diverged: the cones of the flip-flops
  // whose lane state differs from golden in any active lane, plus the seed
  // cones of lanes whose bound no FF bit can express (lanes still waiting
  // to inject — and, for every-cycle overlay models, every unclassified
  // lane: a permanent fault keeps re-entering at its site, so its seed cone
  // stays a divergence bound forever). Those lanes are tracked as per-lane
  // tail bits in the fingerprint. Divergence can only move inside the
  // structural closure, so the re-derived mask is always a subset of the
  // current one and the sub-program only ever shrinks; latent faults whose
  // divergence parks in a few dead-end flip-flops stop paying for the full
  // injection cone. The fingerprint is remembered between checkpoints: once
  // the tail stabilises (same FFs diverged, typical for latent survivors)
  // the checkpoint is a bitset compare, with no union or derivation work.
  std::size_t narrow_below = group_size - 1;
  constexpr std::size_t kNarrowInterval = 4;
  std::vector<std::uint64_t>& next_mask = scratch.narrow_mask;
  std::vector<std::uint64_t>& diverged = scratch.diverged_ffs;
  // Seed with every lane's tail bit — the bound the initial sub-program was
  // derived from.
  diverged.assign(ff_words + lane_words, 0);
  for (std::size_t lane = 0; lane < group_size; ++lane) {
    diverged[ff_words + (lane >> 6)] |= std::uint64_t{1} << (lane & 63);
  }

  const std::uint32_t first_cycle = view.cycle(order.front());
  engine.broadcast_state(golden_.states[first_cycle]);
  Word injected = T::zero();
  Word classified = T::zero();
  std::size_t next_narrow_check = first_cycle + kNarrowInterval;
  [[maybe_unused]] auto& overlay = overlay_in<Word>(scratch);
  // Every-cycle overlays live in arena space, so they are rebuilt whenever
  // the sub-program changes (the ping-pong narrow buffers can reuse an
  // address, so a dirty flag — not the pointer — tracks staleness).
  [[maybe_unused]] bool overlay_dirty = true;
  [[maybe_unused]] Word final_differs = T::zero();

  for (std::size_t t = first_cycle; t < num_cycles; ++t) {
    if constexpr (View::kHasOverlay && View::kOverlayEveryCycle) {
      if (overlay_dirty) {
        overlay.clear();
        for (std::size_t lane = 0; lane < group_size; ++lane) {
          // A site the (narrowed) sub-program no longer computes is
          // dropped — its fault provably cannot affect what is still
          // evaluated (only possible for already-classified lanes, whose
          // seed bound left the mask).
          const std::uint32_t s = view.overlay_node(lane);
          if (sp->in_cone(s)) {
            overlay.push_back(view.template overlay_entry<Word>(
                lane, sp->local_of_slot[s]));
          }
        }
        finalize_overlay(overlay);
        overlay_dirty = false;
      }
    } else if constexpr (View::kHasOverlay) {
      overlay.clear();
    }
    [[maybe_unused]] bool thin_now = false;
    [[maybe_unused]] const std::size_t inject_begin = cursor;
    while (cursor < order.size() && view.cycle(order[cursor]) == t) {
      const std::uint32_t lane = order[cursor];
      view.inject(engine, lane);
      if constexpr (View::kHasOverlay && !View::kOverlayEveryCycle) {
        // Overlay destinations live in the sub-program's arena space; a
        // site the (narrowed) sub-program no longer computes is dropped —
        // its transient provably cannot affect what is still evaluated.
        const std::uint32_t s = view.overlay_node(lane);
        if (sp->in_cone(s)) {
          overlay.push_back(view.template overlay_entry<Word>(
              lane, sp->local_of_slot[s]));
        }
      }
      if constexpr (View::kLatchThinning) {
        thin_now = thin_now || view.lane_thins(lane);
      }
      injected |= T::lane_bit(lane);
      ++cursor;
    }

    if constexpr (View::kHasOverlay) {
      if constexpr (!View::kOverlayEveryCycle) {
        finalize_overlay(overlay);
      }
      engine.eval_cone_overlay(*sp, slot_trace_.at(t), overlay);
    } else {
      engine.eval_cone(*sp, slot_trace_.at(t));
    }
    ++scratch.eval_cycles;
    scratch.eval_instrs += sp->instrs.size();
    scratch.eval_slot_bytes += sp->arena_slots * sizeof(Word);

    const Word mismatch =
        engine.output_mismatch_lanes_cone(*sp, image.outputs(t)) & injected &
        ~classified;
    if (T::any(mismatch)) {
      for (std::size_t lane = 0; lane < group_size; ++lane) {
        if (T::test(mismatch, static_cast<unsigned>(lane))) {
          outcomes[lane].cls = FaultClass::kFailure;
          outcomes[lane].detect_cycle = static_cast<std::uint32_t>(t);
          if (!sigs.empty()) {
            // Full-width syndrome from the cone arena: outputs outside the
            // (narrowed) sub-program are provably golden, so the XOR below
            // matches the full-eval and serial syndromes bit for bit.
            BitVec syndrome = engine.lane_outputs_cone(
                *sp, golden_.outputs[t], static_cast<unsigned>(lane));
            syndrome ^= golden_.outputs[t];
            sigs[lane] = syndrome.hash();
          }
        }
      }
      classified |= mismatch;
    }

    Word differs;
    if constexpr (View::kLatchThinning) {
      if (thin_now) {
        // Latching-window thinning, fused into the cone step: build the
        // per-cone-FF suppression words for the lanes injecting a
        // sub-full-width pulse this cycle, then step with those lanes
        // latching golden where the pulse missed the setup window.
        auto& suppress = thin_in<Word>(scratch);
        suppress.assign(sp->dff_indices.size(), T::zero());
        for (std::size_t c = inject_begin; c < cursor; ++c) {
          const std::uint32_t lane = order[c];
          if (!view.lane_thins(lane)) continue;
          for (std::size_t k = 0; k < sp->dff_indices.size(); ++k) {
            if (!view.latches(lane, sp->dff_indices[k])) {
              suppress[k] |= T::lane_bit(lane);
            }
          }
        }
        differs = engine.step_cone_mismatch_thinned(*sp, image.states(t + 1),
                                                    suppress);
      } else {
        differs = engine.step_cone_mismatch(*sp, image.states(t + 1));
      }
    } else {
      differs = engine.step_cone_mismatch(*sp, image.states(t + 1));
    }
    if constexpr (View::kRetireOnConvergence) {
      const Word converged = injected & ~classified & ~differs;
      if (T::any(converged)) {
        for (std::size_t lane = 0; lane < group_size; ++lane) {
          if (T::test(converged, static_cast<unsigned>(lane))) {
            outcomes[lane].cls = FaultClass::kSilent;
            outcomes[lane].converge_cycle = static_cast<std::uint32_t>(t + 1);
          }
        }
        classified |= converged;
      }
    } else if (t + 1 == num_cycles) {
      // Only cone FFs can hold non-golden state, so the cone-restricted
      // mismatch is the full final-state comparison.
      final_differs = differs;
    }

    if (classified == group_mask) {
      return;
    }

    // Narrowing checkpoint: whenever any lane classified since the last
    // checkpoint (cheap now that re-derivation filters the current
    // sub-program, and crucial during the post-injection burst when big
    // cones shed most of their lanes), and every kNarrowInterval cycles to
    // catch divergence that shrinks without classifying.
    const std::size_t active = group_size - T::count(classified);
    if (active <= narrow_below || t + 1 >= next_narrow_check) {
      narrow_below = active - 1;
      next_narrow_check = t + 1 + kNarrowInterval;
      // Current divergence fingerprint: lanes whose bound is their seed
      // cone (waiting lanes; every unclassified lane for every-cycle
      // models) contribute their tail bit, active lanes contribute every
      // cone FF whose state word differs from golden (only cone FFs can
      // diverge).
      std::vector<std::uint64_t>& now = scratch.diverged_now;
      now.assign(ff_words + lane_words, 0);
      for (std::size_t lane = 0; lane < group_size; ++lane) {
        bool tail;
        if constexpr (View::kOverlayEveryCycle) {
          tail = !T::test(classified, static_cast<unsigned>(lane));
        } else {
          tail = !T::test(injected, static_cast<unsigned>(lane));
        }
        if (tail) {
          now[ff_words + (lane >> 6)] |= std::uint64_t{1} << (lane & 63);
        }
      }
      const Word active_lanes = injected & ~classified;
      const auto golden_state = image.states(t + 1);
      for (const std::uint32_t i : sp->dff_indices) {
        if (T::any((engine.state_word(i) ^ golden_state[i]) & active_lanes)) {
          now[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
      }
      if (now != diverged) {
        // Union re-derivation only pays off when the set strictly shrank.
        // When divergence *spreads*, cone closure guarantees the current
        // mask still covers it (a newly diverged FF is a cone member, and a
        // cone member's own cone is inside the cone), so tracking the new
        // set without any union work is exact.
        bool maybe_shrunk = true;
        for (std::size_t w = 0; w < ff_words + lane_words; ++w) {
          if ((now[w] & ~diverged[w]) != 0) {
            maybe_shrunk = false;
            break;
          }
        }
        diverged = now;
        if (maybe_shrunk) {
          next_mask.assign(mask.size(), 0);
          for (std::size_t w = 0; w < ff_words; ++w) {
            std::uint64_t bits = diverged[w];
            while (bits != 0) {
              const std::size_t ff =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
              bits &= bits - 1;
              view.union_ff_cone(next_mask, ff);
            }
          }
          for (std::size_t w = 0; w < lane_words; ++w) {
            std::uint64_t bits = diverged[ff_words + w];
            while (bits != 0) {
              const std::size_t lane =
                  w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
              bits &= bits - 1;
              view.union_cone(next_mask, lane);
            }
          }
          if (next_mask != mask) {
            mask.swap(next_mask);
            const std::uint64_t narrow_begin_ns =
                scratch.telemetry != nullptr ? now_ns() : 0;
            run_kernel_->build_subprogram(mask, scratch.narrow_sp[narrow_buf],
                                          sp);
            if (scratch.telemetry != nullptr) {
              scratch.telemetry->narrow_slice(narrow_begin_ns, now_ns());
            }
            sp = &scratch.narrow_sp[narrow_buf];
            narrow_buf ^= 1u;
            ++scratch.narrowings;
            overlay_dirty = true;
          }
        }
      }
    }

    if (!T::any(injected & ~classified) && cursor < order.size()) {
      const std::uint32_t next_cycle = view.cycle(order[cursor]);
      if (next_cycle > t + 1) {
        engine.broadcast_state(golden_.states[next_cycle]);
        t = next_cycle - 1;
      }
    }
  }
  if constexpr (!View::kRetireOnConvergence) {
    // Test-pattern mapping for undetected permanent faults (see
    // run_group_full).
    const Word benign = group_mask & ~classified & ~final_differs;
    for (std::size_t lane = 0; lane < group_size; ++lane) {
      if (T::test(benign, static_cast<unsigned>(lane))) {
        outcomes[lane].cls = FaultClass::kSilent;
      }
    }
  }
}

}  // namespace femu
