#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/fanout_cones.h"
#include "sim/compiled_kernel.h"
#include "sim/golden.h"
#include "sim/golden_slots.h"

namespace femu {

// ---- persistent content-addressed artifact cache ---------------------------
//
// Every campaign over the same (circuit, testbench) recomputes the same
// setup artifacts: the golden traces, the cone structures, the cone-affine
// order and the optimized kernel. None of them depend on the fault list or
// on any engine knob beyond the resolved artifact *shape* (eager cones vs
// oracle, slot trace or not, optimized kernel or not) — the same invariance
// contract the journal's CampaignFingerprint encodes. This cache persists
// them on disk keyed by content hashes, so the serving-daemon / hardening-
// loop pattern — near-identical campaigns in a tight loop — pays setup once.
//
// Key derivation (vs CampaignFingerprint): the `circuit`, `testbench` and
// `config` (rule tag) components are the exact journal hashes; the `faults`
// and `model` components are deliberately DROPPED (no setup artifact depends
// on them), and two cache-only components are added: an optimizer hash
// (pass-pipeline version + preserve-set tag) and a shape hash. Engine knobs
// (lanes, threads, schedule, width policy, arena) stay excluded, matching
// the journal's outcome-invariance contract — with one nuance: knobs that
// pick WHICH artifacts exist (cone policy resolution, cone_restricted,
// optimize) fold into the shape hash, so each shape is its own entry and a
// load either supplies everything construction needs or nothing.
//
// On-disk format (FaultDictionary-style, host-endian, one file per key):
//
//   8-byte magic "FEMUART\0", then the payload:
//     u32 format version
//     the five key hashes (u64 each)
//     tagged sections (u8 presence flag each, in fixed order):
//       golden trace      — states then outputs, as length-prefixed BitVecs
//       golden slot trace — num_slots, then per-cycle BitVecs
//       ff affinity rank  — u32 per FF
//       next-FF labels    — u32 per node
//       eager FF cones    — dims + bits words + per-FF gate counts
//       cone oracle       — dims + CSR head/adj + FF Q-node list
//       optimized kernel  — dims + instruction stream + index tables +
//                           OptStats
//   u64 FNV-1a checksum over the payload
//
// Stores write `<file>.tmp` then atomically rename, so a crash can never
// leave a torn entry under a valid name. Loads NEVER throw on bad content:
// corrupt bytes, truncation, a version skew or a foreign fingerprint all
// degrade to a warned miss (status + detail) and the caller rebuilds — the
// same totally-degrading contract as load_journal.

/// Content-addressed cache key; combined() names the entry file.
struct ArtifactCacheKey {
  std::uint64_t circuit = 0;    ///< circuit_structure_hash
  std::uint64_t testbench = 0;  ///< testbench_content_hash
  std::uint64_t config_rule = 0;  ///< campaign_config_rule_hash
  std::uint64_t optimizer = 0;  ///< optimizer_pipeline_hash
  std::uint64_t shape = 0;      ///< artifact_shape_hash

  friend bool operator==(const ArtifactCacheKey&,
                         const ArtifactCacheKey&) = default;

  /// FNV-1a over the five components — the content address.
  [[nodiscard]] std::uint64_t combined() const;

  /// Entry file name inside the cache dir: "femu-<combined hex>.artifact".
  [[nodiscard]] std::string file_name() const;
};

/// Hash of the kernel-optimizer configuration a cached optimized kernel was
/// built under: whether the pass pipeline runs at all and its version tag,
/// plus the preserve set (the engine's cached FF-model kernel preserves
/// nothing — sorted site preserves are per-run and never cached). Bump the
/// tag when a pass changes codegen.
[[nodiscard]] std::uint64_t optimizer_pipeline_hash(
    bool optimize, std::span<const NodeId> preserve = {});

/// Hash of the artifact shape construction will materialize: which cone
/// structure (eager vs on-demand oracle), whether cone-restricted evaluation
/// needs the slot trace, and whether an optimized kernel is cached.
/// `order_group_width` / `order_greedy_cap` are the eager greedy FF-order
/// parameters (the one cached artifact that depends on engine knobs — the
/// cone-affine order groups by lane width); pass 0/0 in on-demand mode,
/// whose anchor order is knob-free. Folding them into the shape keeps a
/// warm run's grouping — and therefore its work metrics — bit-identical to
/// the cold run at the same knobs.
[[nodiscard]] std::uint64_t artifact_shape_hash(bool on_demand_cones,
                                                bool need_cones,
                                                bool slot_trace,
                                                bool opt_kernel,
                                                std::uint64_t order_group_width,
                                                std::uint64_t order_greedy_cap);

enum class ArtifactCacheStatus : std::uint8_t {
  kHit,          ///< entry validated and adopted
  kMiss,         ///< no entry (nothing to warn about)
  kCorrupt,      ///< bad magic/checksum/truncation — rebuilt
  kVersionSkew,  ///< entry from another format version — rebuilt
  kMismatch,     ///< entry keyed for different content — rebuilt
};

[[nodiscard]] const char* artifact_cache_status_name(
    ArtifactCacheStatus s) noexcept;

/// Deserialized setup artifacts, ready for the engine to adopt. Sections a
/// shape does not include stay absent (null/empty).
struct ArtifactBundle {
  bool has_golden = false;
  GoldenTrace golden;
  bool has_slot_trace = false;
  GoldenSlotTrace slot_trace;
  bool has_ff_rank = false;
  std::vector<std::uint32_t> ff_affinity_rank;
  bool has_labels = false;
  std::vector<std::uint32_t> next_ff_labels;
  std::unique_ptr<FanoutCones> eager_cones;  // null when absent
  std::unique_ptr<ConeOracle> oracle;        // null when absent
  std::shared_ptr<const CompiledKernel> opt_kernel;  // null when absent
};

struct ArtifactLoadResult {
  ArtifactCacheStatus status = ArtifactCacheStatus::kMiss;
  std::string detail;        ///< what degraded (empty on hit/plain miss)
  std::uint64_t bytes = 0;   ///< entry size read (0 on miss)
  ArtifactBundle bundle;     ///< populated only on kHit
};

/// Loads and validates the entry for `key` from `dir`. The embedded key is
/// checked against `key` component-wise (a foreign fingerprint names the
/// culprit in `detail`), every section is bounds-checked, and the
/// reconstructed kernel is re-bound to `circuit` after a node-count check.
/// Never throws on bad content — see the degradation contract above.
[[nodiscard]] ArtifactLoadResult load_artifacts(const std::string& dir,
                                                const ArtifactCacheKey& key,
                                                const Circuit& circuit);

/// Non-owning view of the artifacts one construction produced; null
/// pointers mark sections the shape does not include.
struct ArtifactStoreView {
  const GoldenTrace* golden = nullptr;
  const GoldenSlotTrace* slot_trace = nullptr;
  const std::vector<std::uint32_t>* ff_affinity_rank = nullptr;
  const std::vector<std::uint32_t>* next_ff_labels = nullptr;
  const FanoutCones* eager_cones = nullptr;
  const ConeOracle* oracle = nullptr;
  const CompiledKernel* opt_kernel = nullptr;
};

struct ArtifactStoreResult {
  bool stored = false;
  std::uint64_t bytes = 0;  ///< entry size written (0 on failure)
  std::string detail;       ///< why the store failed (never fatal)
};

/// Serializes `view` to `dir` (created if missing) under `key`'s file name
/// via tmp + atomic rename. I/O failure degrades to stored=false + detail —
/// a cache store must never fail a campaign — and removes the tmp file.
[[nodiscard]] ArtifactStoreResult store_artifacts(const std::string& dir,
                                                  const ArtifactCacheKey& key,
                                                  const ArtifactStoreView& view);

}  // namespace femu
