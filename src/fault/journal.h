#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign_result.h"
#include "fault/mbu.h"
#include "fault/parallel_faultsim.h"
#include "fault/set_model.h"
#include "fault/stuckat_model.h"
#include "netlist/circuit.h"
#include "stim/testbench.h"

namespace femu {

// ---- content fingerprint ---------------------------------------------------

/// Incremental FNV-1a (64-bit) over a typed field stream — the hash every
/// journal fingerprint, record checksum and dictionary checksum uses.
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void u8(std::uint8_t v) noexcept { bytes(&v, sizeof v); }
  void u16(std::uint16_t v) noexcept { bytes(&v, sizeof v); }
  void u32(std::uint32_t v) noexcept { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a offset basis
};

/// Content fingerprint of everything that determines a campaign's
/// classifications, kept component-wise so a mismatch can name the culprit.
///
/// Deliberately EXCLUDED: every CampaignConfig knob (lane width, thread
/// count, evaluation mode, schedule, kernel optimizer) and the cone source —
/// the engine's classifications are proven bit-identical across all of them
/// (the serial-reference cross-validation suites and the optimizer
/// preserve-contract suite), which is precisely what makes a
/// journal resumable on a different machine/thread count. `config` is
/// reserved for a future knob that does affect outcomes; today it hashes
/// only the rule's version tag.
struct CampaignFingerprint {
  std::uint64_t circuit = 0;    ///< structure: nodes, fanins, PI/FF/PO lists
  std::uint64_t testbench = 0;  ///< stimulus vectors, width, length
  std::uint64_t faults = 0;     ///< the exact fault list, in caller order
  std::uint64_t model = 0;      ///< fault-model descriptor string
  std::uint64_t config = 0;     ///< outcome-affecting config (none today)

  friend bool operator==(const CampaignFingerprint&,
                         const CampaignFingerprint&) = default;
};

/// Structural hash of a circuit: cell types, fanin ids, PI/FF ids, output
/// drivers. Node names and the circuit name are cosmetic and excluded.
[[nodiscard]] std::uint64_t circuit_structure_hash(const Circuit& circuit);

/// Hash of the stimulus: input width plus every vector's bits.
[[nodiscard]] std::uint64_t testbench_content_hash(const Testbench& tb);

/// The `config` component of CampaignFingerprint: a hash of the campaign-
/// config outcome-invariance rule's version tag (no knob affects outcomes
/// today). Exposed so the artifact cache keys on the exact same contract.
[[nodiscard]] std::uint64_t campaign_config_rule_hash();

[[nodiscard]] std::uint64_t fault_list_hash(std::span<const Fault> faults);
[[nodiscard]] std::uint64_t fault_list_hash(std::span<const MbuFault> faults);
[[nodiscard]] std::uint64_t fault_list_hash(std::span<const SetFault> faults);
[[nodiscard]] std::uint64_t fault_list_hash(
    std::span<const StuckAtFault> faults);

[[nodiscard]] CampaignFingerprint campaign_fingerprint(
    const Circuit& circuit, const Testbench& tb, std::span<const Fault> faults);
[[nodiscard]] CampaignFingerprint campaign_fingerprint(
    const Circuit& circuit, const Testbench& tb,
    std::span<const MbuFault> faults);
[[nodiscard]] CampaignFingerprint campaign_fingerprint(
    const Circuit& circuit, const Testbench& tb,
    std::span<const SetFault> faults);
[[nodiscard]] CampaignFingerprint campaign_fingerprint(
    const Circuit& circuit, const Testbench& tb,
    std::span<const StuckAtFault> faults);

// ---- on-disk journal -------------------------------------------------------
//
// Binary, append-only, machine-local (host endianness — a journal is a
// crash-recovery artifact, not an interchange format):
//
//   8-byte file magic "FEMUJRNL", then records:
//     u32 record magic  'J''R''N''L'
//     u8  type          1 = header, 2 = retired group, 3 = complete
//     u32 payload bytes
//     payload
//     u64 FNV-1a checksum over (type, payload bytes, payload)
//
//   header payload:  u32 format version, the five fingerprint hashes,
//                    u64 fault count, u8 has_signatures
//   group payload:   u32 count, then count x { u32 caller fault index,
//                    u8 class, u32 detect_cycle, u32 converge_cycle,
//                    u64 signature hash (0 when not captured) }
//   complete:        empty payload
//
// The writer flushes after every record, so everything appended before a
// SIGKILL survives (the kernel keeps written file data; only power loss
// needs fsync, which a crash-recovery journal deliberately doesn't pay
// per record). The reader accepts the longest valid prefix: it stops at
// the first record whose magic, length or checksum doesn't verify, so a
// torn tail costs the torn records, never the journal.

enum class JournalStatus : std::uint8_t {
  kOk,                   ///< valid journal for this exact campaign
  kMissing,              ///< no file (fresh run, nothing to warn about)
  kCorrupt,              ///< bad file/header — unusable
  kFingerprintMismatch,  ///< valid journal for a *different* campaign
};

/// What load_journal recovered. Outcomes/signatures are caller-indexed and
/// only meaningful where have[i] != 0.
struct JournalContents {
  JournalStatus status = JournalStatus::kMissing;
  bool complete = false;    ///< completion marker present
  bool truncated = false;   ///< invalid tail dropped (valid-prefix recovery)
  bool has_signatures = false;
  std::string detail;       ///< diagnosis (names the mismatching component)
  std::vector<std::uint8_t> have;
  std::vector<FaultOutcome> outcomes;
  std::vector<std::uint64_t> signatures;
  std::size_t num_known = 0;
};

/// Validates and loads `path` against the expected fingerprint and fault
/// count. Never throws on bad content — corruption and mismatch are
/// expected inputs after a crash; the status/detail say what degraded.
[[nodiscard]] JournalContents load_journal(
    const std::string& path, const CampaignFingerprint& expected,
    std::size_t fault_count);

/// Crash-safe journal writer.
///
/// Construction atomically (re)writes `path` — header plus, when `replay`
/// is given, one group record carrying everything already known — via a
/// temp file and rename, so an interrupted rewrite can never clobber a
/// valid journal. After that, append() adds one checksummed record per
/// retired group and flushes; it is thread-safe (the engine's retire
/// callback runs on worker threads).
class CampaignJournalWriter {
 public:
  CampaignJournalWriter(const std::string& path,
                        const CampaignFingerprint& fingerprint,
                        std::uint64_t fault_count, bool with_signatures,
                        const JournalContents* replay = nullptr);

  /// Appends one retired-group record (thread-safe, flushed).
  void append(std::span<const std::uint32_t> indices,
              std::span<const FaultOutcome> outcomes,
              std::span<const std::uint64_t> sigs);

  /// Appends the completion marker.
  void mark_complete();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Attach a telemetry sink (not owned; may be null): every subsequent
  /// append/mark_complete records a journal-flush span and a flush-latency
  /// histogram sample. The journaled-campaign drivers wire this from
  /// the engine's CampaignConfig::telemetry automatically.
  void set_telemetry(obs::TelemetryCollector* collector) noexcept {
    telemetry_ = collector;
  }

 private:
  void write_record(std::uint8_t type, const std::vector<std::uint8_t>& payload,
                    std::ostream& out);

  std::string path_;
  bool with_signatures_ = false;
  std::mutex mutex_;
  std::ofstream out_;
  obs::TelemetryCollector* telemetry_ = nullptr;
};

// ---- journaled campaigns ---------------------------------------------------

struct JournaledCampaignReport {
  CampaignResult result;                  ///< caller-order classifications
  std::vector<std::uint64_t> signatures;  ///< caller-aligned (may be empty)
  std::size_t replayed = 0;  ///< outcomes reused from the journal
  std::size_t graded = 0;    ///< faults actually (re-)simulated
  bool resumed = false;      ///< any journaled outcome was reused
  std::string warning;       ///< non-empty when a resume degraded
};

/// Runs (or resumes) a journaled SEU campaign.
///
/// With `resume` set and a journal at `journal_path` whose fingerprint and
/// every record checksum validate, the retired groups are replayed from
/// disk and only the remainder is simulated — bit-identical to an
/// uninterrupted run for any thread count, because per-fault outcomes are
/// independent of grouping (the engine's standing invariance). A missing
/// journal starts fresh; a corrupt, torn-beyond-recovery or
/// fingerprint-mismatched one degrades to a warned full re-run — never a
/// crash, never a silently wrong merge. Either way the journal at
/// `journal_path` is atomically rewritten up front and then appended to as
/// groups retire, so a SIGKILL at any point leaves a resumable file.
///
/// `observer`, when set, is called after each group's journal append with
/// the same caller-order indices/outcomes/signatures — the streaming hook
/// for progress reporting (and for the kill-and-resume test to slow the
/// campaign down deterministically).
[[nodiscard]] JournaledCampaignReport run_journaled_seu_campaign(
    ParallelFaultSimulator& sim, std::span<const Fault> faults,
    const std::string& journal_path, bool resume,
    const ParallelFaultSimulator::RetireCallback& observer = {});

// ---- cone-exact incremental re-grade ---------------------------------------

struct RegradeReport {
  CampaignResult result;                  ///< caller-order, on the NEW circuit
  std::vector<std::uint64_t> signatures;  ///< caller-aligned (may be empty)
  std::size_t reused = 0;       ///< classifications replayed from the journal
  std::size_t regraded = 0;     ///< faults re-simulated on the new circuit
  std::size_t dirty_faults = 0; ///< faults whose FF cone touches the edit
  bool full_rerun = false;      ///< degraded — nothing could be reused
  std::string warning;          ///< why it degraded (empty otherwise)
};

/// Cone-exact incremental re-grade after a netlist edit.
///
/// `new_sim` grades on the new circuit revision; `old_journal_path` holds a
/// journal written while grading `old_circuit` with the same testbench and
/// fault list. The circuits are diffed node-by-node (netlist/diff.h) and a
/// fault is re-run only when its flip-flop's fanout cone intersects the
/// edit influence in either revision — for every other fault the two
/// revisions provably evaluate identically along the entire cone, so the
/// journaled classification (and signature) is reused verbatim. The merged
/// result is bit-identical to grading the new circuit from scratch.
///
/// Degrades to a warned full re-run when the interfaces are incompatible
/// (different PI/FF/PO spaces), the journal is invalid or belongs to a
/// different (circuit-aside) campaign, or signatures are required but the
/// journal has none.
///
/// When `new_journal_path` is non-empty, a journal for the new revision is
/// written there (atomically seeded with the reused prefix, then appended
/// per retired group — crash-safe like run_journaled_seu_campaign); it may
/// equal `old_journal_path`.
[[nodiscard]] RegradeReport regrade_from_journal(
    ParallelFaultSimulator& new_sim, std::span<const Fault> faults,
    const Circuit& old_circuit, const std::string& old_journal_path,
    const std::string& new_journal_path = {},
    const ParallelFaultSimulator::RetireCallback& observer = {});

}  // namespace femu
