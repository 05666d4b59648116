#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.h"

namespace femu {

struct ArtifactCacheAccess;

/// Per-flip-flop structural fanout cones, closed over sequential feedback.
///
/// The cone of FF i is every node a divergence seeded in FF i's Q output can
/// ever reach: its transitive combinational fanout, plus — whenever a cone
/// member drives a DFF D pin — that DFF's Q node and *its* fanout, to a fixed
/// point. A faulty machine whose only difference from the golden machine is a
/// flipped FF i can therefore differ from golden **only** inside cone(i), on
/// every subsequent cycle; everything outside the cone is provably golden.
/// This is the structural invariant the cone-restricted campaign engine
/// exploits (the dynamic-slicing insight of Tuzov et al. applied to the
/// compiled kernel).
///
/// Cones are bitsets over node ids (one bit per circuit node), computed once
/// per circuit — O(FFs x edges) worst case, negligible next to any campaign.
class FanoutCones {
 public:
  /// Builds serially; `build_threads` is accepted and ignored until the
  /// callers that still pass it are gone (ROADMAP item 2(b)).
  explicit FanoutCones(const Circuit& circuit, unsigned build_threads = 1);

  [[nodiscard]] std::size_t num_ffs() const noexcept { return num_ffs_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Words per cone bitset (= ceil(num_nodes / 64)).
  [[nodiscard]] std::size_t words_per_cone() const noexcept {
    return words_per_cone_;
  }

  /// Cone of FF `ff` as a node-id bitset (bit n set <=> node n in the cone).
  /// The FF's own Q node is always a member.
  [[nodiscard]] std::span<const std::uint64_t> cone(std::size_t ff) const {
    return std::span<const std::uint64_t>(bits_).subspan(ff * words_per_cone_,
                                                         words_per_cone_);
  }

  /// Combinational gates inside cone(ff) — the per-fault work estimate.
  [[nodiscard]] std::size_t cone_gates(std::size_t ff) const {
    return cone_gates_[ff];
  }

  [[nodiscard]] static bool test(std::span<const std::uint64_t> mask,
                                 std::uint32_t node) noexcept {
    return ((mask[node >> 6] >> (node & 63)) & 1) != 0;
  }

  /// dst |= cone(ff). `dst` must hold words_per_cone() words.
  void union_into(std::span<std::uint64_t> dst, std::size_t ff) const;

 private:
  friend struct ArtifactCacheAccess;  // fault/artifact_cache.cpp (de)serialize
  FanoutCones() = default;

  std::size_t num_ffs_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t words_per_cone_ = 0;
  std::vector<std::uint64_t> bits_;  // num_ffs x words_per_cone
  std::vector<std::size_t> cone_gates_;
};

/// Per-combinational-gate structural fanout cones, closed over sequential
/// feedback — the SET analogue of FanoutCones.
///
/// The cone of gate g is every node a transient at g's output can ever
/// disturb: g itself, its transitive combinational fanout, and — whenever
/// that fanout reaches a DFF D pin — the per-FF *closed* cone of that
/// flip-flop. Because the per-FF cones are already closed over feedback, one
/// reverse-topological pass over the gates (cone(g) = {g} ∪ cones of g's
/// comb consumers ∪ FF cones of directly driven DFFs) yields closed
/// per-gate cones without any fixed-point iteration. The same invariants as
/// FanoutCones hold: a machine whose only deviation from golden is a
/// transient at g differs from golden only inside cone(g), forever, and the
/// cone of any FF inside cone(g) is a subset of cone(g).
///
/// Sites are indexed by ordinal (position in sites(), ascending node id);
/// site_index() maps a node id back to its ordinal.
class GateCones {
 public:
  GateCones(const Circuit& circuit, const FanoutCones& ff_cones);

  [[nodiscard]] std::size_t num_sites() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] std::size_t words_per_cone() const noexcept {
    return words_per_cone_;
  }

  /// Combinational gate node ids, ascending.
  [[nodiscard]] std::span<const NodeId> sites() const noexcept {
    return sites_;
  }

  /// Ordinal of `node` in sites(); kInvalidNode when not a gate.
  [[nodiscard]] std::uint32_t site_index(NodeId node) const {
    return site_index_[node];
  }

  /// Cone of site `ordinal` as a node-id bitset; the gate itself is always a
  /// member.
  [[nodiscard]] std::span<const std::uint64_t> cone(std::size_t ordinal) const {
    return std::span<const std::uint64_t>(bits_).subspan(
        ordinal * words_per_cone_, words_per_cone_);
  }

  /// Combinational gates inside cone(ordinal) — the per-fault work estimate.
  [[nodiscard]] std::size_t cone_gates(std::size_t ordinal) const {
    return cone_gates_[ordinal];
  }

  /// dst |= cone(ordinal). `dst` must hold words_per_cone() words.
  void union_into(std::span<std::uint64_t> dst, std::size_t ordinal) const;

 private:
  std::size_t words_per_cone_ = 0;
  std::vector<NodeId> sites_;
  std::vector<std::uint32_t> site_index_;  // node id -> ordinal
  std::vector<std::uint64_t> bits_;        // num_sites x words_per_cone
  std::vector<std::size_t> cone_gates_;
};

/// On-demand cone derivation — the memory-scalable replacement for the
/// eager FanoutCones / GateCones matrices.
///
/// Eager materialization stores one node-bitset per FF (and per gate site):
/// O(items x nodes) bits, quadratic-ish in circuit size — ~650 KB on b14
/// but hundreds of MB at 100k gates. The oracle instead keeps only the
/// forward reachability CSR (combinational fanin->consumer edges plus the
/// sequential D-driver -> DFF-Q edges that close cones over clock
/// boundaries, exactly the edge set the eager builders traverse): O(edges)
/// memory, built in one pass. A cone — or a whole lane-group's cone
/// *union* — is derived on demand by a single DFS that uses the caller's
/// accumulator bitset as its visited set, so deriving the union of k cones
/// costs one traversal of the union's edges, not k traversals: each union
/// member is visited once no matter how many roots reach it. Derived
/// cones are bit-identical to the eager builders' (same reachability over
/// the same edges; unit-tested).
///
/// The campaign engine caches derived unions per scheduled block (the
/// cone-affine schedule hands consecutive lane groups the same site block,
/// so a block's union is derived once when a worker first claims it) —
/// which is what keeps per-union DFS cost off the per-group hot path.
class ConeOracle {
 public:
  /// Builds serially; `build_threads` is accepted and ignored until the
  /// callers that still pass it are gone (ROADMAP item 2(b)).
  explicit ConeOracle(const Circuit& circuit, unsigned build_threads = 1);

  [[nodiscard]] std::size_t num_ffs() const noexcept { return num_ffs_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t words_per_cone() const noexcept {
    return words_per_cone_;
  }

  /// dst |= closed cone of FF `ff` (bit-identical to FanoutCones::cone(ff)).
  /// `dst` must hold words_per_cone() words; bits already set in `dst` act
  /// as the visited set, so repeated calls accumulate a union at the cost
  /// of one traversal of the union.
  void union_into_ff(std::span<std::uint64_t> dst, std::size_t ff) const;

  /// dst |= closed cone of combinational gate `gate` (bit-identical to
  /// GateCones::cone(site_index(gate))). Same accumulator semantics.
  void union_into_gate(std::span<std::uint64_t> dst, NodeId gate) const;

 private:
  friend struct ArtifactCacheAccess;  // fault/artifact_cache.cpp (de)serialize
  ConeOracle() = default;

  void dfs_from(std::span<std::uint64_t> dst, NodeId root) const;

  std::size_t num_ffs_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t words_per_cone_ = 0;
  std::vector<std::uint32_t> head_;  // CSR offsets, num_nodes + 1
  std::vector<std::uint32_t> adj_;   // comb fanout edges + D-driver -> Q
  std::vector<NodeId> dffs_;         // FF ordinal -> Q node
};

/// Per-node "next flip-flop" anchor labels: label[n] is the smallest FF
/// index among the DFFs whose D pin the value of node n can reach through
/// combinational logic only (num_dffs when it reaches none — dead or
/// output-only logic). One reverse-topological O(edges) pass; the basis of
/// the near-linear anchor-rank orderings below.
[[nodiscard]] std::vector<std::uint32_t> next_ff_labels(const Circuit& circuit);

/// Flip-flop ordering that clusters FFs with overlapping cones.
///
/// Greedy set-cover-style grouping: groups of `group_width` FFs are formed by
/// seeding with the smallest remaining cone and repeatedly adding the FF that
/// grows the group's cone union the least. The returned permutation lists the
/// groups back to back, so sorting a cycle-major fault list by this order
/// makes lane groups cone-affine: each group's union cone — the work the
/// differential engine evaluates per cycle — stays close to a single cone
/// instead of the whole circuit.
///
/// The greedy is O(FFs² x cone words) — fine for hundreds of FFs,
/// intractable for tens of thousands. The campaign engine runs it only on
/// circuits within CampaignConfig::greedy_order_cap FFs; elsewhere prefer
/// the capped overload below.
[[nodiscard]] std::vector<std::uint32_t> cone_affine_ff_order(
    const FanoutCones& cones, std::size_t group_width);

/// cone_affine_ff_order with a stall guard: when the FF count exceeds
/// `greedy_cap` the quadratic greedy is skipped entirely and the
/// near-linear anchor-rank ordering (cone_affine_ff_order_anchor) is
/// returned instead. `greedy_cap == 0` means "never run the greedy".
[[nodiscard]] std::vector<std::uint32_t> cone_affine_ff_order(
    const Circuit& circuit, const FanoutCones& cones, std::size_t group_width,
    std::size_t greedy_cap);

/// Near-linear flip-flop ordering by anchor rank — the technique
/// cone_affine_site_order uses, ported to FFs. Each FF is keyed by its
/// *anchor*: the smallest-index flip-flop its Q output feeds through
/// combinational logic (next_ff_labels). FFs feeding the same downstream
/// register block have heavily overlapping closed cones, so sorting by
/// (anchor, Q node id) lays cone-affine FFs back to back without ever
/// materializing a cone. O(edges + FFs log FFs); the overload taking
/// `labels` (a next_ff_labels result) skips the label pass so one pass can
/// serve several orderings.
[[nodiscard]] std::vector<std::uint32_t> cone_affine_ff_order_anchor(
    const Circuit& circuit);
[[nodiscard]] std::vector<std::uint32_t> cone_affine_ff_order_anchor(
    const Circuit& circuit, std::span<const std::uint32_t> labels);

/// Site ordering for SET campaigns, clustering gates whose transients latch
/// into the same flip-flops.
///
/// The greedy union-growth heuristic behind cone_affine_ff_order is
/// quadratic in the item count — fine for hundreds of FFs, too slow for
/// thousands of gate sites. Instead each site is keyed by its *anchor*: the
/// best-ranked flip-flop (under `ff_rank`, the per-FF affinity rank) whose Q
/// node lies inside the site's cone. Gates feeding the same FF block share
/// downstream cones, so sorting by (anchor rank, cone size, node id) lays
/// sites with near-identical cone unions back to back; sites whose cone
/// reaches no flip-flop (output-only or dead logic) sort last. Returns a
/// permutation of site ordinals.
[[nodiscard]] std::vector<std::uint32_t> cone_affine_site_order(
    const GateCones& gates, const Circuit& circuit,
    std::span<const std::uint32_t> ff_rank);

/// Near-linear SET site ordering for on-demand-cone campaigns: like
/// cone_affine_site_order, but the anchor comes from next_ff_labels (the
/// first sequential frontier) instead of a scan over materialized per-site
/// cones, so no GateCones matrix is ever built. Returns the affinity rank
/// *per node id* (rank for comb gates, undefined for other nodes), ready
/// for the campaign scheduler. Sites reaching no flip-flop sort last. The
/// `labels` overload reuses a precomputed next_ff_labels result.
[[nodiscard]] std::vector<std::uint32_t> cone_affine_site_rank_anchor(
    const Circuit& circuit, std::span<const std::uint32_t> ff_rank);
[[nodiscard]] std::vector<std::uint32_t> cone_affine_site_rank_anchor(
    const Circuit& circuit, std::span<const std::uint32_t> ff_rank,
    std::span<const std::uint32_t> labels);

}  // namespace femu
