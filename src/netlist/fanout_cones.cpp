#include "netlist/fanout_cones.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.h"

namespace femu {

namespace {

void set_bit(std::span<std::uint64_t> mask, std::uint32_t node) noexcept {
  mask[node >> 6] |= std::uint64_t{1} << (node & 63);
}

/// Two-pass CSR forward adjacency shared by the cone builders. The edge
/// enumerator is called twice — once to count, once to fill — with a
/// callback taking (from, to).
struct ForwardCsr {
  std::vector<std::uint32_t> head;  // num_nodes + 1 offsets
  std::vector<std::uint32_t> adj;

  template <typename ForEachEdge>
  void build(std::size_t num_nodes, const ForEachEdge& for_each_edge) {
    head.assign(num_nodes + 1, 0);
    for_each_edge([&](NodeId from, NodeId) { ++head[from + 1]; });
    for (std::size_t i = 1; i <= num_nodes; ++i) head[i] += head[i - 1];
    adj.resize(head[num_nodes]);
    std::vector<std::uint32_t> fill(head.begin(), head.end() - 1);
    for_each_edge([&](NodeId from, NodeId to) { adj[fill[from]++] = to; });
  }
};

/// Builds the closed-cone reachability CSR — combinational fanin->consumer
/// edges plus the sequential D-driver -> DFF-Q edges that close cones over
/// clock boundaries. One shared definition for FanoutCones and ConeOracle:
/// their cones are bit-identical *by construction* because they traverse
/// the same edge set, and a future edge-kind change cannot drift between
/// the eager and on-demand builders.
void build_reachability_csr(const Circuit& circuit, ForwardCsr& csr) {
  const std::size_t num_nodes = circuit.node_count();
  const std::vector<NodeId> drivers = circuit.dff_drivers();
  csr.build(num_nodes, [&](const auto& edge) {
    for (NodeId id = 0; id < num_nodes; ++id) {
      for (const NodeId f : circuit.fanins(id)) edge(f, id);
    }
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      edge(drivers[i], circuit.dffs()[i]);
    }
  });
}

/// Combinational gates inside `mask` — wordwise popcount against the
/// comb-node bitset.
std::size_t count_cone_gates(std::span<const std::uint64_t> mask,
                             std::span<const std::uint64_t> comb) {
  std::size_t gates = 0;
  for (std::size_t w = 0; w < mask.size(); ++w) {
    gates += static_cast<std::size_t>(std::popcount(mask[w] & comb[w]));
  }
  return gates;
}

}  // namespace

// build_threads is accepted and ignored: construction is serial (ROADMAP
// item 2(b) drops the parameter).
FanoutCones::FanoutCones(const Circuit& circuit,
                         [[maybe_unused]] unsigned build_threads)
    : num_ffs_(circuit.num_dffs()),
      num_nodes_(circuit.node_count()),
      words_per_cone_((circuit.node_count() + 63) / 64),
      bits_(circuit.num_dffs() * ((circuit.node_count() + 63) / 64), 0),
      cone_gates_(circuit.num_dffs(), 0) {
  circuit.validate();

  ForwardCsr csr;
  build_reachability_csr(circuit, csr);
  const std::vector<std::uint32_t>& head = csr.head;
  const std::vector<std::uint32_t>& adj = csr.adj;

  // Combinational-node bitset: cone gate counts are then a wordwise
  // popcount of (cone & comb) instead of a full node scan per FF.
  std::vector<std::uint64_t> comb(words_per_cone_, 0);
  for (NodeId id = 0; id < num_nodes_; ++id) {
    if (is_comb_cell(circuit.type(id))) set_bit(comb, id);
  }

  // One closure DFS per FF, each writing its own bitset row.
  std::vector<std::uint32_t> stack;
  for (std::size_t ff = 0; ff < num_ffs_; ++ff) {
    const auto mask = std::span<std::uint64_t>(bits_).subspan(
        ff * words_per_cone_, words_per_cone_);
    const NodeId root = circuit.dffs()[ff];
    set_bit(mask, root);
    stack.assign(1, root);
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      for (std::uint32_t e = head[v]; e < head[v + 1]; ++e) {
        const std::uint32_t w = adj[e];
        if (!test(mask, w)) {
          set_bit(mask, w);
          stack.push_back(w);
        }
      }
    }
    cone_gates_[ff] = count_cone_gates(mask, comb);
  }
}

void FanoutCones::union_into(std::span<std::uint64_t> dst,
                             std::size_t ff) const {
  FEMU_CHECK(ff < num_ffs_, "ff ", ff, " out of range");
  const auto src = cone(ff);
  for (std::size_t w = 0; w < words_per_cone_; ++w) dst[w] |= src[w];
}

GateCones::GateCones(const Circuit& circuit, const FanoutCones& ff_cones)
    : words_per_cone_(ff_cones.words_per_cone()),
      site_index_(circuit.node_count(), kInvalidNode) {
  FEMU_CHECK(ff_cones.num_nodes() == circuit.node_count(),
             "FanoutCones built for a different circuit");
  const std::size_t num_nodes = circuit.node_count();
  sites_.reserve(circuit.num_gates());
  for (NodeId id = 0; id < num_nodes; ++id) {
    if (is_comb_cell(circuit.type(id))) {
      site_index_[id] = static_cast<std::uint32_t>(sites_.size());
      sites_.push_back(id);
    }
  }
  bits_.assign(sites_.size() * words_per_cone_, 0);
  cone_gates_.assign(sites_.size(), 0);

  // DFFs directly driven by each node (D-driver -> FF index).
  const std::vector<NodeId> drivers = circuit.dff_drivers();
  std::vector<std::vector<std::uint32_t>> driven_ffs(num_nodes);
  for (std::size_t ff = 0; ff < drivers.size(); ++ff) {
    driven_ffs[drivers[ff]].push_back(static_cast<std::uint32_t>(ff));
  }

  std::vector<std::uint64_t> comb(words_per_cone_, 0);
  for (const NodeId id : sites_) set_bit(comb, id);

  // Forward adjacency over combinational consumers only (the sequential
  // D-driver -> Q edges are covered by the closed FF cones above).
  ForwardCsr csr;
  csr.build(num_nodes, [&](const auto& edge) {
    for (const NodeId c : sites_) {
      for (const NodeId f : circuit.fanins(c)) edge(f, c);
    }
  });
  const std::vector<std::uint32_t>& head = csr.head;
  const std::vector<std::uint32_t>& adj = csr.adj;

  // Node-id order is topological, so descending order visits every gate
  // after all of its combinational consumers — cone(g) is one bitset union
  // over the consumers' (already final) cones plus the closed FF cones of
  // directly driven flip-flops. O(edges x words), no fixed point needed.
  for (std::size_t s = sites_.size(); s-- > 0;) {
    const NodeId g = sites_[s];
    const auto mask =
        std::span<std::uint64_t>(bits_).subspan(s * words_per_cone_,
                                                words_per_cone_);
    set_bit(mask, g);
    for (const std::uint32_t ff : driven_ffs[g]) {
      ff_cones.union_into(mask, ff);
    }
    for (std::uint32_t e = head[g]; e < head[g + 1]; ++e) {
      const auto src = cone(site_index_[adj[e]]);
      for (std::size_t w = 0; w < words_per_cone_; ++w) mask[w] |= src[w];
    }
    cone_gates_[s] = count_cone_gates(mask, comb);
  }
}

void GateCones::union_into(std::span<std::uint64_t> dst,
                           std::size_t ordinal) const {
  FEMU_CHECK(ordinal < sites_.size(), "site ", ordinal, " out of range");
  const auto src = cone(ordinal);
  for (std::size_t w = 0; w < words_per_cone_; ++w) dst[w] |= src[w];
}

// build_threads is ignored, as in FanoutCones.
ConeOracle::ConeOracle(const Circuit& circuit,
                       [[maybe_unused]] unsigned build_threads)
    : num_ffs_(circuit.num_dffs()),
      num_nodes_(circuit.node_count()),
      words_per_cone_((circuit.node_count() + 63) / 64),
      dffs_(circuit.dffs().begin(), circuit.dffs().end()) {
  circuit.validate();
  // Same edge set as FanoutCones (build_reachability_csr is the single
  // shared definition), so reachability from any root is bit-identical to
  // the eager builders' cones.
  ForwardCsr csr;
  build_reachability_csr(circuit, csr);
  head_ = std::move(csr.head);
  adj_ = std::move(csr.adj);
}

void ConeOracle::dfs_from(std::span<std::uint64_t> dst, NodeId root) const {
  // The caller's accumulator doubles as the visited set: nodes already in
  // the union are never re-expanded, so accumulating k cones costs one
  // traversal of the union's edges. The stack is per-thread scratch (the
  // campaign workers call this concurrently on a shared oracle).
  thread_local std::vector<std::uint32_t> stack;
  if (FanoutCones::test(dst, root)) return;
  set_bit(dst, root);
  stack.assign(1, root);
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (std::uint32_t e = head_[v]; e < head_[v + 1]; ++e) {
      const std::uint32_t w = adj_[e];
      if (!FanoutCones::test(dst, w)) {
        set_bit(dst, w);
        stack.push_back(w);
      }
    }
  }
}

void ConeOracle::union_into_ff(std::span<std::uint64_t> dst,
                               std::size_t ff) const {
  FEMU_CHECK(ff < num_ffs_, "ff ", ff, " out of range");
  dfs_from(dst, dffs_[ff]);
}

void ConeOracle::union_into_gate(std::span<std::uint64_t> dst,
                                 NodeId gate) const {
  FEMU_CHECK(gate < num_nodes_, "gate ", gate, " out of range");
  dfs_from(dst, gate);
}

std::vector<std::uint32_t> next_ff_labels(const Circuit& circuit) {
  const std::size_t num_nodes = circuit.node_count();
  const std::uint32_t no_ff = static_cast<std::uint32_t>(circuit.num_dffs());
  std::vector<std::uint32_t> labels(num_nodes, no_ff);
  // Direct D-pin drives first (a D-driver may have a higher node id than
  // the DFF's Q node — feedback — so these cannot ride the topological
  // sweep below).
  const std::vector<NodeId> drivers = circuit.dff_drivers();
  for (std::size_t ff = 0; ff < drivers.size(); ++ff) {
    labels[drivers[ff]] =
        std::min(labels[drivers[ff]], static_cast<std::uint32_t>(ff));
  }
  // Node ids are topological, so a descending sweep visits every
  // combinational reader before its fanins: when node v is visited its
  // label is final and propagates to everything it reads.
  for (NodeId v = static_cast<NodeId>(num_nodes); v-- > 0;) {
    if (!is_comb_cell(circuit.type(v))) continue;
    for (const NodeId f : circuit.fanins(v)) {
      labels[f] = std::min(labels[f], labels[v]);
    }
  }
  return labels;
}

std::vector<std::uint32_t> cone_affine_ff_order_anchor(
    const Circuit& circuit, std::span<const std::uint32_t> labels) {
  FEMU_CHECK(labels.size() == circuit.node_count(), "labels size ",
             labels.size(), " != node count ", circuit.node_count());
  const std::size_t n = circuit.num_dffs();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  // (anchor, Q node id): FFs feeding the same downstream register block
  // cluster together; node-id ties keep structural locality inside a block.
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::pair{labels[circuit.dffs()[a]], circuit.dffs()[a]} <
           std::pair{labels[circuit.dffs()[b]], circuit.dffs()[b]};
  });
  return order;
}

std::vector<std::uint32_t> cone_affine_ff_order_anchor(const Circuit& circuit) {
  return cone_affine_ff_order_anchor(circuit, next_ff_labels(circuit));
}

std::vector<std::uint32_t> cone_affine_ff_order(const Circuit& circuit,
                                                const FanoutCones& cones,
                                                std::size_t group_width,
                                                std::size_t greedy_cap) {
  if (cones.num_ffs() > greedy_cap) {
    return cone_affine_ff_order_anchor(circuit);
  }
  return cone_affine_ff_order(cones, group_width);
}

std::vector<std::uint32_t> cone_affine_site_rank_anchor(
    const Circuit& circuit, std::span<const std::uint32_t> ff_rank,
    std::span<const std::uint32_t> labels) {
  FEMU_CHECK(ff_rank.size() == circuit.num_dffs(), "ff_rank size ",
             ff_rank.size(), " != FF count ", circuit.num_dffs());
  FEMU_CHECK(labels.size() == circuit.node_count(), "labels size ",
             labels.size(), " != node count ", circuit.node_count());
  const std::uint32_t no_ff = static_cast<std::uint32_t>(circuit.num_dffs());
  std::vector<NodeId> sites;
  sites.reserve(circuit.num_gates());
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    if (is_comb_cell(circuit.type(id))) sites.push_back(id);
  }
  std::sort(sites.begin(), sites.end(), [&](NodeId a, NodeId b) {
    const std::uint32_t ra = labels[a] == no_ff ? no_ff : ff_rank[labels[a]];
    const std::uint32_t rb = labels[b] == no_ff ? no_ff : ff_rank[labels[b]];
    return std::pair{ra, a} < std::pair{rb, b};
  });
  std::vector<std::uint32_t> rank(circuit.node_count(), 0);
  for (std::size_t r = 0; r < sites.size(); ++r) {
    rank[sites[r]] = static_cast<std::uint32_t>(r);
  }
  return rank;
}

std::vector<std::uint32_t> cone_affine_site_rank_anchor(
    const Circuit& circuit, std::span<const std::uint32_t> ff_rank) {
  return cone_affine_site_rank_anchor(circuit, ff_rank,
                                      next_ff_labels(circuit));
}

std::vector<std::uint32_t> cone_affine_ff_order(const FanoutCones& cones,
                                                std::size_t group_width) {
  FEMU_CHECK(group_width > 0, "group_width must be positive");
  const std::size_t n = cones.num_ffs();
  const std::size_t words = cones.words_per_cone();
  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<char> taken(n, 0);
  std::vector<std::uint64_t> group(words, 0);

  // Cost of adding ff to the current group: nodes its cone adds to the union.
  const auto added_nodes = [&](std::size_t ff) {
    const auto c = cones.cone(ff);
    std::size_t add = 0;
    for (std::size_t w = 0; w < words; ++w) {
      add += static_cast<std::size_t>(std::popcount(c[w] & ~group[w]));
    }
    return add;
  };

  // The first group takes the remainder (n mod width) so that every later
  // group is exactly group_width FFs: a cycle-major fault list sorted by
  // this order then chunks into lane groups that match the greedy groups
  // one-to-one, and the one partial (straddling) group carries the
  // smallest cones — the cheapest place to pay for partial occupancy.
  std::size_t this_group_width =
      n % group_width != 0 ? n % group_width : group_width;
  for (std::size_t placed = 0; placed < n;) {
    // Seed each group with the smallest untaken cone.
    std::size_t seed = n;
    for (std::size_t ff = 0; ff < n; ++ff) {
      if (taken[ff]) continue;
      if (seed == n || cones.cone_gates(ff) < cones.cone_gates(seed)) {
        seed = ff;
      }
    }
    std::fill(group.begin(), group.end(), 0);
    cones.union_into(group, seed);
    taken[seed] = 1;
    order.push_back(static_cast<std::uint32_t>(seed));
    ++placed;

    for (std::size_t k = 1; k < this_group_width && placed < n;
         ++k, ++placed) {
      std::size_t best = n;
      std::size_t best_add = std::numeric_limits<std::size_t>::max();
      for (std::size_t ff = 0; ff < n; ++ff) {
        if (taken[ff]) continue;
        const std::size_t add = added_nodes(ff);
        if (add < best_add) {
          best_add = add;
          best = ff;
        }
      }
      cones.union_into(group, best);
      taken[best] = 1;
      order.push_back(static_cast<std::uint32_t>(best));
    }
    this_group_width = group_width;
  }
  return order;
}

std::vector<std::uint32_t> cone_affine_site_order(
    const GateCones& gates, const Circuit& circuit,
    std::span<const std::uint32_t> ff_rank) {
  FEMU_CHECK(ff_rank.size() == circuit.num_dffs(),
             "ff_rank size ", ff_rank.size(), " != FF count ",
             circuit.num_dffs());
  const std::size_t n = gates.num_sites();
  const std::uint32_t no_anchor =
      static_cast<std::uint32_t>(circuit.num_dffs());
  std::vector<std::uint64_t> keys(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto cone = gates.cone(s);
    std::uint32_t anchor = no_anchor;
    for (std::size_t ff = 0; ff < circuit.num_dffs(); ++ff) {
      if (((cone[circuit.dffs()[ff] >> 6] >> (circuit.dffs()[ff] & 63)) & 1) !=
              0 &&
          ff_rank[ff] < anchor) {
        anchor = ff_rank[ff];
      }
    }
    // (anchor, cone size) packed; ties broken by ordinal in the sort below
    // so equal keys keep node-id locality.
    keys[s] = (std::uint64_t{anchor} << 32) |
              static_cast<std::uint32_t>(
                  std::min<std::size_t>(gates.cone_gates(s), 0xffffffffu));
  }
  std::vector<std::uint32_t> order(n);
  for (std::size_t s = 0; s < n; ++s) {
    order[s] = static_cast<std::uint32_t>(s);
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::pair{keys[a], a} < std::pair{keys[b], b};
  });
  return order;
}

}  // namespace femu
