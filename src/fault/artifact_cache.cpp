#include "fault/artifact_cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "fault/journal.h"

namespace femu {

namespace {

constexpr char kFileMagic[8] = {'F', 'E', 'M', 'U', 'A', 'R', 'T', '\0'};
constexpr std::uint32_t kArtifactVersion = 1;

using Payload = std::vector<std::uint8_t>;

template <typename T>
void put(Payload& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof v);
  std::memcpy(out.data() + at, &v, sizeof v);
}

template <typename T>
void put_vec(Payload& out, std::span<const T> v) {
  put<std::uint64_t>(out, v.size());
  // memcpy from an empty span's null data() is undefined even at length 0.
  if (v.empty()) return;
  const std::size_t at = out.size();
  out.resize(at + v.size() * sizeof(T));
  std::memcpy(out.data() + at, v.data(), v.size() * sizeof(T));
}

void put_bitvec(Payload& out, const BitVec& v) {
  put<std::uint64_t>(out, v.size());
  const std::span<const std::uint64_t> words = v.words();
  if (words.empty()) return;
  const std::size_t at = out.size();
  out.resize(at + words.size() * sizeof(std::uint64_t));
  std::memcpy(out.data() + at, words.data(),
              words.size() * sizeof(std::uint64_t));
}

/// Bounds-checked cursor over the loaded payload — every take fails soft
/// (the degradation contract forbids throwing on bad content).
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  [[nodiscard]] bool take(void* out, std::size_t len) {
    if (size - pos < len) {
      return false;
    }
    if (len == 0) return true;
    std::memcpy(out, data + pos, len);
    pos += len;
    return true;
  }
  template <typename T>
  [[nodiscard]] bool get(T& v) {
    return take(&v, sizeof v);
  }
  /// Length-prefixed POD vector; the length is implicitly bounded by the
  /// remaining payload, so a corrupt count can never drive a giant alloc.
  template <typename T>
  [[nodiscard]] bool get_vec(std::vector<T>& out) {
    std::uint64_t n = 0;
    if (!get(n) || n > (size - pos) / sizeof(T)) {
      return false;
    }
    out.resize(static_cast<std::size_t>(n));
    return take(out.data(), out.size() * sizeof(T));
  }
  [[nodiscard]] bool get_bitvec(BitVec& out) {
    std::uint64_t bits = 0;
    if (!get(bits) || bits / 64 > (size - pos) / sizeof(std::uint64_t)) {
      return false;
    }
    const std::size_t words =
        (static_cast<std::size_t>(bits) + 63) / BitVec::kWordBits;
    scratch_words.resize(words);
    if (!take(scratch_words.data(), words * sizeof(std::uint64_t))) {
      return false;
    }
    const std::size_t tail = bits % BitVec::kWordBits;
    if (tail != 0 && words != 0 &&
        (scratch_words.back() >> tail) != 0) {
      return false;  // junk beyond size() — a well-formed writer masks it
    }
    out.assign_words(static_cast<std::size_t>(bits), scratch_words);
    return true;
  }
  std::vector<std::uint64_t> scratch_words{};
};

void put_trace(Payload& out, const GoldenTrace& trace) {
  put<std::uint64_t>(out, trace.states.size());
  for (const BitVec& v : trace.states) put_bitvec(out, v);
  put<std::uint64_t>(out, trace.outputs.size());
  for (const BitVec& v : trace.outputs) put_bitvec(out, v);
}

[[nodiscard]] bool take_trace(Reader& r, const Circuit& circuit,
                              GoldenTrace& trace) {
  std::uint64_t n = 0;
  if (!r.get(n)) return false;
  trace.states.resize(static_cast<std::size_t>(n));
  for (BitVec& v : trace.states) {
    if (!r.get_bitvec(v) || v.size() != circuit.num_dffs()) return false;
  }
  if (!r.get(n)) return false;
  trace.outputs.resize(static_cast<std::size_t>(n));
  for (BitVec& v : trace.outputs) {
    if (!r.get_bitvec(v) || v.size() != circuit.num_outputs()) return false;
  }
  return trace.states.size() == trace.outputs.size() + 1;
}

void put_slot_trace(Payload& out, const GoldenSlotTrace& trace) {
  put<std::uint64_t>(out, trace.num_slots);
  put<std::uint64_t>(out, trace.cycles.size());
  for (const BitVec& v : trace.cycles) put_bitvec(out, v);
}

[[nodiscard]] bool take_slot_trace(Reader& r, const Circuit& circuit,
                                   GoldenSlotTrace& trace) {
  std::uint64_t num_slots = 0;
  std::uint64_t cycles = 0;
  if (!r.get(num_slots) || !r.get(cycles) ||
      num_slots != circuit.node_count()) {
    return false;
  }
  trace.num_slots = static_cast<std::size_t>(num_slots);
  trace.cycles.resize(static_cast<std::size_t>(cycles));
  for (BitVec& v : trace.cycles) {
    if (!r.get_bitvec(v) || v.size() != trace.num_slots) return false;
  }
  return true;
}

}  // namespace

/// Friend of CompiledKernel / FanoutCones / ConeOracle: the only code that
/// reads or rebuilds their private representation for serialization.
struct ArtifactCacheAccess {
  static void save_kernel(Payload& out, const CompiledKernel& k) {
    put<std::uint64_t>(out, k.num_slots_);
    put<std::uint64_t>(out, k.program_.size());
    for (const CompiledKernel::Instr& in : k.program_) {
      // Field-wise (the struct has tail padding, which would leak
      // indeterminate bytes into the checksum).
      put<std::uint32_t>(out, in.dest);
      put<std::uint32_t>(out, in.a);
      put<std::uint32_t>(out, in.b);
      put<std::uint32_t>(out, in.c);
      put<std::uint8_t>(out, static_cast<std::uint8_t>(in.op));
      put<std::uint8_t>(out, in.neg);
    }
    put_vec<std::uint32_t>(out, k.levels_);
    put_vec<std::uint32_t>(out, k.input_slots_);
    put_vec<std::uint32_t>(out, k.dff_slots_);
    put_vec<std::uint32_t>(out, k.dff_d_slots_);
    put_vec<std::uint32_t>(out, k.output_slots_);
    put_vec<std::uint32_t>(out, k.const1_slots_);
    put<std::uint64_t>(out, k.opt_stats_.raw_instrs);
    put<std::uint64_t>(out, k.opt_stats_.opt_instrs);
    put<std::uint64_t>(out, k.opt_stats_.absorbed);
    put<std::uint64_t>(out, k.opt_stats_.folded);
    put<std::uint64_t>(out, k.opt_stats_.dead);
    put<std::uint64_t>(out, k.opt_stats_.preserved);
  }

  [[nodiscard]] static bool load_kernel(
      Reader& r, const Circuit& circuit,
      std::shared_ptr<const CompiledKernel>& out) {
    std::shared_ptr<CompiledKernel> k(new CompiledKernel());
    std::uint64_t num_slots = 0;
    std::uint64_t n_instr = 0;
    if (!r.get(num_slots) || num_slots != circuit.node_count() ||
        !r.get(n_instr) || n_instr > num_slots) {
      return false;
    }
    k->num_slots_ = static_cast<std::size_t>(num_slots);
    k->program_.resize(static_cast<std::size_t>(n_instr));
    for (CompiledKernel::Instr& in : k->program_) {
      std::uint8_t op = 0;
      if (!r.get(in.dest) || !r.get(in.a) || !r.get(in.b) || !r.get(in.c) ||
          !r.get(op) || !r.get(in.neg) || in.dest >= num_slots ||
          in.a >= num_slots || in.b >= num_slots || in.c >= num_slots ||
          !is_comb_cell(static_cast<CellType>(op))) {
        return false;
      }
      in.op = static_cast<CellType>(op);
    }
    const auto bounded = [&](const std::vector<std::uint32_t>& v,
                             std::size_t expect) {
      if (v.size() != expect) return false;
      for (const std::uint32_t s : v) {
        if (s >= num_slots) return false;
      }
      return true;
    };
    // A level never exceeds the instruction count (finish_program sizes a
    // table by the largest one).
    const auto levels_ok = [&]() {
      for (const std::uint32_t l : k->levels_) {
        if (l > n_instr) return false;
      }
      return true;
    };
    if (!r.get_vec(k->levels_) || k->levels_.size() != num_slots ||
        !levels_ok() ||
        !r.get_vec(k->input_slots_) ||
        !bounded(k->input_slots_, circuit.num_inputs()) ||
        !r.get_vec(k->dff_slots_) ||
        !bounded(k->dff_slots_, circuit.num_dffs()) ||
        !r.get_vec(k->dff_d_slots_) ||
        !bounded(k->dff_d_slots_, circuit.num_dffs()) ||
        !r.get_vec(k->output_slots_) ||
        !bounded(k->output_slots_, circuit.num_outputs()) ||
        !r.get_vec(k->const1_slots_) ||
        !bounded(k->const1_slots_, k->const1_slots_.size())) {
      return false;
    }
    std::uint64_t stats[6];
    for (std::uint64_t& s : stats) {
      if (!r.get(s)) return false;
    }
    k->opt_stats_ = {static_cast<std::size_t>(stats[0]),
                     static_cast<std::size_t>(stats[1]),
                     static_cast<std::size_t>(stats[2]),
                     static_cast<std::size_t>(stats[3]),
                     static_cast<std::size_t>(stats[4]),
                     static_cast<std::size_t>(stats[5])};
    k->circuit_ = &circuit;
    k->finish_program();  // run table and levelized order are not stored
    out = std::move(k);
    return true;
  }

  static void save_eager(Payload& out, const FanoutCones& c) {
    put<std::uint64_t>(out, c.num_ffs_);
    put<std::uint64_t>(out, c.num_nodes_);
    put<std::uint64_t>(out, c.words_per_cone_);
    put_vec<std::uint64_t>(out, c.bits_);
    put<std::uint64_t>(out, c.cone_gates_.size());
    for (const std::size_t g : c.cone_gates_) {
      put<std::uint64_t>(out, g);
    }
  }

  [[nodiscard]] static bool load_eager(Reader& r, const Circuit& circuit,
                                       std::unique_ptr<FanoutCones>& out) {
    std::unique_ptr<FanoutCones> c(new FanoutCones());
    std::uint64_t num_ffs = 0;
    std::uint64_t num_nodes = 0;
    std::uint64_t words = 0;
    if (!r.get(num_ffs) || !r.get(num_nodes) || !r.get(words) ||
        num_ffs != circuit.num_dffs() || num_nodes != circuit.node_count() ||
        words != (circuit.node_count() + 63) / 64) {
      return false;
    }
    c->num_ffs_ = static_cast<std::size_t>(num_ffs);
    c->num_nodes_ = static_cast<std::size_t>(num_nodes);
    c->words_per_cone_ = static_cast<std::size_t>(words);
    if (!r.get_vec(c->bits_) || c->bits_.size() != num_ffs * words) {
      return false;
    }
    std::uint64_t n_gates = 0;
    if (!r.get(n_gates) || n_gates != num_ffs) {
      return false;
    }
    c->cone_gates_.resize(static_cast<std::size_t>(n_gates));
    for (std::size_t& g : c->cone_gates_) {
      std::uint64_t v = 0;
      if (!r.get(v)) return false;
      g = static_cast<std::size_t>(v);
    }
    out = std::move(c);
    return true;
  }

  static void save_oracle(Payload& out, const ConeOracle& o) {
    put<std::uint64_t>(out, o.num_ffs_);
    put<std::uint64_t>(out, o.num_nodes_);
    put<std::uint64_t>(out, o.words_per_cone_);
    put_vec<std::uint32_t>(out, o.head_);
    put_vec<std::uint32_t>(out, o.adj_);
    put_vec<NodeId>(out, o.dffs_);
  }

  [[nodiscard]] static bool load_oracle(Reader& r, const Circuit& circuit,
                                        std::unique_ptr<ConeOracle>& out) {
    std::unique_ptr<ConeOracle> o(new ConeOracle());
    std::uint64_t num_ffs = 0;
    std::uint64_t num_nodes = 0;
    std::uint64_t words = 0;
    if (!r.get(num_ffs) || !r.get(num_nodes) || !r.get(words) ||
        num_ffs != circuit.num_dffs() || num_nodes != circuit.node_count() ||
        words != (circuit.node_count() + 63) / 64) {
      return false;
    }
    o->num_ffs_ = static_cast<std::size_t>(num_ffs);
    o->num_nodes_ = static_cast<std::size_t>(num_nodes);
    o->words_per_cone_ = static_cast<std::size_t>(words);
    if (!r.get_vec(o->head_) || o->head_.size() != num_nodes + 1 ||
        !r.get_vec(o->adj_) || !r.get_vec(o->dffs_) ||
        o->dffs_.size() != num_ffs) {
      return false;
    }
    if (o->head_.front() != 0 || o->head_.back() != o->adj_.size()) {
      return false;
    }
    for (std::size_t v = 0; v < num_nodes; ++v) {
      if (o->head_[v] > o->head_[v + 1]) return false;
    }
    for (const std::uint32_t w : o->adj_) {
      if (w >= num_nodes) return false;
    }
    for (const NodeId d : o->dffs_) {
      if (d >= num_nodes) return false;
    }
    out = std::move(o);
    return true;
  }
};

std::uint64_t ArtifactCacheKey::combined() const {
  Fnv64 h;
  h.str("artifact-cache:v1");
  h.u64(circuit);
  h.u64(testbench);
  h.u64(config_rule);
  h.u64(optimizer);
  h.u64(shape);
  return h.digest();
}

std::string ArtifactCacheKey::file_name() const {
  char buf[40];
  std::snprintf(buf, sizeof buf, "femu-%016llx.artifact",
                static_cast<unsigned long long>(combined()));
  return buf;
}

std::uint64_t optimizer_pipeline_hash(bool optimize,
                                      std::span<const NodeId> preserve) {
  Fnv64 h;
  // Bump the tag whenever an optimizer pass changes codegen: a cached
  // optimized kernel from an older pipeline must read as a different key.
  h.str("kernel-opt:absorb-fold-dce:v1");
  h.u8(optimize ? 1 : 0);
  h.u64(preserve.size());
  for (const NodeId n : preserve) h.u32(n);
  return h.digest();
}

std::uint64_t artifact_shape_hash(bool on_demand_cones, bool need_cones,
                                  bool slot_trace, bool opt_kernel,
                                  std::uint64_t order_group_width,
                                  std::uint64_t order_greedy_cap) {
  Fnv64 h;
  h.str("artifact-shape:v1");
  h.u8(on_demand_cones ? 1 : 0);
  h.u8(need_cones ? 1 : 0);
  h.u8(slot_trace ? 1 : 0);
  h.u8(opt_kernel ? 1 : 0);
  h.u64(order_group_width);
  h.u64(order_greedy_cap);
  return h.digest();
}

const char* artifact_cache_status_name(ArtifactCacheStatus s) noexcept {
  switch (s) {
    case ArtifactCacheStatus::kHit:
      return "hit";
    case ArtifactCacheStatus::kMiss:
      return "miss";
    case ArtifactCacheStatus::kCorrupt:
      return "corrupt";
    case ArtifactCacheStatus::kVersionSkew:
      return "version-skew";
    case ArtifactCacheStatus::kMismatch:
      return "fingerprint-mismatch";
  }
  return "unknown";
}

ArtifactLoadResult load_artifacts(const std::string& dir,
                                  const ArtifactCacheKey& key,
                                  const Circuit& circuit) {
  ArtifactLoadResult res;
  const std::string path = dir + "/" + key.file_name();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return res;  // kMiss — a cold cache is not a fault
  }
  const std::streamoff file_size = in.tellg();
  std::vector<std::uint8_t> blob(
      file_size > 0 ? static_cast<std::size_t>(file_size) : 0);
  in.seekg(0);
  if (!blob.empty() &&
      !in.read(reinterpret_cast<char*>(blob.data()),
               static_cast<std::streamsize>(blob.size()))) {
    blob.clear();  // short read → the checks below flag it as corrupt
  }
  in.close();
  res.bytes = blob.size();

  const auto corrupt = [&](const char* why) {
    res.status = ArtifactCacheStatus::kCorrupt;
    res.detail = std::string(why) + " (" + path + ")";
    return std::move(res);
  };
  if (blob.size() < sizeof kFileMagic + sizeof(std::uint32_t) +
                        5 * sizeof(std::uint64_t) + sizeof(std::uint64_t) ||
      std::memcmp(blob.data(), kFileMagic, sizeof kFileMagic) != 0) {
    return corrupt("bad magic or truncated entry");
  }
  const std::size_t payload_size =
      blob.size() - sizeof kFileMagic - sizeof(std::uint64_t);
  const std::uint8_t* payload = blob.data() + sizeof kFileMagic;
  Fnv64 sum;
  sum.bytes(payload, payload_size);
  std::uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, payload + payload_size, sizeof stored_sum);
  if (sum.digest() != stored_sum) {
    return corrupt("checksum mismatch");
  }

  Reader r{.data = payload, .size = payload_size};
  std::uint32_t version = 0;
  if (!r.get(version)) {
    return corrupt("truncated header");
  }
  if (version != kArtifactVersion) {
    res.status = ArtifactCacheStatus::kVersionSkew;
    res.detail = "entry format v" + std::to_string(version) + ", expected v" +
                 std::to_string(kArtifactVersion) + " (" + path + ")";
    return res;
  }
  ArtifactCacheKey embedded;
  if (!r.get(embedded.circuit) || !r.get(embedded.testbench) ||
      !r.get(embedded.config_rule) || !r.get(embedded.optimizer) ||
      !r.get(embedded.shape)) {
    return corrupt("truncated key");
  }
  if (embedded != key) {
    const char* culprit =
        embedded.circuit != key.circuit       ? "circuit structure"
        : embedded.testbench != key.testbench ? "testbench content"
        : embedded.config_rule != key.config_rule ? "config rule tag"
        : embedded.optimizer != key.optimizer ? "optimizer pipeline"
                                              : "artifact shape";
    res.status = ArtifactCacheStatus::kMismatch;
    res.detail = std::string("entry keyed for different ") + culprit + " (" +
                 path + ")";
    return res;
  }

  const auto flag = [&](bool& has) {
    std::uint8_t f = 0;
    if (!r.get(f) || f > 1) return false;
    has = f != 0;
    return true;
  };
  bool has_eager = false;
  bool has_oracle = false;
  bool has_opt_kernel = false;
  ArtifactBundle& b = res.bundle;
  if (!flag(b.has_golden) ||
      (b.has_golden && !take_trace(r, circuit, b.golden))) {
    return corrupt("malformed golden-trace section");
  }
  if (!flag(b.has_slot_trace) ||
      (b.has_slot_trace && !take_slot_trace(r, circuit, b.slot_trace))) {
    return corrupt("malformed slot-trace section");
  }
  if (!flag(b.has_ff_rank) ||
      (b.has_ff_rank && (!r.get_vec(b.ff_affinity_rank) ||
                         b.ff_affinity_rank.size() != circuit.num_dffs()))) {
    return corrupt("malformed affinity-rank section");
  }
  if (!flag(b.has_labels) ||
      (b.has_labels && (!r.get_vec(b.next_ff_labels) ||
                        b.next_ff_labels.size() != circuit.node_count()))) {
    return corrupt("malformed next-ff-labels section");
  }
  if (!flag(has_eager) ||
      (has_eager && !ArtifactCacheAccess::load_eager(r, circuit,
                                                     b.eager_cones))) {
    return corrupt("malformed eager-cones section");
  }
  if (!flag(has_oracle) ||
      (has_oracle && !ArtifactCacheAccess::load_oracle(r, circuit,
                                                       b.oracle))) {
    return corrupt("malformed cone-oracle section");
  }
  if (!flag(has_opt_kernel) ||
      (has_opt_kernel && !ArtifactCacheAccess::load_kernel(r, circuit,
                                                           b.opt_kernel))) {
    return corrupt("malformed optimized-kernel section");
  }
  if (r.pos != r.size) {
    return corrupt("trailing bytes after last section");
  }
  res.status = ArtifactCacheStatus::kHit;
  return res;
}

ArtifactStoreResult store_artifacts(const std::string& dir,
                                    const ArtifactCacheKey& key,
                                    const ArtifactStoreView& view) {
  ArtifactStoreResult res;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    res.detail = "cannot create cache dir " + dir + ": " + ec.message();
    return res;
  }

  Payload payload;
  put<std::uint32_t>(payload, kArtifactVersion);
  put<std::uint64_t>(payload, key.circuit);
  put<std::uint64_t>(payload, key.testbench);
  put<std::uint64_t>(payload, key.config_rule);
  put<std::uint64_t>(payload, key.optimizer);
  put<std::uint64_t>(payload, key.shape);

  put<std::uint8_t>(payload, view.golden != nullptr ? 1 : 0);
  if (view.golden != nullptr) put_trace(payload, *view.golden);
  put<std::uint8_t>(payload, view.slot_trace != nullptr ? 1 : 0);
  if (view.slot_trace != nullptr) put_slot_trace(payload, *view.slot_trace);
  put<std::uint8_t>(payload, view.ff_affinity_rank != nullptr ? 1 : 0);
  if (view.ff_affinity_rank != nullptr) {
    put_vec<std::uint32_t>(payload, *view.ff_affinity_rank);
  }
  put<std::uint8_t>(payload, view.next_ff_labels != nullptr ? 1 : 0);
  if (view.next_ff_labels != nullptr) {
    put_vec<std::uint32_t>(payload, *view.next_ff_labels);
  }
  put<std::uint8_t>(payload, view.eager_cones != nullptr ? 1 : 0);
  if (view.eager_cones != nullptr) {
    ArtifactCacheAccess::save_eager(payload, *view.eager_cones);
  }
  put<std::uint8_t>(payload, view.oracle != nullptr ? 1 : 0);
  if (view.oracle != nullptr) {
    ArtifactCacheAccess::save_oracle(payload, *view.oracle);
  }
  put<std::uint8_t>(payload, view.opt_kernel != nullptr ? 1 : 0);
  if (view.opt_kernel != nullptr) {
    ArtifactCacheAccess::save_kernel(payload, *view.opt_kernel);
  }

  Fnv64 sum;
  sum.bytes(payload.data(), payload.size());
  const std::uint64_t digest = sum.digest();

  const std::string path = dir + "/" + key.file_name();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      res.detail = "cannot open " + tmp;
      return res;
    }
    out.write(kFileMagic, sizeof kFileMagic);
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char*>(&digest), sizeof digest);
    out.flush();
    if (!out) res.detail = "short write to " + tmp;
  }
  if (res.detail.empty() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    res.detail = "rename " + tmp + " -> " + path + " failed";
  }
  if (!res.detail.empty()) {
    // A failed store leaves no partial file behind (nothing ever reads a
    // .tmp, so one left over would only take up disk space).
    std::filesystem::remove(tmp, ec);
    return res;
  }
  res.stored = true;
  res.bytes = sizeof kFileMagic + payload.size() + sizeof digest;
  return res;
}

}  // namespace femu
