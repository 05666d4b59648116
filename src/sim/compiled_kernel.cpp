#include "sim/compiled_kernel.h"

#include <algorithm>

#include "common/error.h"

namespace femu {

namespace {

// eval<Word>()'s switch must cover every op the lowering emits; reject
// unknown comb cells at compile-the-circuit time so a future CellType added
// to cell.h but not to the kernel fails loudly instead of silently leaving
// stale slot values.
constexpr bool kernel_handles(CellType type) noexcept {
  switch (type) {
    case CellType::kBuf:
    case CellType::kNot:
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kNand:
    case CellType::kNor:
    case CellType::kXor:
    case CellType::kXnor:
    case CellType::kMux:
      return true;
    default:
      return false;
  }
}

}  // namespace

CompiledKernel::CompiledKernel(const Circuit& circuit) : circuit_(&circuit) {
  circuit.validate();
  num_slots_ = circuit.node_count();

  program_.reserve(circuit.num_gates());
  for (NodeId id = 0; id < num_slots_; ++id) {
    const CellType type = circuit.type(id);
    if (type == CellType::kConst1) {
      const1_slots_.push_back(id);
      continue;
    }
    if (!is_comb_cell(type)) {
      continue;  // const0/inputs/DFFs live in pre-loaded slots
    }
    FEMU_CHECK(kernel_handles(type), "cell type ", cell_name(type),
               " has no compiled-kernel lowering");
    const auto fanins = circuit.fanins(id);
    Instr in;
    in.dest = id;
    in.op = type;
    in.a = fanins[0];
    in.b = fanins.size() > 1 ? fanins[1] : fanins[0];
    in.c = fanins.size() > 2 ? fanins[2] : fanins[0];
    program_.push_back(in);
  }

  // Logic levels in one pass: program_ is topological (comb fanins precede
  // their readers), and non-comb slots (inputs, DFF Qs, constants) are never
  // written by an instruction, so they keep level 0.
  levels_.assign(num_slots_, 0);
  for (const Instr& in : program_) {
    const std::uint32_t fanin_level =
        std::max({levels_[in.a], levels_[in.b], levels_[in.c]});
    levels_[in.dest] = fanin_level + 1;
  }

  input_slots_.assign(circuit.inputs().begin(), circuit.inputs().end());
  dff_slots_.assign(circuit.dffs().begin(), circuit.dffs().end());
  const std::vector<NodeId> drivers = circuit.dff_drivers();
  dff_d_slots_.assign(drivers.begin(), drivers.end());
  output_slots_.reserve(circuit.num_outputs());
  for (const auto& port : circuit.outputs()) {
    output_slots_.push_back(port.driver);
  }
  finish_program();
}

void CompiledKernel::finish_program() {
  build_runs(program_, program_runs_);

  // Levelized order: one stable counting sort of program_ (node-id order)
  // on the bucket (level, op, neg != 0), which leaves node id as the
  // tiebreak. Linear in the program, so construction stays cheap on deep
  // circuits.
  constexpr std::uint32_t kClasses =
      2 * (static_cast<std::uint32_t>(CellType::kDff) + 1);
  std::uint32_t max_level = 0;
  for (const Instr& in : program_) {
    max_level = std::max(max_level, levels_[in.dest]);
  }
  const auto bucket = [&](const Instr& in) {
    return levels_[in.dest] * kClasses + static_cast<std::uint32_t>(in.op) * 2 +
           (in.neg != 0 ? 1U : 0U);
  };
  std::vector<std::uint32_t> next(std::size_t{max_level + 1} * kClasses + 1, 0);
  for (const Instr& in : program_) ++next[bucket(in) + 1];
  for (std::size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  levelized_order_.resize(program_.size());
  for (std::size_t i = 0; i < program_.size(); ++i) {
    levelized_order_[next[bucket(program_[i])]++] =
        static_cast<std::uint32_t>(i);
  }
}

void CompiledKernel::build_subprogram(std::span<const std::uint64_t> mask,
                                      ConeSubProgram& sp,
                                      const ConeSubProgram* narrow_from,
                                      bool levelize) const {
  FEMU_CHECK(mask.size() == (num_slots_ + 63) / 64, "cone mask words ",
             mask.size(), " != ", (num_slots_ + 63) / 64);
  sp.instrs.clear();
  sp.global_of_local.clear();
  sp.boundary_slots.clear();
  sp.boundary_locals.clear();
  sp.dff_indices.clear();
  sp.dff_q_locals.clear();
  sp.dff_d_locals.clear();
  sp.out_indices.clear();
  sp.out_locals.clear();
  sp.cone_mask.assign(mask.begin(), mask.end());
  sp.seen.assign(mask.size(), 0);

  const auto in_mask = [&](std::uint32_t s) {
    return ((mask[s >> 6] >> (s & 63)) & 1) != 0;
  };
  // `seen` dedupes boundary slots; seeding it with the cone itself means a
  // single test ("not yet seen") covers both "outside the cone" and "not
  // already collected".
  for (std::size_t w = 0; w < mask.size(); ++w) sp.seen[w] = mask[w];
  const auto note_read = [&](std::uint32_t s) {
    if (((sp.seen[s >> 6] >> (s & 63)) & 1) == 0) {
      sp.seen[s >> 6] |= std::uint64_t{1} << (s & 63);
      sp.boundary_slots.push_back(s);
    }
  };

  // Pass 1 — filter the instruction stream, operating in *global* slot
  // space (a narrowing source carries arena-local operands, translated back
  // through its global_of_local table). Narrowing always derives a subset,
  // so filtering the previous sub-program instead of the whole kernel
  // program cuts derivation cost to the size of what is still running.
  //
  // Levelized blocking: a levelized fresh build filters the program in
  // (level, op, neg != 0, node id) order, so pass 2 lays each logic level's
  // destinations out as one contiguous arena block and operand reads hit
  // the block written just before (see the header), and each level splits
  // into few long op runs. Instructions of one level never read each
  // other, so any within-level order is topological and results are
  // bit-identical. A filtered subsequence keeps its source's order, so
  // narrowing sources stay sorted (or deliberately not) without a sort.
  if (narrow_from == nullptr) {
    for (std::size_t k = 0; k < program_.size(); ++k) {
      const Instr& in = program_[levelize ? levelized_order_[k] : k];
      if (!in_mask(in.dest)) continue;
      sp.instrs.push_back(in);
      note_read(in.a);
      note_read(in.b);
      note_read(in.c);
    }
    for (std::size_t i = 0; i < dff_slots_.size(); ++i) {
      if (!in_mask(dff_slots_[i])) continue;
      sp.dff_indices.push_back(static_cast<std::uint32_t>(i));
      // A cone root FF may be driven from outside its own cone; its D slot
      // is then a boundary read at step time.
      note_read(dff_d_slots_[i]);
    }
    for (std::size_t i = 0; i < output_slots_.size(); ++i) {
      if (in_mask(output_slots_[i])) {
        sp.out_indices.push_back(static_cast<std::uint32_t>(i));
      }
    }
  } else {
    const std::vector<std::uint32_t>& gol = narrow_from->global_of_local;
    for (const Instr& in : narrow_from->instrs) {
      Instr g;
      g.dest = gol[in.dest];
      if (!in_mask(g.dest)) continue;
      g.a = gol[in.a];
      g.b = gol[in.b];
      g.c = gol[in.c];
      g.op = in.op;
      g.neg = in.neg;
      sp.instrs.push_back(g);
      note_read(g.a);
      note_read(g.b);
      note_read(g.c);
    }
    for (const std::uint32_t i : narrow_from->dff_indices) {
      if (!in_mask(dff_slots_[i])) continue;
      sp.dff_indices.push_back(i);
      note_read(dff_d_slots_[i]);
    }
    for (const std::uint32_t i : narrow_from->out_indices) {
      if (in_mask(output_slots_[i])) {
        sp.out_indices.push_back(i);
      }
    }
  }

  // Pass 2 — arena assignment: dense local indices for every slot the
  // sub-program touches. Loaded slots lead (boundary golden words, then
  // cone DFF state words), then each instruction claims the next index for
  // its destination in stream order, which keeps local destinations
  // strictly ascending (the overlay-merge invariant). `local_of_slot` keeps
  // its storage across derivations; `has_local` marks which entries belong
  // to *this* build.
  sp.local_of_slot.resize(num_slots_);
  sp.has_local.assign(mask.size(), 0);
  std::uint32_t next_local = 0;
  const auto give_local = [&](std::uint32_t s) {
    if (((sp.has_local[s >> 6] >> (s & 63)) & 1) == 0) {
      sp.has_local[s >> 6] |= std::uint64_t{1} << (s & 63);
      sp.local_of_slot[s] = next_local++;
      sp.global_of_local.push_back(s);
    }
    return sp.local_of_slot[s];
  };
  for (const std::uint32_t s : sp.boundary_slots) {
    sp.boundary_locals.push_back(give_local(s));
  }
  for (const std::uint32_t i : sp.dff_indices) {
    sp.dff_q_locals.push_back(give_local(dff_slots_[i]));
  }
  for (Instr& in : sp.instrs) {
    in.a = give_local(in.a);
    in.b = give_local(in.b);
    in.c = give_local(in.c);
    in.dest = give_local(in.dest);
  }
  for (const std::uint32_t i : sp.dff_indices) {
    sp.dff_d_locals.push_back(give_local(dff_d_slots_[i]));
  }
  for (const std::uint32_t i : sp.out_indices) {
    sp.out_locals.push_back(give_local(output_slots_[i]));
  }
  sp.arena_slots = next_local;
  build_runs(sp.instrs, sp.runs);
}

void CompiledKernel::build_runs(std::span<const Instr> instrs,
                                std::vector<OpRun>& runs) {
  runs.clear();
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    const std::uint8_t negated = instrs[i].neg != 0 ? 1 : 0;
    if (runs.empty() || runs.back().op != instrs[i].op ||
        runs.back().negated != negated) {
      runs.push_back({0, instrs[i].op, negated});
    }
    runs.back().end = static_cast<std::uint32_t>(i + 1);
  }
}

std::shared_ptr<const CompiledKernel> compile_kernel(const Circuit& circuit) {
  return std::make_shared<const CompiledKernel>(circuit);
}

}  // namespace femu
