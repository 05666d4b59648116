#pragma once

#include <cstdint>
#include <string_view>

namespace femu {

/// Primitive cell types of the gate-level IR.
///
/// The library targets LUT-based FPGAs, so the cell set is the classic
/// technology-independent structural set: constants, primary inputs, 1- and
/// 2-input gates, a 2:1 mux, and a D flip-flop. Wider logic is built from
/// these by the RTL builder (`rtl::Builder`).
enum class CellType : std::uint8_t {
  kConst0,  ///< constant 0, no fanin
  kConst1,  ///< constant 1, no fanin
  kInput,   ///< primary input, no fanin
  kBuf,     ///< identity, 1 fanin
  kNot,     ///< inverter, 1 fanin
  kAnd,     ///< 2-input AND
  kOr,      ///< 2-input OR
  kNand,    ///< 2-input NAND
  kNor,     ///< 2-input NOR
  kXor,     ///< 2-input XOR
  kXnor,    ///< 2-input XNOR
  kMux,     ///< 2:1 mux, fanins {sel, d0, d1}; output = sel ? d1 : d0
  kDff,     ///< D flip-flop, fanin {d}; resets to 0; clock is implicit
};

/// Number of fanins a cell of type `type` takes.
[[nodiscard]] constexpr int cell_arity(CellType type) noexcept {
  switch (type) {
    case CellType::kConst0:
    case CellType::kConst1:
    case CellType::kInput:
      return 0;
    case CellType::kBuf:
    case CellType::kNot:
    case CellType::kDff:
      return 1;
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kNand:
    case CellType::kNor:
    case CellType::kXor:
    case CellType::kXnor:
      return 2;
    case CellType::kMux:
      return 3;
  }
  return 0;
}

/// True for cells evaluated by the combinational engines (everything that is
/// neither a source nor a state element).
[[nodiscard]] constexpr bool is_comb_cell(CellType type) noexcept {
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

[[nodiscard]] constexpr std::string_view cell_name(CellType type) noexcept {
  switch (type) {
    case CellType::kConst0: return "CONST0";
    case CellType::kConst1: return "CONST1";
    case CellType::kInput:  return "INPUT";
    case CellType::kBuf:    return "BUF";
    case CellType::kNot:    return "NOT";
    case CellType::kAnd:    return "AND";
    case CellType::kOr:     return "OR";
    case CellType::kNand:   return "NAND";
    case CellType::kNor:    return "NOR";
    case CellType::kXor:    return "XOR";
    case CellType::kXnor:   return "XNOR";
    case CellType::kMux:    return "MUX";
    case CellType::kDff:    return "DFF";
  }
  return "?";
}

/// Evaluates a combinational cell on single-bit operands.
[[nodiscard]] constexpr bool eval_cell_bool(CellType type, bool a, bool b,
                                            bool c) noexcept {
  switch (type) {
    case CellType::kConst0: return false;
    case CellType::kConst1: return true;
    case CellType::kBuf:    return a;
    case CellType::kNot:    return !a;
    case CellType::kAnd:    return a && b;
    case CellType::kOr:     return a || b;
    case CellType::kNand:   return !(a && b);
    case CellType::kNor:    return !(a || b);
    case CellType::kXor:    return a != b;
    case CellType::kXnor:   return a == b;
    case CellType::kMux:    return a ? c : b;
    default:                return false;
  }
}

}  // namespace femu
