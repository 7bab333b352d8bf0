#include <sstream>

#include "vm/chunk.hpp"

namespace lol::vm {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst:
      return "CONST";
    case Op::kPop:
      return "POP";
    case Op::kLoadIt:
      return "LOAD_IT";
    case Op::kStoreIt:
      return "STORE_IT";
    case Op::kDeclare:
      return "DECLARE";
    case Op::kUnbind:
      return "UNBIND";
    case Op::kLoadVar:
      return "LOAD";
    case Op::kStoreVar:
      return "STORE";
    case Op::kCopyArray:
      return "COPY_ARRAY";
    case Op::kLock:
      return "LOCK";
    case Op::kBinary:
      return "BINARY";
    case Op::kUnary:
      return "UNARY";
    case Op::kNary:
      return "NARY";
    case Op::kCast:
      return "CAST";
    case Op::kJump:
      return "JUMP";
    case Op::kJumpIfFalse:
      return "JUMP_IF_FALSE";
    case Op::kCall:
      return "CALL";
    case Op::kReturn:
      return "RETURN";
    case Op::kMe:
      return "ME";
    case Op::kMahFrenz:
      return "MAH_FRENZ";
    case Op::kWhatevr:
      return "WHATEVR";
    case Op::kWhatevar:
      return "WHATEVAR";
    case Op::kHugz:
      return "HUGZ";
    case Op::kBffPush:
      return "BFF_PUSH";
    case Op::kBffPop:
      return "BFF_POP";
    case Op::kVisible:
      return "VISIBLE";
    case Op::kGimmeh:
      return "GIMMEH";
    case Op::kHalt:
      return "HALT";
    case Op::kRegion:
      return "REGION";
  }
  return "?";
}

std::string disassemble(const Chunk& chunk) {
  std::ostringstream os;
  os << "; consts=" << chunk.consts.size() << " decls=" << chunk.decls.size()
     << " funcs=" << chunk.funcs.size() << " main_slots=" << chunk.main_slots
     << "\n";
  for (std::size_t pc = 0; pc < chunk.code.size(); ++pc) {
    for (const auto& f : chunk.funcs) {
      if (f.entry == pc) {
        os << f.name << ":  ; argc=" << f.argc << " slots=" << f.n_slots
           << "\n";
      }
    }
    const Instr& in = chunk.code[pc];
    os << "  " << pc << ": " << op_name(in.op);
    switch (in.op) {
      case Op::kConst:
        os << " " << in.a << " ("
           << chunk.consts[static_cast<std::size_t>(in.a)].debug_str() << ")";
        break;
      case Op::kDeclare: {
        const DeclMeta& m = chunk.decls[static_cast<std::size_t>(in.a)];
        os << " " << m.name << " slot=" << m.slot
           << (m.symmetric ? " symmetric" : "")
           << (m.is_array ? " array" : "");
        break;
      }
      case Op::kLoadVar:
      case Op::kStoreVar:
      case Op::kLock:
        os << " a=" << in.a << " flags=" << in.b;
        if (in.c) os << " c=" << in.c;
        break;
      case Op::kJump:
      case Op::kJumpIfFalse:
        os << " -> " << in.a;
        break;
      case Op::kCall:
        os << " " << chunk.funcs[static_cast<std::size_t>(in.a)].name
           << " argc=" << in.b;
        break;
      case Op::kBinary:
        os << " " << ast::bin_op_name(static_cast<ast::BinOp>(in.a));
        break;
      case Op::kUnary:
        os << " " << ast::un_op_name(static_cast<ast::UnOp>(in.a));
        break;
      case Op::kNary:
        os << " " << ast::nary_op_name(static_cast<ast::NaryOp>(in.a))
           << " n=" << in.b;
        break;
      default:
        if (in.a || in.b || in.c) {
          os << " " << in.a;
          if (in.b || in.c) os << " " << in.b;
          if (in.c) os << " " << in.c;
        }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace lol::vm
