#include "codegen/jit_analysis.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>

namespace lol::codegen {

namespace {

using vm::Op;

/// Virtual state of one tracked slot at a program point. Normalized so
/// defaulted operator== is exact: untyped states zero `type`, unbound
/// states zero everything, unknown states (an unguarded slot whose entry
/// binding we never learned — possible only for unbind-first locals)
/// zero the rest.
struct SlotSt {
  bool unknown = false;
  bool bound = false;
  bool typed = false;
  bool from_decl = false;  // current binding made by an in-region declare
  SpecType type = SpecType::kInt;

  bool operator==(const SlotSt&) const = default;
};

SlotSt st_unknown() { return SlotSt{.unknown = true}; }
SlotSt st_unbound() { return SlotSt{.bound = false}; }
SlotSt st_shape() { return SlotSt{.bound = true, .typed = false}; }
SlotSt st_typed(SpecType t, bool from_decl) {
  return SlotSt{
      .bound = true, .typed = true, .from_decl = from_decl, .type = t};
}

/// State snapshot at one program point: virtual stack types plus every
/// tracked slot's state (IT uses SpecLocal::kItSlot). Slots tracked
/// *after* the snapshot was taken resolve to their entry state — sound
/// because "tracked later" means "untouched up to here".
struct Snap {
  std::vector<SpecType> vstack;
  std::vector<std::pair<std::int32_t, SlotSt>> slots;  // sorted by slot
};

/// One frame's static context: its pc range and slot -> decl-site map.
struct FrameInfo {
  std::size_t begin = 0, end = 0;
  std::map<std::int32_t, std::int32_t> decl_of;  // slot -> chunk decl idx
};

std::optional<SpecType> spec_of(ast::TypeKind t) {
  switch (t) {
    case ast::TypeKind::kNumbr: return SpecType::kInt;
    case ast::TypeKind::kNumbar: return SpecType::kDbl;
    case ast::TypeKind::kTroof: return SpecType::kBool;
    default: return std::nullopt;
  }
}

const char* type_name(SpecType t) {
  switch (t) {
    case SpecType::kInt: return "numbr";
    case SpecType::kDbl: return "numbar";
    case SpecType::kBool: return "troof";
  }
  return "?";
}

/// Simulates one candidate region and, on success, fills a RegionPlan.
class RegionSim {
 public:
  RegionSim(const vm::Chunk& chunk, const FrameInfo& frame,
            const std::vector<bool>& jump_target, std::size_t lo)
      : chunk_(chunk), frame_(frame), jump_target_(jump_target), lo_(lo) {}

  /// Returns the planned region, or nullopt when too little specializes.
  std::optional<RegionPlan> run() {
    simulate();
    if (!viable()) return std::nullopt;
    return finalize();
  }

 private:
  // ---- per-local bookkeeping -------------------------------------------

  struct LocalRec {
    std::int32_t slot = SpecLocal::kItSlot;
    std::optional<SpecGuardKind> guard;  // nullopt: unguarded (IT or
                                         // unbind-first)
    bool entry_bound = true;  // drives the unbind writeback decision
    bool int_only = true;
    std::uint32_t uses = 0;
  };

  std::int32_t track(std::int32_t slot, std::optional<SpecGuardKind> guard,
                     bool entry_bound) {
    auto it = local_ix_.find(slot);
    if (it != local_ix_.end()) return it->second;
    auto ix = static_cast<std::int32_t>(locals_.size());
    locals_.push_back(LocalRec{slot, guard, entry_bound, true, 0});
    local_ix_[slot] = ix;
    return ix;
  }

  [[nodiscard]] SlotSt entry_state(std::int32_t slot) const {
    if (slot == SpecLocal::kItSlot) return st_shape();  // IT: type unknown
    auto it = local_ix_.find(slot);
    if (it == local_ix_.end()) return st_unknown();  // never tracked: only
                                                     // reached for slots
                                                     // tracked after both
                                                     // snapshots — but the
                                                     // resolver handles
                                                     // that before asking
    const LocalRec& rec = locals_[static_cast<std::size_t>(it->second)];
    if (!rec.guard) return st_unknown();
    switch (*rec.guard) {
      case SpecGuardKind::kScalarInt: return st_typed(SpecType::kInt, false);
      case SpecGuardKind::kScalarDbl: return st_typed(SpecType::kDbl, false);
      case SpecGuardKind::kScalarBool:
        return st_typed(SpecType::kBool, false);
      case SpecGuardKind::kScalarShape: return st_shape();
      case SpecGuardKind::kUnbound: return st_unbound();
      default: return st_unknown();
    }
  }

  void set_state(std::int32_t slot, SlotSt st) { state_[slot] = st; }

  [[nodiscard]] SlotSt state_of(std::int32_t slot) const {
    auto it = state_.find(slot);
    if (it != state_.end()) return it->second;
    if (slot == SpecLocal::kItSlot) return st_shape();
    return entry_state(slot);
  }

  void touch(std::int32_t ix, bool dbl) {
    auto& rec = locals_[static_cast<std::size_t>(ix)];
    ++rec.uses;
    if (dbl) rec.int_only = false;
  }

  // ---- snapshots -------------------------------------------------------

  [[nodiscard]] Snap snapshot() const {
    Snap s;
    s.vstack = vstack_;
    for (const auto& [slot, st] : state_) s.slots.emplace_back(slot, st);
    return s;
  }

  [[nodiscard]] SlotSt resolve(const Snap& s, std::int32_t slot) const {
    auto it = std::lower_bound(
        s.slots.begin(), s.slots.end(), slot,
        [](const auto& p, std::int32_t k) { return p.first < k; });
    if (it != s.slots.end() && it->first == slot) return it->second;
    return entry_state(slot);
  }

  /// Slots whose state on an edge into `pc` cannot matter: the op at
  /// `pc` unbinds them, and that UNBIND always specializes (the slot is a
  /// tracked scalar), so nothing reads the state and every exit after it
  /// derives its writeback from the unbound state alone.
  [[nodiscard]] bool killed_at(std::size_t pc, std::int32_t slot) const {
    const vm::Instr& in = chunk_.code[pc];
    return in.op == Op::kUnbind && in.a == slot &&
           local_ix_.count(slot) != 0;
  }

  /// How an edge with state `from` joins a point whose state is `to`:
  /// the writebacks that make them agree (none when equal), or nullopt
  /// when they cannot. The only join is forgetting a payload — a slot
  /// (or IT) typed on the edge but shape-only at `to` is written back so
  /// its cell is authoritative again, as `to` assumes. Such a slot was
  /// bound at region entry and never unbound or redeclared on the way
  /// (its state is not from_decl), so the cell is the one the exits'
  /// writeback plans already account for.
  [[nodiscard]] std::optional<std::vector<SpecWriteback>> edge_writebacks(
      const Snap& from, const Snap& to, std::size_t at) const {
    if (from.vstack != to.vstack) return std::nullopt;
    std::set<std::int32_t> keys;
    for (const auto& [slot, st] : from.slots) keys.insert(slot);
    for (const auto& [slot, st] : to.slots) keys.insert(slot);
    std::vector<SpecWriteback> wbs;
    for (std::int32_t slot : keys) {
      SlotSt f = resolve(from, slot), t = resolve(to, slot);
      if (f == t || killed_at(at, slot)) continue;
      if (!f.typed || f.from_decl || t.unknown || !t.bound || t.typed) {
        return std::nullopt;
      }
      SpecWriteback wb;
      wb.kind = slot == SpecLocal::kItSlot ? SpecWriteback::Kind::kIt
                                           : SpecWriteback::Kind::kStore;
      wb.local = local_ix_.at(slot);
      wb.slot = slot;
      wb.type = f.type;
      wbs.push_back(wb);
    }
    return wbs;
  }

  /// Records an edge that joins the state at `target` (after running
  /// `wbs`). resolve_joins() turns it into a plain in-region jump, an
  /// internal exit, or — when the region ends at `target` — an ordinary
  /// exit with the edge's own state.
  void join(std::size_t from_pc, std::size_t target, const Snap& s,
            std::vector<SpecWriteback> wbs) {
    joins_.push_back({from_pc, target, s, std::move(wbs)});
  }

  void resolve_joins() {
    for (Join& j : joins_) {
      if (j.target >= hi_) {
        exit_snaps_.push_back({j.from_pc, j.target, std::move(j.snap)});
      } else if (!j.wbs.empty()) {
        SpecExit x;
        x.at_pc = j.from_pc;
        x.target = j.target;
        x.vstack = j.snap.vstack;
        x.writebacks = std::move(j.wbs);
        x.internal = true;
        internal_exits_.push_back(std::move(x));
      }
    }
    joins_.clear();
  }

  // ---- the linear walk -------------------------------------------------

  static constexpr std::size_t kMaxRegionOps = 4096;
  static constexpr std::size_t kMaxLocals = 24;
  static constexpr std::size_t kMaxArrs = 8;

  void simulate() {
    std::size_t pc = lo_;
    bool dead = false;     // just after an unconditional in-region jump
    bool adopted = false;  // this pc's state came from a forward edge
    for (;;) {
      if (pc >= frame_.end) {
        why_ = "end of frame";
        break;
      }
      if (acts_.size() >= kMaxRegionOps) {
        why_ = "op budget (" + std::to_string(kMaxRegionOps) + " ops)";
        break;
      }
      if (dead) {
        // Linearly unreachable: adopt the state of the first pending
        // forward edge into this pc, if any; otherwise the region ends.
        auto [it, end] = pending_.equal_range(pc);
        if (it == end) {
          why_ = "not reached from inside the region (follows a jump)";
          break;
        }
        vstack_ = it->second.second.vstack;
        state_.clear();
        for (const auto& [slot, st] : it->second.second.slots) {
          state_[slot] = st;
        }
        join(it->second.first, pc, it->second.second, {});
        pending_.erase(it);
        dead = false;
        adopted = true;
      }
      const bool target = pc < jump_target_.size() && jump_target_[pc];
      auto [first, last] = pending_.equal_range(pc);
      Snap here = target || first != last ? snapshot() : Snap{};
      if (target) canon_[pc] = here;
      // Forward edges recorded earlier that land here: internal when the
      // states join, demoted to generic-resume exits when they don't.
      for (auto it = first, end = last; it != end;) {
        const auto& [from_pc, snap] = it->second;
        if (auto wbs = edge_writebacks(snap, here, pc)) {
          join(from_pc, pc, snap, std::move(*wbs));
        } else {
          exit_snaps_.push_back({from_pc, pc, snap});
        }
        it = pending_.erase(it);
      }
      SpecAct act;
      Edge edge = Edge::kNone;
      std::vector<SpecType> before = vstack_;
      if (!step(chunk_.code[pc], pc, &act, &edge)) {
        why_ = std::string(vm::op_name(chunk_.code[pc].op)) + ": " + refusal_;
        break;
      }
      acts_.push_back(act);
      vstack_at_.push_back(std::move(before));
      max_depth_ = std::max(max_depth_,
                            static_cast<std::uint32_t>(vstack_.size()));
      if (edge == Edge::kDead) dead = true;
      adopted = false;
      ++pc;
    }
    hi_ = lo_ + acts_.size();
    // No fallthrough when nothing flows linearly into hi: after a jump,
    // or when hi's state was adopted (that edge's join exits instead).
    if (!dead && !adopted && hi_ > lo_) {
      exit_snaps_.push_back({hi_, hi_, snapshot()});
    }
    resolve_joins();
    // Every still-pending forward edge leaves the region.
    for (auto& [target, rec] : pending_) {
      exit_snaps_.push_back({rec.first, target, std::move(rec.second)});
    }
    pending_.clear();
  }

  enum class Edge : std::uint8_t { kNone, kDead };

  /// Routes one branch/jump edge: internal when the target is a pc we
  /// already passed with a matching state (or a future pc — resolved on
  /// arrival), an exit edge otherwise.
  void route_edge(std::size_t from_pc, std::size_t target) {
    Snap s = snapshot();
    if (target > from_pc && target < frame_.end) {
      pending_.emplace(target, std::make_pair(from_pc, std::move(s)));
      return;
    }
    auto it = canon_.find(target);
    if (target >= lo_ && target <= from_pc && it != canon_.end()) {
      if (auto wbs = edge_writebacks(s, it->second, target)) {
        join(from_pc, target, s, std::move(*wbs));
        return;
      }
    }
    exit_snaps_.push_back({from_pc, target, std::move(s)});
  }

  [[nodiscard]] const vm::DeclMeta* frame_decl(std::int32_t slot) const {
    auto it = frame_.decl_of.find(slot);
    if (it == frame_.decl_of.end()) return nullptr;
    return &chunk_.decls[static_cast<std::size_t>(it->second)];
  }

  /// The type a store of `t` leaves in a cell declared by `m`: `t` itself
  /// when no SRSLY type coerces it, NUMBAR for a NUMBR into a SRSLY
  /// NUMBAR (cvtsi2sd is exactly Value::cast_to's static_cast), nullopt
  /// for any other coercion.
  static std::optional<SpecType> stored_type(const vm::DeclMeta* m,
                                             SpecType t) {
    if (m == nullptr || !m->srsly || !m->static_type) return t;
    std::optional<SpecType> declared = spec_of(*m->static_type);
    if (declared == t) return t;
    if (declared == SpecType::kDbl && t == SpecType::kInt) return declared;
    return std::nullopt;
  }

  static SpecGuardKind scalar_guard(SpecType t) {
    switch (t) {
      case SpecType::kInt: return SpecGuardKind::kScalarInt;
      case SpecType::kDbl: return SpecGuardKind::kScalarDbl;
      case SpecType::kBool: return SpecGuardKind::kScalarBool;
    }
    return SpecGuardKind::kScalarShape;
  }

  /// Records why the op at the current pc cannot join the region.
  bool refuse(const char* why) {
    refusal_ = why;
    return false;
  }

  static constexpr const char* kStackFull = "virtual stack full";
  static constexpr const char* kBelowEntry =
      "operand was pushed before the region";
  static constexpr const char* kTooManyLocals = "tracked-local limit";

  bool step(const vm::Instr& in, std::size_t pc, SpecAct* act, Edge* edge) {
    const std::size_t n = vstack_.size();
    switch (in.op) {
      case Op::kConst: {
        if (n >= kMaxVstack) return refuse(kStackFull);
        const rt::Value& v = chunk_.consts[static_cast<std::size_t>(in.a)];
        if (v.is_numbr()) {
          act->kind = SpecAct::Kind::kConst;
          act->out = SpecType::kInt;
          act->imm = v.numbr_raw();
        } else if (v.is_numbar()) {
          double d = v.numbar_raw();
          std::int64_t bits;
          static_assert(sizeof d == sizeof bits);
          __builtin_memcpy(&bits, &d, sizeof bits);
          act->kind = SpecAct::Kind::kConst;
          act->out = SpecType::kDbl;
          act->imm = bits;
        } else if (v.is_troof()) {
          act->kind = SpecAct::Kind::kConst;
          act->out = SpecType::kBool;
          act->imm = v.troof_raw() ? 1 : 0;
        } else {
          return refuse("YARN or NOOB constant");
        }
        vstack_.push_back(act->out);
        return true;
      }
      case Op::kPop:
        if (n < 1) return refuse(kBelowEntry);
        vstack_.pop_back();
        act->kind = SpecAct::Kind::kPop;
        return true;
      case Op::kLoadIt: {
        SlotSt st = state_of(SpecLocal::kItSlot);
        if (!st.typed) return refuse("IT's type is not known here");
        if (n >= kMaxVstack) return refuse(kStackFull);
        act->kind = SpecAct::Kind::kLoadLocal;
        act->out = st.type;
        act->local = track(SpecLocal::kItSlot, std::nullopt, true);
        touch(act->local, st.type == SpecType::kDbl);
        vstack_.push_back(st.type);
        return true;
      }
      case Op::kStoreIt: {
        if (n < 1) return refuse(kBelowEntry);
        SpecType t = vstack_.back();
        vstack_.pop_back();
        act->kind = SpecAct::Kind::kStoreLocal;
        act->in = act->out = t;
        act->local = track(SpecLocal::kItSlot, std::nullopt, true);
        touch(act->local, t == SpecType::kDbl);
        set_state(SpecLocal::kItSlot, st_typed(t, false));
        return true;
      }
      case Op::kDeclare: {
        const vm::DeclMeta& m = chunk_.decls[static_cast<std::size_t>(in.a)];
        if (m.symmetric || m.is_array || m.has_size) {
          return refuse("array or symmetric declaration");
        }
        if (arrs_.count(m.slot) != 0) return refuse("slot used as an array");
        SlotSt st = state_of(m.slot);
        bool first = local_ix_.find(m.slot) == local_ix_.end();
        if (!first && (st.unknown || st.bound)) {
          return refuse("slot may still be bound");
        }
        if (first && locals_.size() >= kMaxLocals) {
          return refuse(kTooManyLocals);
        }
        SpecType t;
        if (m.has_init) {
          if (n < 1) return refuse(kBelowEntry);
          std::optional<SpecType> stored = stored_type(&m, vstack_.back());
          if (!stored) return refuse("SRSLY type coerces the initializer");
          act->in = vstack_.back();
          vstack_.pop_back();
          act->kind = SpecAct::Kind::kDeclare;
          t = *stored;
        } else {
          std::optional<SpecType> zt =
              m.static_type ? spec_of(*m.static_type) : std::nullopt;
          if (!zt) return refuse("no NUMBR/NUMBAR/TROOF zero value");
          t = *zt;
          act->kind = SpecAct::Kind::kDeclareZero;
        }
        act->out = t;
        act->aux = in.a;
        act->local = track(m.slot, SpecGuardKind::kUnbound, false);
        touch(act->local, t == SpecType::kDbl);
        set_state(m.slot, st_typed(t, true));
        return true;
      }
      case Op::kUnbind: {
        std::int32_t slot = in.a;
        if (arrs_.count(slot) != 0) return refuse("slot used as an array");
        if (local_ix_.find(slot) == local_ix_.end() &&
            locals_.size() >= kMaxLocals) {
          return refuse(kTooManyLocals);
        }
        // First-touch-by-unbind needs no guard: op_unbind resets the cell
        // whatever it held, so the writeback is valid unconditionally.
        act->kind = SpecAct::Kind::kUnbind;
        act->local = track(slot, std::nullopt, true);
        touch(act->local, false);
        set_state(slot, st_unbound());
        return true;
      }
      case Op::kLoadVar: {
        auto flags = static_cast<std::uint32_t>(in.b);
        if (flags == 0) {
          if (n >= kMaxVstack) return refuse(kStackFull);
          if (arrs_.count(in.a) != 0) return refuse("slot used as an array");
          SlotSt st = state_of(in.a);
          bool first = local_ix_.find(in.a) == local_ix_.end();
          if (first) {
            const vm::DeclMeta* m = frame_decl(in.a);
            if (m != nullptr && (m->symmetric || m->is_array)) {
              return refuse("symmetric scalar or array read as a value");
            }
            std::optional<SpecType> hint =
                m != nullptr && m->hint ? spec_of(*m->hint) : std::nullopt;
            if (!hint) return refuse("read first, no NUMBR/NUMBAR/TROOF hint");
            if (locals_.size() >= kMaxLocals) return refuse(kTooManyLocals);
            act->local = track(in.a, scalar_guard(*hint), true);
            st = st_typed(*hint, false);
          } else {
            if (!st.bound || !st.typed) {
              return refuse("local's type is not known here");
            }
            act->local = local_ix_.at(in.a);
          }
          act->kind = SpecAct::Kind::kLoadLocal;
          act->out = st.type;
          touch(act->local, st.type == SpecType::kDbl);
          vstack_.push_back(st.type);
          return true;
        }
        if (flags == vm::kAccIndexed) {
          return arr_access(in.a, /*store=*/false, /*remote=*/false, act);
        }
        if (flags == (vm::kAccIndexed | vm::kAccRemote)) {
          return arr_access(in.a, /*store=*/false, /*remote=*/true, act);
        }
        return refuse("dynamic, global or scalar UR access");
      }
      case Op::kStoreVar: {
        auto flags = static_cast<std::uint32_t>(in.b);
        if (flags == 0) {
          if (n < 1) return refuse(kBelowEntry);
          if (arrs_.count(in.a) != 0) return refuse("slot used as an array");
          SlotSt st = state_of(in.a);
          bool first = local_ix_.find(in.a) == local_ix_.end();
          const vm::DeclMeta* m = frame_decl(in.a);
          std::optional<SpecType> stored = stored_type(m, vstack_.back());
          if (!stored) return refuse("SRSLY type coerces the value");
          if (first) {
            if (m != nullptr && (m->symmetric || m->is_array)) {
              return refuse("symmetric scalar or array assigned");
            }
            if (locals_.size() >= kMaxLocals) return refuse(kTooManyLocals);
            // A SRSLY-typed cell always holds its declared type (the VM
            // casts every store), so guard the payload: the local then
            // enters typed, and a loop head agrees with its back edge.
            std::optional<SpecType> declared =
                m != nullptr && m->srsly && m->static_type
                    ? spec_of(*m->static_type)
                    : std::nullopt;
            act->local = track(in.a,
                               declared ? scalar_guard(*declared)
                                        : SpecGuardKind::kScalarShape,
                               true);
            st = entry_state(in.a);
          } else {
            if (st.unknown || !st.bound) {
              return refuse("local may be unbound here");
            }
            act->local = local_ix_.at(in.a);
          }
          act->in = vstack_.back();
          vstack_.pop_back();
          act->kind = SpecAct::Kind::kStoreLocal;
          act->out = *stored;
          touch(act->local, *stored == SpecType::kDbl);
          set_state(in.a, st_typed(*stored, st.from_decl));
          return true;
        }
        if (flags == vm::kAccIndexed) {
          return arr_access(in.a, /*store=*/true, /*remote=*/false, act);
        }
        return refuse("dynamic, global or UR store");
      }
      case Op::kBinary: {
        if (n < 2) return refuse(kBelowEntry);
        SpecType r = vstack_[n - 1], l = vstack_[n - 2];
        std::int32_t promote = 0;
        if (l != r) {
          // NUMBR mixed with NUMBAR: rt::arith takes the float path and
          // Value::saem compares numerically, so the int side promotes
          // to double and the op proceeds as a double op. Any other mix
          // (bool with a number) stays generic.
          bool int_dbl = (l == SpecType::kInt && r == SpecType::kDbl) ||
                         (l == SpecType::kDbl && r == SpecType::kInt);
          if (!int_dbl) return refuse("TROOF mixed with a number");
          promote = l == SpecType::kInt ? kSpecBinPromoteLhs
                                        : kSpecBinPromoteRhs;
          l = SpecType::kDbl;
        }
        auto op = static_cast<ast::BinOp>(in.a);
        std::optional<SpecType> out = bin_result(l, op);
        if (!out) return refuse("operator not specialized for these types");
        vstack_.pop_back();
        vstack_.back() = *out;
        act->kind = SpecAct::Kind::kBin;
        act->in = l;
        act->out = *out;
        act->aux = in.a | promote;
        return true;
      }
      case Op::kUnary: {
        if (n < 1) return refuse(kBelowEntry);
        SpecType t = vstack_.back();
        auto op = static_cast<ast::UnOp>(in.a);
        if (op == ast::UnOp::kNot) {
          if (t == SpecType::kDbl) {
            return refuse("NOT of a NUMBAR");  // ±0.0 vs NaN subtleties
          }
          act->kind = SpecAct::Kind::kNot;
          act->in = t;
          act->out = SpecType::kBool;
          vstack_.back() = SpecType::kBool;
          return true;
        }
        if (t == SpecType::kBool) return refuse("arithmetic on a TROOF");
        act->in = t;
        switch (op) {
          case ast::UnOp::kSquar:
            act->kind = SpecAct::Kind::kSquar;
            act->out = t;
            return true;
          case ast::UnOp::kUnsquar:
          case ast::UnOp::kFlip:
            // rt::op_unary computes both in double; the domain check
            // is inline and the throw goes through op_unary itself.
            act->kind = op == ast::UnOp::kUnsquar ? SpecAct::Kind::kUnsquar
                                                  : SpecAct::Kind::kFlip;
            act->out = SpecType::kDbl;
            vstack_.back() = SpecType::kDbl;
            return true;
          default:
            return refuse("unknown unary operator");
        }
      }
      case Op::kCast: {
        if (n < 1) return refuse(kBelowEntry);
        SpecType t = vstack_.back();
        auto target = spec_of(static_cast<ast::TypeKind>(in.a));
        if (!target) return refuse("cast to YARN or NOOB");
        if (*target == t) {
          act->kind = SpecAct::Kind::kCastNop;
          act->in = act->out = t;
          return true;
        }
        if (t == SpecType::kInt && *target == SpecType::kDbl) {
          act->kind = SpecAct::Kind::kCastIntToDbl;
          act->in = t;
          act->out = SpecType::kDbl;
          vstack_.back() = SpecType::kDbl;
          return true;
        }
        return refuse("cast other than NUMBR to NUMBAR");
      }
      case Op::kMe:
      case Op::kMahFrenz:
        if (n >= kMaxVstack) return refuse(kStackFull);
        act->kind = in.op == Op::kMe ? SpecAct::Kind::kMe
                                     : SpecAct::Kind::kMahFrenz;
        act->out = SpecType::kInt;
        vstack_.push_back(SpecType::kInt);
        return true;
      case Op::kBffPush:
        if (n < 1) return refuse(kBelowEntry);
        if (vstack_.back() != SpecType::kInt) {
          return refuse("target PE is not a NUMBR");
        }
        vstack_.pop_back();
        act->kind = SpecAct::Kind::kBffPush;
        act->in = SpecType::kInt;
        return true;
      case Op::kBffPop:
        act->kind = SpecAct::Kind::kBffPop;
        act->aux = in.a;
        return true;
      case Op::kJump: {
        act->kind = SpecAct::Kind::kJmp;
        act->aux = in.a;
        route_edge(pc, static_cast<std::size_t>(in.a));
        *edge = Edge::kDead;
        return true;
      }
      case Op::kJumpIfFalse: {
        if (n < 1) return refuse(kBelowEntry);
        SpecType t = vstack_.back();
        if (t == SpecType::kDbl) return refuse("branch on a NUMBAR");
        vstack_.pop_back();
        act->kind = SpecAct::Kind::kBranch;
        act->in = t;
        act->aux = in.a;
        route_edge(pc, static_cast<std::size_t>(in.a));
        return true;
      }
      default:
        return refuse("not specialized (runs on the VM)");
    }
  }

  [[nodiscard]] static std::optional<SpecType> bin_result(SpecType t,
                                                          ast::BinOp op) {
    using B = ast::BinOp;
    switch (t) {
      case SpecType::kInt:
        switch (op) {
          case B::kSum:
          case B::kDiff:
          case B::kProdukt:
          case B::kBiggr:
          case B::kSmallr:
            return SpecType::kInt;
          case B::kBothSaem:
          case B::kDiffrint:
          case B::kBigger:
          case B::kSmallrCmp:
            return SpecType::kBool;
          default:
            return std::nullopt;  // QUOSHUNT/MOD throw on zero
        }
      case SpecType::kDbl:
        switch (op) {
          case B::kSum:
          case B::kDiff:
          case B::kProdukt:
          case B::kBiggr:   // maxsd: NaN picks rhs, matching x>y?x:y
          case B::kSmallr:  // minsd: same shape
            return SpecType::kDbl;
          case B::kBigger:
          case B::kSmallrCmp:
          case B::kBothSaem:  // Value::saem(dbl,dbl) is IEEE ==
          case B::kDiffrint:
            return SpecType::kBool;
          default:
            return std::nullopt;
        }
      case SpecType::kBool:
        switch (op) {
          case B::kBothOf:
          case B::kEitherOf:
          case B::kWonOf:
          case B::kBothSaem:
          case B::kDiffrint:
            return SpecType::kBool;
          default:
            return std::nullopt;
        }
    }
    return std::nullopt;
  }

  bool arr_access(std::int32_t slot, bool store, bool remote,
                  SpecAct* act) {
    if (local_ix_.count(slot) != 0) return refuse("slot used as a scalar");
    const vm::DeclMeta* m = frame_decl(slot);
    // Private arrays need SRSLY (typed lanes, identity store cast);
    // symmetric arrays are always typed 8-byte lanes, and their accesses
    // keep the VM's schedule_yield/sim-time behavior because the
    // specialized helper goes through the same rt::sym_read/write. UR
    // reads need a symmetric array (the VM throws otherwise).
    if (m == nullptr || !m->is_array || (!m->symmetric && !m->srsly)) {
      return refuse("not a SRSLY or symmetric array of this frame");
    }
    if (remote && !m->symmetric) return refuse("UR on a private array");
    auto elem = spec_of(m->elem);
    if (!elem || *elem == SpecType::kBool) {
      return refuse("array lanes are not NUMBR/NUMBAR");
    }
    if (arrs_.count(slot) == 0 && arrs_.size() >= kMaxArrs) {
      return refuse("tracked-array limit");
    }
    const std::size_t n = vstack_.size();
    if (store) {
      // Stack: ... index value(top). Pops both.
      // A NUMBR into NUMBAR lanes converts, as the VM's lane cast does.
      if (n < 2) return refuse(kBelowEntry);
      SpecType v = vstack_[n - 1];
      bool converts = v == SpecType::kInt && *elem == SpecType::kDbl;
      if ((v != *elem && !converts) || vstack_[n - 2] != SpecType::kInt) {
        return refuse("value or index type does not match the lanes");
      }
      vstack_.pop_back();
      vstack_.pop_back();
      act->kind = SpecAct::Kind::kArrStore;
      act->in = v;
      act->out = *elem;
    } else {
      if (n < 1) return refuse(kBelowEntry);
      if (vstack_[n - 1] != SpecType::kInt) {
        return refuse("index is not a NUMBR");
      }
      vstack_.back() = *elem;
      act->kind = remote ? SpecAct::Kind::kArrLoadRemote
                         : SpecAct::Kind::kArrLoad;
      act->out = *elem;
    }
    arrs_[slot] = *elem;
    act->aux = slot;
    return true;
  }

  // ---- plan assembly ---------------------------------------------------

  [[nodiscard]] bool viable() const {
    if (acts_.size() < 3) return false;
    for (const SpecAct& a : acts_) {
      switch (a.kind) {
        case SpecAct::Kind::kBin:
        case SpecAct::Kind::kNot:
        case SpecAct::Kind::kSquar:
        case SpecAct::Kind::kLoadLocal:
        case SpecAct::Kind::kStoreLocal:
        case SpecAct::Kind::kDeclare:
        case SpecAct::Kind::kDeclareZero:
        case SpecAct::Kind::kArrLoad:
        case SpecAct::Kind::kArrStore:
        case SpecAct::Kind::kArrLoadRemote:
        case SpecAct::Kind::kUnsquar:
        case SpecAct::Kind::kFlip:
        case SpecAct::Kind::kCastIntToDbl:
          return true;
        default:
          break;
      }
    }
    return false;
  }

  RegionPlan finalize() {
    RegionPlan plan;
    plan.lo = lo_;
    plan.hi = hi_;
    plan.acts = std::move(acts_);
    plan.vstack_at = std::move(vstack_at_);
    plan.max_depth = max_depth_;
    plan.end_reason = why_;

    // Locals: one bank quad each; the two hottest always-integer locals
    // get the free callee-saved GPRs (linear scan by static use count —
    // every local's live range spans the whole region, so density is the
    // whole ordering).
    for (std::size_t i = 0; i < locals_.size(); ++i) {
      SpecLocal sl;
      sl.slot = locals_[i].slot;
      sl.bank = static_cast<std::int32_t>(kMaxVstack + i);
      sl.int_only = locals_[i].int_only;
      sl.uses = locals_[i].uses;
      plan.locals.push_back(sl);
    }
    static constexpr std::int32_t kCalleeSavedHomes[] = {15, 5};  // r15, rbp
    std::vector<std::size_t> order(plan.locals.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return plan.locals[a].uses > plan.locals[b].uses;
    });
    std::size_t next_reg = 0;
    for (std::size_t ix : order) {
      if (next_reg >= std::size(kCalleeSavedHomes)) break;
      if (!plan.locals[ix].int_only) continue;
      plan.locals[ix].reg = kCalleeSavedHomes[next_reg++];
    }
    plan.bank_slots =
        static_cast<std::int32_t>(kMaxVstack + plan.locals.size());

    // Guards, in slot order for determinism: scalar guards write their
    // payload into the local's bank slot.
    for (const auto& [slot, ix] : local_ix_) {
      const LocalRec& rec = locals_[static_cast<std::size_t>(ix)];
      if (!rec.guard) continue;
      SpecGuard g;
      g.slot = slot;
      g.kind = *rec.guard;
      if (g.kind == SpecGuardKind::kScalarInt ||
          g.kind == SpecGuardKind::kScalarDbl ||
          g.kind == SpecGuardKind::kScalarBool) {
        g.bank = plan.locals[static_cast<std::size_t>(ix)].bank;
      }
      plan.guards.push_back(g);
    }
    for (const auto& [slot, elem] : arrs_) {
      SpecGuard g;
      g.slot = slot;
      const vm::DeclMeta* m = frame_decl(slot);
      if (m != nullptr && m->symmetric) {
        g.kind = elem == SpecType::kInt ? SpecGuardKind::kSymArrInt
                                        : SpecGuardKind::kSymArrDbl;
      } else {
        g.kind = elem == SpecType::kInt ? SpecGuardKind::kArrInt
                                        : SpecGuardKind::kArrDbl;
      }
      plan.guards.push_back(g);
    }

    // Exits: one materialization + writeback plan per recorded edge.
    for (const ExitSnap& e : exit_snaps_) {
      SpecExit x;
      x.at_pc = e.at_pc;
      x.target = e.target;
      x.vstack = e.snap.vstack;
      for (const auto& [slot, ix] : local_ix_) {
        SlotSt st = resolve(e.snap, slot);
        const LocalRec& rec = locals_[static_cast<std::size_t>(ix)];
        SpecWriteback wb;
        wb.local = ix;
        wb.slot = slot;
        if (slot == SpecLocal::kItSlot) {
          if (!st.typed) continue;
          wb.kind = SpecWriteback::Kind::kIt;
          wb.type = st.type;
        } else if (st.unknown) {
          continue;  // untouched on this path, cell untouched at runtime
        } else if (!st.bound) {
          if (!rec.entry_bound) continue;  // was (and stayed) unbound
          wb.kind = SpecWriteback::Kind::kUnbind;
        } else if (!st.typed) {
          continue;  // shape-guarded, never written: cell untouched
        } else if (st.from_decl) {
          wb.kind = SpecWriteback::Kind::kDeclare;
          wb.decl = frame_.decl_of.at(slot);
          wb.type = st.type;
        } else {
          wb.kind = SpecWriteback::Kind::kStore;
          wb.type = st.type;
        }
        x.writebacks.push_back(wb);
      }
      plan.exits.push_back(std::move(x));
    }
    for (const SpecExit& x : internal_exits_) plan.exits.push_back(x);
    std::stable_sort(plan.exits.begin(), plan.exits.end(),
                     [](const SpecExit& a, const SpecExit& b) {
                       return a.at_pc < b.at_pc;
                     });

    // Step batches: one check per basic block. Leaders are the entry,
    // every jump target, every post-branch pc and every pc after a
    // throwing specialized op (array bounds, UNSQUAR/FLIP domain, TXT MAH
    // BFF range) — so a throwing op is always the last charged op of its
    // batch and the charge is VM-exact.
    std::set<std::size_t> leaders{lo_};
    for (std::size_t pc = lo_; pc < hi_; ++pc) {
      if (pc < jump_target_.size() && jump_target_[pc]) leaders.insert(pc);
      bool ends_block = false;
      switch (plan.acts[pc - lo_].kind) {
        case SpecAct::Kind::kJmp:
        case SpecAct::Kind::kBranch:
        case SpecAct::Kind::kArrLoad:
        case SpecAct::Kind::kArrStore:
        case SpecAct::Kind::kArrLoadRemote:
        case SpecAct::Kind::kUnsquar:
        case SpecAct::Kind::kFlip:
        case SpecAct::Kind::kBffPush:
          ends_block = true;
          break;
        default:
          break;
      }
      if (ends_block && pc + 1 < hi_) leaders.insert(pc + 1);
    }
    for (auto it = leaders.begin(); it != leaders.end(); ++it) {
      auto next = std::next(it);
      std::size_t end = next == leaders.end() ? hi_ : *next;
      plan.segments.push_back(
          {*it, static_cast<std::int32_t>(end - *it)});
    }
    return plan;
  }

 public:
  // The emitter needs no list of internal edges: a branch with no exit
  // at its pc is internal.
  const vm::Chunk& chunk_;
  const FrameInfo& frame_;
  const std::vector<bool>& jump_target_;
  std::size_t lo_;
  std::size_t hi_ = 0;

 private:
  struct ExitSnap {
    std::size_t at_pc;
    std::size_t target;
    Snap snap;
  };

  std::vector<SpecType> vstack_;
  std::map<std::int32_t, SlotSt> state_;
  std::map<std::int32_t, std::int32_t> local_ix_;
  std::vector<LocalRec> locals_;
  std::map<std::int32_t, SpecType> arrs_;
  std::vector<SpecAct> acts_;
  std::vector<std::vector<SpecType>> vstack_at_;
  std::map<std::size_t, Snap> canon_;
  std::multimap<std::size_t, std::pair<std::size_t, Snap>> pending_;
  struct Join {
    std::size_t from_pc;
    std::size_t target;
    Snap snap;
    std::vector<SpecWriteback> wbs;
  };

  std::vector<ExitSnap> exit_snaps_;
  std::vector<Join> joins_;
  std::vector<SpecExit> internal_exits_;
  std::uint32_t max_depth_ = 0;
  std::string why_;       // why the walk stopped at hi_
  std::string refusal_;   // step()'s reason for refusing an op
};

std::vector<FrameInfo> frame_infos(const vm::Chunk& chunk) {
  std::vector<FrameInfo> frames;
  FrameInfo main;
  main.begin = 0;
  main.end = chunk.funcs.empty()
                 ? chunk.code.size()
                 : static_cast<std::size_t>(chunk.funcs.front().entry);
  frames.push_back(main);
  for (std::size_t f = 0; f < chunk.funcs.size(); ++f) {
    FrameInfo fi;
    fi.begin = chunk.funcs[f].entry;
    fi.end = f + 1 < chunk.funcs.size()
                 ? static_cast<std::size_t>(chunk.funcs[f + 1].entry)
                 : chunk.code.size();
    frames.push_back(fi);
  }
  for (FrameInfo& fi : frames) {
    for (std::size_t pc = fi.begin; pc < fi.end; ++pc) {
      const vm::Instr& in = chunk.code[pc];
      if (in.op != Op::kDeclare) continue;
      const vm::DeclMeta& m =
          chunk.decls[static_cast<std::size_t>(in.a)];
      // The chunk compiler gives every lexical decl a fresh slot, so this
      // map is one-to-one within a frame.
      fi.decl_of.emplace(m.slot, in.a);
    }
  }
  return frames;
}

}  // namespace

SpecPlan analyze_chunk(const vm::Chunk& chunk) {
  SpecPlan plan;
  std::vector<bool> jump_target(chunk.code.size(), false);
  for (const vm::Instr& in : chunk.code) {
    if (in.op == Op::kJump || in.op == Op::kJumpIfFalse) {
      auto t = static_cast<std::size_t>(in.a);
      if (t < jump_target.size()) jump_target[t] = true;
    }
  }
  for (const vm::FuncMeta& f : chunk.funcs) {
    if (f.entry < jump_target.size()) jump_target[f.entry] = true;
  }

  for (const FrameInfo& frame : frame_infos(chunk)) {
    std::size_t pc = frame.begin;
    while (pc < frame.end) {
      RegionSim sim(chunk, frame, jump_target, pc);
      std::optional<RegionPlan> region = sim.run();
      if (region) {
        std::size_t hi = region->hi;
        plan.bank_slots = std::max(plan.bank_slots, region->bank_slots);
        plan.regions.push_back(std::move(*region));
        pc = hi;
      } else {
        // Nothing (or too little) specializes here; skip past whatever
        // the failed attempt covered so the scan stays linear.
        pc = std::max(pc + 1, sim.hi_);
      }
    }
  }
  return plan;
}

std::string describe_plan(const vm::Chunk& chunk, const SpecPlan& plan) {
  std::ostringstream os;
  os << "jit-spec plan: " << plan.regions.size() << " region(s), bank "
     << plan.bank_slots << " quads\n";
  for (const RegionPlan& r : plan.regions) {
    os << "region [" << r.lo << ", " << r.hi << ") depth<=" << r.max_depth
       << "\n";
    for (const SpecGuard& g : r.guards) {
      static const char* const kGuardNames[] = {
          "scalar-numbr",   "scalar-numbar", "scalar-troof",
          "scalar-shape",   "unbound",       "array-numbr",
          "array-numbar",   "sym-array-numbr", "sym-array-numbar"};
      os << "  guard slot " << g.slot << " "
         << kGuardNames[static_cast<int>(g.kind)];
      if (g.bank >= 0) os << " -> bank[" << g.bank << "]";
      os << "\n";
    }
    for (const SpecLocal& l : r.locals) {
      os << "  local ";
      if (l.slot == SpecLocal::kItSlot) {
        os << "IT";
      } else {
        os << "slot " << l.slot;
      }
      if (l.reg == 15) {
        os << " -> r15";
      } else if (l.reg == 5) {
        os << " -> rbp";
      } else {
        os << " -> bank[" << l.bank << "]";
      }
      os << " uses=" << l.uses << (l.int_only ? "" : " numbar") << "\n";
    }
    for (std::size_t pc = r.lo; pc < r.hi; ++pc) {
      const SpecAct& a = r.acts[pc - r.lo];
      static const char* const kActNames[] = {
          "const",      "load-local",  "store-local", "declare",
          "declare-0",  "unbind",      "bin",         "not",
          "squar",      "int->numbar", "cast-nop",    "pop",
          "me",         "mah-frenz",   "arr-load",    "arr-store",
          "jmp",        "branch",      "unsquar",     "flip",
          "arr-load-ur", "bff-push",   "bff-pop"};
      os << "  pc " << pc << " " << vm::op_name(chunk.code[pc].op) << " => "
         << kActNames[static_cast<int>(a.kind)];
      if (a.kind == SpecAct::Kind::kBin) {
        os << " "
           << ast::bin_op_name(
                  static_cast<ast::BinOp>(a.aux & kSpecBinOpMask))
           << " " << type_name(a.in);
        if ((a.aux & kSpecBinPromoteLhs) != 0) os << " (promote lhs)";
        if ((a.aux & kSpecBinPromoteRhs) != 0) os << " (promote rhs)";
      }
      if ((a.kind == SpecAct::Kind::kStoreLocal ||
           a.kind == SpecAct::Kind::kDeclare) &&
          a.in != a.out) {
        os << " (numbr->numbar)";
      }
      if (const SpecExit* e = r.exit_at(pc)) {
        if (e->internal) {
          os << " [internal -> pc " << e->target << ", writeback "
             << e->writebacks.size() << "]";
        } else {
          os << " [exit -> pc " << e->target << ", materialize "
             << e->vstack.size() << ", writeback " << e->writebacks.size()
             << "]";
        }
      }
      os << "\n";
    }
    if (const SpecExit* e = r.exit_at(r.hi)) {
      os << "  fallthrough exit -> pc " << e->target << ", materialize "
         << e->vstack.size() << ", writeback " << e->writebacks.size()
         << "\n";
    }
    os << "  ends at pc " << r.hi << ": " << r.end_reason << "\n";
    os << "  segments:";
    for (const SpecSegment& s : r.segments) {
      os << " [" << s.first_pc << "+" << s.steps << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace lol::codegen
