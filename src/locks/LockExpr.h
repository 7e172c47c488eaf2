//===--- LockExpr.h - Expression locks (paths) ------------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fine-grain expression locks. A LockExpr is the inductive lock
/// construction of §3.3 applied to one expression: starting from the base
/// lock x̄ (which protects the cell &x), each op applies *_p^ε or +_p^ε.
/// Evaluating the path in a program state yields the single location the
/// lock protects, so these are fine-grain locks in the formal sense.
///
/// Array offsets carry a small integer index expression (IdxExpr) over
/// program variables and constants: these are the "computed offsets" a real
/// compiler sees for t->buckets[key % n]. The index contributes to the
/// k-limit size, and index variables are rewritten by the same backward
/// transfer machinery as pointer components.
///
/// Representation: IdxExpr nodes are immutable and created only by a
/// LockInterner (locks/Interner.h), which hash-conses them into an arena —
/// structurally equal index trees are one node, so equality is usually a
/// pointer compare and hash() reads a precomputed field. Whole paths are
/// likewise interned into LockPathNode flyweights identified by a 32-bit
/// LockId; LockName holds a pointer to the canonical node instead of an
/// inline copy of the path.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_LOCKS_LOCKEXPR_H
#define LOCKIN_LOCKS_LOCKEXPR_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lockin {

class LockInterner;

/// Bloom bit of one program variable in a path's 64-bit variable mask.
/// The transfer functions test the mask to skip locks a statement cannot
/// affect; false positives only cost the precise re-check, never
/// correctness.
inline uint64_t varBit(const ir::Variable *V) {
  return 1ull << ((reinterpret_cast<uintptr_t>(V) >> 4) & 63);
}

//===----------------------------------------------------------------------===//
// Index expressions
//===----------------------------------------------------------------------===//

/// Immutable integer expression tree used in array-offset lock components.
/// Nodes live in a LockInterner's arena and are shared by plain pointer;
/// within one interner, structural equality coincides with pointer
/// equality.
class IdxExpr {
public:
  enum class Kind { Const, VarVal, Bin };
  using Ptr = const IdxExpr *;

  Kind kind() const { return K; }
  int64_t constValue() const { return Value; }
  const ir::Variable *var() const { return Var; }
  ir::IntBinOp op() const { return Op; }
  Ptr lhs() const { return Lhs; }
  Ptr rhs() const { return Rhs; }

  /// Number of nodes; contributes to the k-limit. Precomputed.
  unsigned size() const { return Sz; }
  bool equals(const IdxExpr &Other) const;
  /// True if \p V appears as a VarVal leaf.
  bool mentionsVar(const ir::Variable *V) const;
  std::string str() const;
  /// Structural hash, folded at construction.
  size_t hash() const { return H; }
  /// Bloom mask over the VarVal leaves (union of the children's masks,
  /// folded at construction).
  uint64_t varMask() const { return VarMask; }

private:
  friend class LockInterner;
  IdxExpr() = default;

  Kind K = Kind::Const;
  unsigned Sz = 1;
  size_t H = 0;
  uint64_t VarMask = 0;
  int64_t Value = 0;
  const ir::Variable *Var = nullptr;
  ir::IntBinOp Op = ir::IntBinOp::Add;
  Ptr Lhs = nullptr;
  Ptr Rhs = nullptr;
};

//===----------------------------------------------------------------------===//
// Lock path expressions
//===----------------------------------------------------------------------===//

/// One step of a lock path. Trivially copyable: the index expression is a
/// pointer into the interner's arena.
struct LockOp {
  enum class Kind { Deref, Field, Index };

  Kind K;
  // Field: the struct and field index (for printing and identity).
  const StructDecl *Struct = nullptr;
  int FieldIdx = -1;
  // Index: the offset expression.
  IdxExpr::Ptr Idx = nullptr;

  static LockOp deref() { return {Kind::Deref, nullptr, -1, nullptr}; }
  static LockOp field(const StructDecl *SD, int Idx) {
    return {Kind::Field, SD, Idx, nullptr};
  }
  static LockOp index(IdxExpr::Ptr Idx) {
    return {Kind::Index, nullptr, -1, Idx};
  }

  bool operator==(const LockOp &Other) const;
};

/// A lock path: base variable plus a sequence of ops. The empty path is the
/// lock x̄ protecting the cell &base; each Deref moves to the pointed-to
/// cell, each Field/Index moves within an object.
class LockExpr {
public:
  explicit LockExpr(const ir::Variable *Base) : Base(Base) {}
  LockExpr(const ir::Variable *Base, std::vector<LockOp> Ops)
      : Base(Base), Ops(std::move(Ops)) {}

  const ir::Variable *base() const { return Base; }
  const std::vector<LockOp> &ops() const { return Ops; }

  LockExpr plusDeref() const {
    LockExpr E = *this;
    E.Ops.push_back(LockOp::deref());
    return E;
  }
  LockExpr plusField(const StructDecl *SD, int Idx) const {
    LockExpr E = *this;
    E.Ops.push_back(LockOp::field(SD, Idx));
    return E;
  }
  LockExpr plusIndex(IdxExpr::Ptr Idx) const {
    LockExpr E = *this;
    E.Ops.push_back(LockOp::index(Idx));
    return E;
  }

  /// Builds a new path with the first \p PrefixLen ops replaced by
  /// \p NewPrefix (base and ops); the remaining ops are appended.
  LockExpr withPrefix(const LockExpr &NewPrefix, size_t PrefixLen) const;

  /// Expression length for k-limiting: every Deref and Field counts 1;
  /// Index ops count the size of their index expression.
  unsigned size() const;

  /// True if the first Op is a Deref (i.e. the path depends on the value of
  /// the base variable rather than only its address).
  bool startsWithDeref() const {
    return !Ops.empty() && Ops.front().K == LockOp::Kind::Deref;
  }

  bool operator==(const LockExpr &Other) const;
  size_t hash() const;

  /// Bloom mask over every variable the path reads: the base plus all
  /// index-expression leaves. O(#ops): index subtrees carry precomputed
  /// masks.
  uint64_t varMask() const {
    uint64_t M = varBit(Base);
    for (const LockOp &Op : Ops)
      if (Op.K == LockOp::Kind::Index && Op.Idx)
        M |= Op.Idx->varMask();
    return M;
  }

  /// Source-ish rendering, e.g. "*((*t) + .buckets @ (key % 16))".
  std::string str() const;

private:
  const ir::Variable *Base;
  std::vector<LockOp> Ops;
};

//===----------------------------------------------------------------------===//
// Interned path flyweight
//===----------------------------------------------------------------------===//

/// Dense identity of an interned lock path, unique within one interner.
using LockId = uint32_t;

/// A lock path interned into a LockInterner's arena. There is one
/// canonical node per distinct path, so LockName equality over paths is a
/// pointer compare and Hash is read, not recomputed.
struct LockPathNode {
  LockExpr Path;
  LockId Id = 0;
  size_t Hash = 0; ///< == Path.hash()
  /// Bloom mask of the variables the path reads, folded once per node.
  uint64_t VarMask = 0;

  LockPathNode(LockExpr P, LockId Id, size_t Hash)
      : Path(std::move(P)), Id(Id), Hash(Hash), VarMask(Path.varMask()) {}

  size_t hash() const { return Hash; }
};

/// True if the two nodes denote the same path. Pointer equality settles it
/// within one interner; nodes of two interners (e.g. a cached summary and
/// a fresh run) differ by hash or else compare structurally.
inline bool samePath(const LockPathNode *A, const LockPathNode *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  if (A->Hash != B->Hash)
    return false;
  return A->Path == B->Path;
}

} // namespace lockin

#endif // LOCKIN_LOCKS_LOCKEXPR_H
