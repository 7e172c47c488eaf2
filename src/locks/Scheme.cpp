//===--- Scheme.cpp - Abstract lock schemes (§3.3) -----------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "locks/Scheme.h"

#include <cassert>

using namespace lockin;

AbstractLockScheme::~AbstractLockScheme() = default;

AbstractLockScheme::Lock AbstractLockScheme::exprLock(const LockExpr &Path,
                                                      Effect Eff) {
  const auto &Ops = Path.ops();
  Lock L = varLock(Path.base(), Ops.empty() ? Eff : Effect::RO);
  for (size_t I = 0; I < Ops.size(); ++I) {
    Effect StepEff = (I + 1 == Ops.size()) ? Eff : Effect::RO;
    switch (Ops[I].K) {
    case LockOp::Kind::Deref:
      L = starDeref(L, StepEff);
      break;
    case LockOp::Kind::Field:
      L = plusField(L, Ops[I].FieldIdx, StepEff);
      break;
    case LockOp::Kind::Index:
      // Array offsets use the pseudo-field -1 in offset-based schemes.
      L = plusField(L, -1, StepEff);
      break;
    }
  }
  return L;
}

namespace {

//===----------------------------------------------------------------------===//
// Σ_ε
//===----------------------------------------------------------------------===//

class EffectScheme final : public AbstractLockScheme {
public:
  // Lock 0 = rw (top), lock 1 = ro.
  bool leq(Lock A, Lock B) override { return B == TopLock || A == B; }
  Lock join(Lock A, Lock B) override {
    return (A == TopLock || B == TopLock) ? TopLock : A;
  }
  Lock varLock(const ir::Variable *, Effect Eff) override {
    return Eff == Effect::RW ? 0u : 1u;
  }
  Lock plusField(Lock, int, Effect Eff) override {
    return Eff == Effect::RW ? 0u : 1u;
  }
  Lock starDeref(Lock, Effect Eff) override {
    return Eff == Effect::RW ? 0u : 1u;
  }
  std::string str(Lock L) override { return L == TopLock ? "rw" : "ro"; }
};

//===----------------------------------------------------------------------===//
// Σ_i
//===----------------------------------------------------------------------===//

class FieldScheme final : public AbstractLockScheme {
public:
  FieldScheme() {
    // Lock 0 is ⊤ = F (all offsets).
    Sets.push_back({});
  }

  bool leq(Lock A, Lock B) override {
    if (B == TopLock)
      return true;
    if (A == TopLock)
      return false;
    const std::set<int> &SA = Sets[A];
    const std::set<int> &SB = Sets[B];
    for (int I : SA)
      if (!SB.count(I))
        return false;
    return true;
  }

  Lock join(Lock A, Lock B) override {
    if (A == TopLock || B == TopLock)
      return TopLock;
    std::set<int> U = Sets[A];
    U.insert(Sets[B].begin(), Sets[B].end());
    return intern(std::move(U));
  }

  Lock varLock(const ir::Variable *, Effect) override { return TopLock; }
  Lock plusField(Lock, int FieldIdx, Effect) override {
    return intern({FieldIdx});
  }
  Lock starDeref(Lock, Effect) override { return TopLock; }

  std::string str(Lock L) override {
    if (L == TopLock)
      return "F";
    std::string Out = "{";
    bool First = true;
    for (int I : Sets[L]) {
      if (!First)
        Out += ",";
      First = false;
      Out += std::to_string(I);
    }
    return Out + "}";
  }

private:
  Lock intern(std::set<int> S) {
    auto [It, Inserted] = Interned.try_emplace(S, 0);
    if (Inserted) {
      It->second = static_cast<Lock>(Sets.size());
      Sets.push_back(std::move(S));
    }
    return It->second;
  }

  std::vector<std::set<int>> Sets;
  std::map<std::set<int>, Lock> Interned;
};

//===----------------------------------------------------------------------===//
// Σ_k
//===----------------------------------------------------------------------===//

class KLimitScheme final : public AbstractLockScheme {
public:
  explicit KLimitScheme(unsigned K) : K(K) {
    Lengths.push_back(0);
    Keys.push_back("TOP");
  }

  bool leq(Lock A, Lock B) override { return B == TopLock || A == B; }
  Lock join(Lock A, Lock B) override { return A == B ? A : TopLock; }

  Lock varLock(const ir::Variable *Var, Effect) override {
    return intern("&" + Var->name() + "#" +
                      std::to_string(reinterpret_cast<uintptr_t>(Var)),
                  0);
  }

  Lock plusField(Lock L, int FieldIdx, Effect) override {
    if (L == TopLock)
      return TopLock;
    unsigned Len = Lengths[L] + 1;
    if (Len > K)
      return TopLock;
    return intern(Keys[L] + "+" + std::to_string(FieldIdx), Len);
  }

  Lock starDeref(Lock L, Effect) override {
    if (L == TopLock)
      return TopLock;
    unsigned Len = Lengths[L] + 1;
    if (Len > K)
      return TopLock;
    return intern("*" + Keys[L], Len);
  }

  std::string str(Lock L) override { return Keys[L]; }

private:
  Lock intern(std::string Key, unsigned Len) {
    auto [It, Inserted] = Interned.try_emplace(Key, 0);
    if (Inserted) {
      It->second = static_cast<Lock>(Keys.size());
      Keys.push_back(std::move(Key));
      Lengths.push_back(Len);
    }
    return It->second;
  }

  unsigned K;
  std::vector<std::string> Keys;
  std::vector<unsigned> Lengths;
  std::map<std::string, Lock> Interned;
};

//===----------------------------------------------------------------------===//
// Σ_≡
//===----------------------------------------------------------------------===//

class RegionScheme final : public AbstractLockScheme {
public:
  explicit RegionScheme(const PointsToAnalysis &PT) : PT(PT) {}

  bool leq(Lock A, Lock B) override { return B == TopLock || A == B; }
  Lock join(Lock A, Lock B) override { return A == B ? A : TopLock; }

  Lock varLock(const ir::Variable *Var, Effect) override {
    return fromRegion(PT.regionOfVarCell(Var));
  }
  Lock plusField(Lock L, int, Effect) override { return L; }
  Lock starDeref(Lock L, Effect) override {
    if (L == TopLock)
      return TopLock;
    return fromRegion(PT.derefRegion(toRegion(L)));
  }

  std::string str(Lock L) override {
    if (L == TopLock)
      return "TOP";
    return "region#" + std::to_string(toRegion(L)) + " " +
           PT.describeRegion(toRegion(L));
  }

private:
  Lock fromRegion(RegionId R) const {
    return R == InvalidRegion ? TopLock : static_cast<Lock>(R + 1);
  }
  RegionId toRegion(Lock L) const {
    assert(L != TopLock && "top has no region");
    return static_cast<RegionId>(L - 1);
  }

  const PointsToAnalysis &PT;
};

//===----------------------------------------------------------------------===//
// Σ_1 × Σ_2
//===----------------------------------------------------------------------===//

class ProductScheme final : public AbstractLockScheme {
public:
  ProductScheme(AbstractLockScheme &First, AbstractLockScheme &Second)
      : First(First), Second(Second) {
    // Lock 0 is (⊤, ⊤).
    intern(TopLock, TopLock);
  }

  bool leq(Lock A, Lock B) override {
    return First.leq(Pairs[A].first, Pairs[B].first) &&
           Second.leq(Pairs[A].second, Pairs[B].second);
  }
  Lock join(Lock A, Lock B) override {
    return intern(First.join(Pairs[A].first, Pairs[B].first),
                  Second.join(Pairs[A].second, Pairs[B].second));
  }
  Lock varLock(const ir::Variable *Var, Effect Eff) override {
    return intern(First.varLock(Var, Eff), Second.varLock(Var, Eff));
  }
  Lock plusField(Lock L, int FieldIdx, Effect Eff) override {
    return intern(First.plusField(Pairs[L].first, FieldIdx, Eff),
                  Second.plusField(Pairs[L].second, FieldIdx, Eff));
  }
  Lock starDeref(Lock L, Effect Eff) override {
    return intern(First.starDeref(Pairs[L].first, Eff),
                  Second.starDeref(Pairs[L].second, Eff));
  }
  std::string str(Lock L) override {
    return '(' + First.str(Pairs[L].first) + ", " +
           Second.str(Pairs[L].second) + ")";
  }

private:
  Lock intern(Lock A, Lock B) {
    auto [It, Inserted] = Interned.try_emplace({A, B}, 0);
    if (Inserted) {
      It->second = static_cast<Lock>(Pairs.size());
      Pairs.emplace_back(A, B);
    }
    return It->second;
  }

  AbstractLockScheme &First;
  AbstractLockScheme &Second;
  std::vector<std::pair<Lock, Lock>> Pairs;
  std::map<std::pair<Lock, Lock>, Lock> Interned;
};

} // namespace

std::unique_ptr<AbstractLockScheme> lockin::makeEffectScheme() {
  return std::make_unique<EffectScheme>();
}
std::unique_ptr<AbstractLockScheme> lockin::makeFieldScheme() {
  return std::make_unique<FieldScheme>();
}
std::unique_ptr<AbstractLockScheme> lockin::makeKLimitScheme(unsigned K) {
  return std::make_unique<KLimitScheme>(K);
}
std::unique_ptr<AbstractLockScheme>
lockin::makeRegionScheme(const PointsToAnalysis &PT) {
  return std::make_unique<RegionScheme>(PT);
}
std::unique_ptr<AbstractLockScheme>
lockin::makeProductScheme(AbstractLockScheme &First,
                          AbstractLockScheme &Second) {
  return std::make_unique<ProductScheme>(First, Second);
}
