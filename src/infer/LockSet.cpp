//===--- LockSet.cpp - Normalized sets of lock names ---------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "infer/LockSet.h"

#include <algorithm>

using namespace lockin;

bool LockSet::insert(const LockName &L) {
  // Joining effects first keeps the set canonical: Fine(p, ro) + Fine(p, rw)
  // is one lock with rw, not two entries.
  LockName ToAdd = L;
  for (const LockName &Held : Locks) {
    if (Held.sameLockIgnoringEffect(ToAdd)) {
      Effect Joined = effectJoin(Held.effect(), ToAdd.effect());
      if (Joined == Held.effect())
        return false; // already subsumed
      ToAdd = ToAdd.withEffect(Joined);
      break;
    }
  }
  for (const LockName &Held : Locks)
    if (ToAdd.leq(Held))
      return false;
  // Drop everything the new lock subsumes.
  Locks.erase(std::remove_if(Locks.begin(), Locks.end(),
                             [&](const LockName &Held) {
                               return Held.leq(ToAdd);
                             }),
              Locks.end());
  Locks.push_back(std::move(ToAdd));
  return true;
}

bool LockSet::merge(const LockSet &Other) {
  bool Changed = false;
  Locks.reserve(Locks.size() + Other.Locks.size());
  for (const LockName &L : Other.Locks)
    Changed |= insert(L);
  return Changed;
}

bool LockSet::covers(const LockName &L) const {
  for (const LockName &Held : Locks)
    if (L.leq(Held))
      return true;
  return false;
}

bool LockSet::contains(const LockName &L) const {
  return std::find(Locks.begin(), Locks.end(), L) != Locks.end();
}

bool LockSet::operator==(const LockSet &Other) const {
  if (Locks.size() != Other.Locks.size())
    return false;
  for (const LockName &L : Locks)
    if (!Other.contains(L))
      return false;
  return true;
}

size_t LockSet::contentHash() const {
  size_t H = Locks.size();
  for (const LockName &L : Locks)
    H = H * 1099511628211u ^ L.hash();
  return H;
}

bool LockSet::sameSequence(const LockSet &Other) const {
  if (Locks.size() != Other.Locks.size())
    return false;
  for (size_t I = 0; I < Locks.size(); ++I)
    if (!(Locks[I] == Other.Locks[I]))
      return false;
  return true;
}

std::string LockSet::str() const {
  std::vector<std::string> Names;
  Names.reserve(Locks.size());
  for (const LockName &L : Locks)
    Names.push_back(L.str());
  std::sort(Names.begin(), Names.end());
  std::string Out = "{";
  for (size_t I = 0; I < Names.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += Names[I];
  }
  return Out + "}";
}
