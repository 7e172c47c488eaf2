//===--- Programs.h - Generated inputs of the lockbench workloads -*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKBENCH_PROGRAMS_H
#define LOCKBENCH_PROGRAMS_H

#include <cstdint>
#include <string>
#include <vector>

namespace lockbench {

/// A long, shallow program: \p Funcs straight-line functions of scalar
/// arithmetic and branches over locals; one function in 16 wraps a
/// global update in a one-statement atomic section. Parse, sema and lower
/// scale with its length while inference sees only tiny sections.
std::string shallowProgram(uint64_t Seed, unsigned Funcs);

/// Shape of the daemon workload's unit (bench_service's generator).
struct UnitShape {
  unsigned Workers;
  unsigned SectionsPer;
  unsigned Chains;
  unsigned Depth;
};

/// bench_service's inference-heavy unit: Workers functions of SectionsPer
/// atomic sections, each looping Depth^4 times over Chains shared lists
/// through a walker and a mutually recursive helper pair. \p Salts holds
/// one constant per worker, written into that worker's first section, so
/// changing one salt edits exactly one function.
std::string serviceUnit(const UnitShape &Shape,
                        const std::vector<uint64_t> &Salts);

} // namespace lockbench

#endif // LOCKBENCH_PROGRAMS_H
