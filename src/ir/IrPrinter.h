//===--- IrPrinter.h - Textual IR dump --------------------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_IR_IRPRINTER_H
#define LOCKIN_IR_IRPRINTER_H

#include "ir/Ir.h"

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace lockin {
namespace ir {

/// Maps an atomic section id to the text printed inside acquireAll(...).
/// When absent (or returning ""), sections print as plain `atomic`.
using SectionAnnotator = std::function<std::string(uint32_t SectionId)>;

/// Where one atomic section's body sits in a printed function: the byte
/// range [Begin, End) of \p Out between its `atomic #N {` line and its
/// closing `}` line.
struct SectionSpan {
  uint32_t SectionId = 0;
  size_t Begin = 0;
  size_t End = 0;
};

/// Appends one function to \p Out. Printing appends in place, so it takes
/// time linear in the text it produces, however deep the nesting. Without
/// an annotator, \p Spans (if given) receives one span per section in
/// lexical order, so a nested section's span follows, and lies inside,
/// the span of the section around it.
void printIrFunction(const IrFunction &F, std::string &Out,
                     const SectionAnnotator &Annotate = {},
                     std::vector<SectionSpan> *Spans = nullptr);

/// Renders the whole module. With an annotator this shows the transformed
/// output program: atomic sections become acquireAll(...)/releaseAll pairs.
std::string printIrModule(const IrModule &M,
                          const SectionAnnotator &Annotate = {});

} // namespace ir
} // namespace lockin

#endif // LOCKIN_IR_IRPRINTER_H
