//===--- IrPrinter.h - Textual IR dump --------------------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_IR_IRPRINTER_H
#define LOCKIN_IR_IRPRINTER_H

#include "ir/Ir.h"

#include <functional>
#include <string>

namespace lockin {
namespace ir {

/// Maps an atomic section id to the text printed inside acquireAll(...).
/// When absent (or returning ""), sections print as plain `atomic`.
using SectionAnnotator = std::function<std::string(uint32_t SectionId)>;

/// Appends one function to \p Out. Printing appends in place, so it takes
/// time linear in the text it produces, however deep the nesting.
void printIrFunction(const IrFunction &F, std::string &Out,
                     const SectionAnnotator &Annotate = {});

/// Renders the whole module. With an annotator this shows the transformed
/// output program: atomic sections become acquireAll(...)/releaseAll pairs.
std::string printIrModule(const IrModule &M,
                          const SectionAnnotator &Annotate = {});

} // namespace ir
} // namespace lockin

#endif // LOCKIN_IR_IRPRINTER_H
