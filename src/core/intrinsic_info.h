/**
 * @file
 * StaticInfo construction for the engine-intrinsic instrumentation
 * mode (DESIGN.md §13): the same branch-target / br_table / block-end
 * side tables the instrumenter records while rewriting, filled by the
 * same recordSideTables() walk but with no code emission — the
 * module is left untouched and `hooks` stays empty (there are no
 * low-level hook imports in intrinsic mode).
 */

#ifndef WASABI_CORE_INTRINSIC_INFO_H
#define WASABI_CORE_INTRINSIC_INFO_H

#include <memory>

#include "core/hook_kind.h"
#include "core/static_info.h"
#include "wasm/module.h"

namespace wasabi::core {

/**
 * Build the static info an intrinsic-mode run of @p m with hook set
 * @p kinds needs: brTargets/brTables/blockEnds keyed by original
 * locations (recorded by recordSideTables(), as `instrument()`
 * records them), `instrumentedHooks` set to
 * @p kinds, and an unmodified copy of the module. @p m must validate.
 */
std::shared_ptr<StaticInfo> buildIntrinsicInfo(const wasm::Module &m,
                                               HookSet kinds);

} // namespace wasabi::core

#endif // WASABI_CORE_INTRINSIC_INFO_H
