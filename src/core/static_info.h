/**
 * @file
 * Static information produced during instrumentation and consumed by
 * the Wasabi runtime — the C++ equivalent of the `info` object the
 * paper's instrumenter generates alongside the instrumented binary
 * (Figure 2): resolved branch targets, br_table side tables with the
 * blocks ended by each entry, block begin/end matchings, the original
 * module, and the list of generated low-level hooks.
 */

#ifndef WASABI_CORE_STATIC_INFO_H
#define WASABI_CORE_STATIC_INFO_H

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/control_stack.h"
#include "core/hook_map.h"
#include "core/opt_plan.h"
#include "wasm/module.h"

namespace wasabi::core {

/** A code location in the *original* module: (function, instruction).
 * The instruction index kFunctionEntry denotes function entry. */
struct Location {
    uint32_t func = 0;
    uint32_t instr = 0;

    bool operator==(const Location &other) const = default;
};

/** Pack a location into a map key. */
inline uint64_t
packLoc(Location loc)
{
    return (static_cast<uint64_t>(loc.func) << 32) | loc.instr;
}

/** A statically resolved branch destination (paper §2.4.4): the raw
 * relative label plus the absolute location of the next instruction
 * executed if the branch is taken. */
struct BranchTarget {
    uint32_t label = 0;
    Location location;

    bool operator==(const BranchTarget &other) const = default;
};

/** One block "traversed" (left) by a branch (paper §2.4.5). */
struct EndedBlock {
    BlockKind kind = BlockKind::Block;
    Location end;   ///< location of the block's end instruction
    Location begin; ///< location of the block's begin

    bool operator==(const EndedBlock &other) const = default;
};

/** One resolved br_table entry with the blocks its jump ends. */
struct BrTableEntry {
    BranchTarget target;
    std::vector<EndedBlock> ended;

    bool operator==(const BrTableEntry &other) const = default;
};

/** Side table of one br_table instruction: per-case entries plus the
 * default; the low-level hook selects among them at runtime. */
struct BrTableInfo {
    std::vector<BrTableEntry> cases;
    BrTableEntry defaultCase;

    bool operator==(const BrTableInfo &other) const = default;
};

/** Begin/kind of the block closed at some end (or else) location. */
struct BlockEndInfo {
    BlockKind kind = BlockKind::Block;
    Location begin;

    bool operator==(const BlockEndInfo &other) const = default;
};

/** The branch and block side tables, keyed by packed original
 * location. Rewrite mode (`instrument()`) and intrinsic mode
 * (`buildIntrinsicInfo()`) both fill them with recordSideTables(). */
struct SideTables {
    /** Resolved targets of br and br_if instructions. */
    std::unordered_map<uint64_t, BranchTarget> brTargets;

    /** Side tables of br_table instructions. */
    std::unordered_map<uint64_t, BrTableInfo> brTables;

    /** Block info keyed by end (and else) locations. */
    std::unordered_map<uint64_t, BlockEndInfo> blockEnds;
};

/**
 * The block that frame @p frame of function @p func_idx spans. The
 * then-region of an if/else ends at its `else`, and the else-region
 * begins there; every other frame spans its own begin to its `end`.
 */
EndedBlock endedBlock(uint32_t func_idx, const ControlFrame &frame);

/** Where a branch to @p label, taken at @p state, lands (§2.4.4). */
BranchTarget branchTarget(const AbstractState &state, uint32_t func_idx,
                          uint32_t label);

/** The br_table entry for @p label: its resolved target plus the
 * blocks the jump ends, innermost first (paper §2.4.5). */
BrTableEntry brTableEntry(const AbstractState &state, uint32_t func_idx,
                          uint32_t label);

/**
 * Record the side tables of instruction @p instr at index @p i of
 * function @p func_idx, with @p state positioned before it. Block
 * ends (and elses) are recorded always; branch targets and br_table
 * side tables only at live branches.
 */
void recordSideTables(const AbstractState &state, uint32_t func_idx,
                      uint32_t i, const wasm::Instr &instr,
                      SideTables &tables);

/** All static information about one instrumentation run. */
class StaticInfo : public SideTables {
  public:
    /** The original, uninstrumented module (locations refer to it). */
    wasm::Module original;

    /** Import-module name used for hook imports (default "wasabi"). */
    std::string importModule;

    /** Number of functions the original module imports; hook imports
     * occupy indices [numOrigImports, numOrigImports + hooks.size()). */
    uint32_t numOrigImports = 0;

    /** Whether i64 hook arguments travel as (low, high) i32 pairs. */
    bool splitI64 = true;

    /** Generated low-level hooks, indexed by hook id. */
    std::vector<HookSpec> hooks;

    /** The hook kinds this run instrumented. */
    HookSet instrumentedHooks;

    /** The hook-optimization plan applied during instrumentation (set
     * iff `--optimize-hooks` was used); the checker verifies every
     * per-site deviation it licenses against the original module. */
    std::optional<HookOptimizationPlan> optimization;

    /** Function index of a hook id in the instrumented module. */
    uint32_t
    hookFuncIdx(uint32_t hook_id) const
    {
        return numOrigImports + hook_id;
    }

    /** Map a function index of the *instrumented* module back to the
     * original index space (hook imports have no original index and
     * must not be passed here). */
    uint32_t
    unmapFuncIdx(uint32_t instrumented_idx) const
    {
        if (instrumented_idx < numOrigImports)
            return instrumented_idx;
        return instrumented_idx - static_cast<uint32_t>(hooks.size());
    }

    /** Instruction at a location in the original module. */
    const wasm::Instr &
    instrAt(Location loc) const
    {
        return original.functions.at(loc.func).body.at(loc.instr);
    }

    /** Lookup helpers for the static checker (`wasabi check`); return
     * nullptr when no metadata was recorded at the location. @{ */
    const BranchTarget *
    findBrTarget(Location loc) const
    {
        auto it = brTargets.find(packLoc(loc));
        return it == brTargets.end() ? nullptr : &it->second;
    }

    const BrTableInfo *
    findBrTable(Location loc) const
    {
        auto it = brTables.find(packLoc(loc));
        return it == brTables.end() ? nullptr : &it->second;
    }

    const BlockEndInfo *
    findBlockEnd(Location loc) const
    {
        auto it = blockEnds.find(packLoc(loc));
        return it == blockEnds.end() ? nullptr : &it->second;
    }
    /** @} */
};

} // namespace wasabi::core

#endif // WASABI_CORE_STATIC_INFO_H
