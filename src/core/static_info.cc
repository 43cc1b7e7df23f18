#include "core/static_info.h"

#include "wasm/opcode.h"

namespace wasabi::core {

using wasm::OpClass;

EndedBlock
endedBlock(uint32_t func_idx, const ControlFrame &frame)
{
    uint32_t end = frame.kind == BlockKind::If && frame.elseIdx
                       ? *frame.elseIdx
                       : frame.endIdx;
    uint32_t begin = frame.kind == BlockKind::Else && frame.elseIdx
                         ? *frame.elseIdx
                         : frame.beginIdx;
    return EndedBlock{frame.kind, Location{func_idx, end},
                      Location{func_idx, begin}};
}

BranchTarget
branchTarget(const AbstractState &state, uint32_t func_idx, uint32_t label)
{
    return BranchTarget{label,
                        Location{func_idx, state.resolveLabel(label)}};
}

BrTableEntry
brTableEntry(const AbstractState &state, uint32_t func_idx, uint32_t label)
{
    BrTableEntry e;
    e.target = branchTarget(state, func_idx, label);
    for (const ControlFrame &f : state.traversedFrames(label))
        e.ended.push_back(endedBlock(func_idx, f));
    return e;
}

void
recordSideTables(const AbstractState &state, uint32_t func_idx, uint32_t i,
                 const wasm::Instr &instr, SideTables &tables)
{
    const uint64_t loc = packLoc({func_idx, i});
    OpClass cls = wasm::opInfo(instr.op).cls;
    if (cls == OpClass::End || cls == OpClass::Else) {
        // At an `else` the innermost frame is still the `if`, so its
        // region ends here and began at the `if`.
        EndedBlock b = endedBlock(func_idx, state.frames().back());
        tables.blockEnds[loc] = BlockEndInfo{b.kind, b.begin};
    }
    if (!state.reachable())
        return;
    if (cls == OpClass::Br || cls == OpClass::BrIf) {
        tables.brTargets[loc] = branchTarget(state, func_idx, instr.imm.idx);
    } else if (cls == OpClass::BrTable) {
        BrTableInfo table;
        for (size_t k = 0; k + 1 < instr.table.size(); ++k)
            table.cases.push_back(
                brTableEntry(state, func_idx, instr.table[k]));
        table.defaultCase =
            brTableEntry(state, func_idx, instr.table.back());
        tables.brTables[loc] = std::move(table);
    }
}

} // namespace wasabi::core
