#include "core/intrinsic_info.h"

#include "core/control_stack.h"

namespace wasabi::core {

std::shared_ptr<StaticInfo>
buildIntrinsicInfo(const wasm::Module &m, HookSet kinds)
{
    auto info = std::make_shared<StaticInfo>();
    info->original = m;
    info->importModule = "wasabi";
    info->numOrigImports = m.numImportedFunctions();
    info->splitI64 = false; // engine values never cross an i32 ABI
    info->instrumentedHooks = kinds;

    for (uint32_t f = info->numOrigImports;
         f < static_cast<uint32_t>(m.functions.size()); ++f) {
        const std::vector<wasm::Instr> &body = m.functions[f].body;
        AbstractState state(m, f);
        for (uint32_t i = 0; i < body.size(); ++i) {
            recordSideTables(state, f, i, body[i], *info);
            state.apply(body[i], i);
        }
    }

    return info;
}

} // namespace wasabi::core
