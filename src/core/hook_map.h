/**
 * @file
 * Low-level hook specifications for on-demand monomorphization
 * (paper §2.4.3).
 *
 * WebAssembly functions must have fixed, monomorphic types, while
 * several instructions are polymorphic (drop, select, call, return,
 * locals/globals). Wasabi therefore generates one monomorphic
 * low-level hook per (instruction kind, concrete type) combination
 * that actually occurs in the program. The instrumenter deduplicates
 * these specs: each function keeps its own hook table, and the tables
 * are merged in function order into dense hook ids (see instrument()).
 */

#ifndef WASABI_CORE_HOOK_MAP_H
#define WASABI_CORE_HOOK_MAP_H

#include <optional>
#include <string>
#include <vector>

#include "core/hook_kind.h"
#include "wasm/opcode.h"
#include "wasm/types.h"

namespace wasabi::core {

/**
 * Identity of one monomorphic low-level hook. Per-opcode hooks
 * (const, unary, binary, load, store, local, global) are keyed by
 * their opcode; polymorphic hooks (drop/select/call/return) by their
 * concrete value types. Begin/end hooks are keyed by block kind.
 */
struct HookSpec {
    HookKind kind = HookKind::Nop;
    /** Opcode for per-opcode hooks; Opcode::Nop otherwise. */
    wasm::Opcode op = wasm::Opcode::Nop;
    /** Concrete types of the polymorphic hooks:
     *  drop/select: the value type; call (pre): parameter types;
     *  call post / return: result types. */
    std::vector<wasm::ValType> types;
    /** Call hooks: true for call_indirect (extra table-index param). */
    bool indirect = false;
    /** true for the call_post variant of HookKind::Call. */
    bool post = false;
    /** Block kind for begin/end hooks. */
    BlockKind block = BlockKind::Block;

    bool operator==(const HookSpec &other) const = default;
};

/** Hash of a HookSpec, for the instrumenter's hook tables: keying on
 * the spec spares building a mangled name per emitted hook call. */
struct HookSpecHash {
    size_t
    operator()(const HookSpec &spec) const
    {
        size_t h = static_cast<size_t>(spec.kind) |
                   static_cast<size_t>(spec.op) << 8 |
                   static_cast<size_t>(spec.block) << 16 |
                   static_cast<size_t>(spec.indirect) << 24 |
                   static_cast<size_t>(spec.post) << 25;
        for (wasm::ValType t : spec.types)
            h = h * 31 + static_cast<size_t>(t);
        return h;
    }
};

/**
 * Unique import name of the hook, e.g. "i32.add", "drop_i64",
 * "call_pre_i32_f64", "call_post_i32", "begin_loop". Two specs the
 * instrumenter generates have the same name iff they are equal (see
 * parseHookName), so its hook tables key on the spec itself.
 */
std::string mangledName(const HookSpec &spec);

/**
 * Inverse of mangledName: reconstruct the HookSpec from a hook-import
 * name, or nullopt if the name is not a well-formed hook name. For
 * every spec the instrumenter can generate,
 * `parseHookName(mangledName(spec)) == spec`. Used by the static
 * checker (`wasabi check`) to recover hook identities from an
 * instrumented binary's import section.
 */
std::optional<HookSpec> parseHookName(const std::string &name);

/**
 * The low-level hook's function type. Every hook takes two leading
 * i32 parameters (the location: function and instruction index)
 * followed by its dynamic arguments; with @p split_i64, every i64
 * argument is passed as two i32s (low, high), since the paper's hooks
 * live in JavaScript which cannot receive i64 values (§2.4.6).
 * Hooks never return values.
 */
wasm::FuncType lowLevelType(const HookSpec &spec, bool split_i64);

} // namespace wasabi::core

#endif // WASABI_CORE_HOOK_MAP_H
