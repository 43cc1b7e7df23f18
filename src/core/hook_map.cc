#include "core/hook_map.h"

#include <unordered_map>

namespace wasabi::core {

using wasm::FuncType;
using wasm::ValType;

std::string
mangledName(const HookSpec &spec)
{
    auto withTypes = [&spec](std::string base) {
        for (ValType t : spec.types) {
            base += "_";
            base += wasm::name(t);
        }
        return base;
    };
    switch (spec.kind) {
      case HookKind::Nop: return "nop";
      case HookKind::Unreachable: return "unreachable";
      case HookKind::MemorySize: return "memory.size";
      case HookKind::MemoryGrow: return "memory.grow";
      case HookKind::Select: return withTypes("select");
      case HookKind::Drop: return withTypes("drop");
      // Per-opcode hooks use the instruction mnemonic directly, as in
      // the paper ("one low-level hook per instruction", Table 3).
      case HookKind::Load:
      case HookKind::Store:
      case HookKind::Const:
      case HookKind::Unary:
      case HookKind::Binary:
        return wasm::name(spec.op);
      // The mnemonic alone ("local.get") does not determine the
      // variable's type, so these are additionally monomorphized by
      // the referenced variable's type.
      case HookKind::Global:
      case HookKind::Local:
        return withTypes(wasm::name(spec.op));
      case HookKind::Call:
        if (spec.post)
            return withTypes("call_post");
        return withTypes(spec.indirect ? "call_pre_indirect" : "call_pre");
      case HookKind::Return: return withTypes("return");
      case HookKind::Begin:
        return std::string("begin_") + name(spec.block);
      case HookKind::End:
        return std::string("end_") + name(spec.block);
      case HookKind::If: return "if_cond";
      case HookKind::Br: return "br";
      case HookKind::BrIf: return "br_if";
      case HookKind::BrTable: return "br_table";
      case HookKind::Start: return "start";
    }
    return "?";
}

namespace {

std::optional<ValType>
valTypeByName(const std::string &s)
{
    for (int i = 0; i < wasm::kNumValTypes; ++i) {
        ValType t = static_cast<ValType>(i);
        if (s == wasm::name(t))
            return t;
    }
    return std::nullopt;
}

std::optional<BlockKind>
blockKindByName(const std::string &s)
{
    for (BlockKind k :
         {BlockKind::Function, BlockKind::Block, BlockKind::Loop,
          BlockKind::If, BlockKind::Else}) {
        if (s == name(k))
            return k;
    }
    return std::nullopt;
}

/** Parse the "_i32_f64"-style type suffix starting at @p pos. */
std::optional<std::vector<ValType>>
parseTypeList(const std::string &s, size_t pos)
{
    std::vector<ValType> out;
    while (pos < s.size()) {
        if (s[pos] != '_')
            return std::nullopt;
        size_t next = s.find('_', pos + 1);
        std::string tok =
            s.substr(pos + 1, next == std::string::npos
                                  ? std::string::npos
                                  : next - pos - 1);
        std::optional<ValType> t = valTypeByName(tok);
        if (!t)
            return std::nullopt;
        out.push_back(*t);
        pos = next == std::string::npos ? s.size() : next;
    }
    return out;
}

/** True if @p s equals @p prefix or continues it with '_'. */
bool
hasPrefix(const std::string &s, const std::string &prefix)
{
    if (s.size() < prefix.size() ||
        s.compare(0, prefix.size(), prefix) != 0)
        return false;
    return s.size() == prefix.size() || s[prefix.size()] == '_';
}

const std::unordered_map<std::string, wasm::Opcode> &
opcodeByMnemonic()
{
    static const auto *map = [] {
        auto *m = new std::unordered_map<std::string, wasm::Opcode>;
        for (wasm::Opcode op : wasm::allOpcodes())
            m->emplace(wasm::name(op), op);
        return m;
    }();
    return *map;
}

} // namespace

std::optional<HookSpec>
parseHookName(const std::string &name)
{
    // Fixed names of the monomorphic hooks.
    static const std::unordered_map<std::string, HookKind> fixed = {
        {"nop", HookKind::Nop},
        {"unreachable", HookKind::Unreachable},
        {"memory.size", HookKind::MemorySize},
        {"memory.grow", HookKind::MemoryGrow},
        {"if_cond", HookKind::If},
        {"br", HookKind::Br},
        {"br_if", HookKind::BrIf},
        {"br_table", HookKind::BrTable},
        {"start", HookKind::Start},
    };
    if (auto it = fixed.find(name); it != fixed.end())
        return HookSpec{.kind = it->second};

    auto typed = [&name](size_t prefix_len)
        -> std::optional<std::vector<ValType>> {
        return parseTypeList(name, prefix_len);
    };

    // Begin/end hooks, keyed by block kind.
    for (auto [prefix, kind] :
         {std::pair{"begin_", HookKind::Begin},
          std::pair{"end_", HookKind::End}}) {
        size_t len = std::string(prefix).size();
        if (name.compare(0, len, prefix) == 0) {
            if (auto b = blockKindByName(name.substr(len)))
                return HookSpec{.kind = kind, .block = *b};
            return std::nullopt;
        }
    }

    // Polymorphic hooks monomorphized by value types.
    if (hasPrefix(name, "select")) {
        auto types = typed(6);
        if (types && types->size() == 1)
            return HookSpec{.kind = HookKind::Select, .types = *types};
        return std::nullopt;
    }
    if (hasPrefix(name, "drop")) {
        auto types = typed(4);
        if (types && types->size() == 1)
            return HookSpec{.kind = HookKind::Drop, .types = *types};
        return std::nullopt;
    }
    if (hasPrefix(name, "call_pre_indirect")) {
        auto types = typed(17);
        if (types)
            return HookSpec{.kind = HookKind::Call,
                            .types = *types,
                            .indirect = true};
        return std::nullopt;
    }
    if (hasPrefix(name, "call_pre")) {
        auto types = typed(8);
        if (types)
            return HookSpec{.kind = HookKind::Call, .types = *types};
        return std::nullopt;
    }
    if (hasPrefix(name, "call_post")) {
        auto types = typed(9);
        if (types)
            return HookSpec{.kind = HookKind::Call,
                            .types = *types,
                            .post = true};
        return std::nullopt;
    }
    if (hasPrefix(name, "return")) {
        auto types = typed(6);
        if (types)
            return HookSpec{.kind = HookKind::Return, .types = *types};
        return std::nullopt;
    }

    // Variable hooks: "<mnemonic>_<type>" (mnemonic has no '_').
    if (name.rfind("local.", 0) == 0 || name.rfind("global.", 0) == 0) {
        size_t us = name.find('_');
        if (us == std::string::npos)
            return std::nullopt;
        auto it = opcodeByMnemonic().find(name.substr(0, us));
        auto types = typed(us);
        if (it == opcodeByMnemonic().end() || !types ||
            types->size() != 1)
            return std::nullopt;
        wasm::OpClass cls = wasm::opInfo(it->second).cls;
        bool is_local = cls == wasm::OpClass::LocalGet ||
                        cls == wasm::OpClass::LocalSet ||
                        cls == wasm::OpClass::LocalTee;
        bool is_global = cls == wasm::OpClass::GlobalGet ||
                         cls == wasm::OpClass::GlobalSet;
        if (!is_local && !is_global)
            return std::nullopt;
        return HookSpec{.kind = is_local ? HookKind::Local
                                         : HookKind::Global,
                        .op = it->second,
                        .types = *types};
    }

    // Per-opcode hooks: the instruction mnemonic itself.
    if (auto it = opcodeByMnemonic().find(name);
        it != opcodeByMnemonic().end()) {
        std::optional<HookKind> kind;
        switch (wasm::opInfo(it->second).cls) {
          case wasm::OpClass::Load: kind = HookKind::Load; break;
          case wasm::OpClass::Store: kind = HookKind::Store; break;
          case wasm::OpClass::Const: kind = HookKind::Const; break;
          case wasm::OpClass::Unary: kind = HookKind::Unary; break;
          case wasm::OpClass::Binary: kind = HookKind::Binary; break;
          default: break;
        }
        if (kind)
            return HookSpec{.kind = *kind, .op = it->second};
    }
    return std::nullopt;
}

wasm::FuncType
lowLevelType(const HookSpec &spec, bool split_i64)
{
    std::vector<ValType> params{ValType::I32, ValType::I32}; // location

    auto push = [&params, split_i64](ValType t) {
        if (t == ValType::I64 && split_i64) {
            params.push_back(ValType::I32); // low half
            params.push_back(ValType::I32); // high half
        } else {
            params.push_back(t);
        }
    };

    const wasm::OpInfo &info = wasm::opInfo(spec.op);
    switch (spec.kind) {
      case HookKind::Nop:
      case HookKind::Unreachable:
      case HookKind::Br:
      case HookKind::Begin:
      case HookKind::Start:
        break;
      case HookKind::End:
        // End hooks additionally receive the instruction index of the
        // matching block begin (paper Table 3: "end hooks receive
        // location of the end and of the matching block begin").
        push(ValType::I32);
        break;
      case HookKind::MemorySize:
        push(ValType::I32); // current size
        break;
      case HookKind::MemoryGrow:
        push(ValType::I32); // delta
        push(ValType::I32); // previous size
        break;
      case HookKind::Select:
        push(ValType::I32); // condition
        push(spec.types.at(0));
        push(spec.types.at(0));
        break;
      case HookKind::Drop:
        push(spec.types.at(0));
        break;
      case HookKind::Load:
        push(ValType::I32);  // address operand
        push(info.out);      // loaded value
        break;
      case HookKind::Store:
        push(ValType::I32);  // address operand
        push(info.in[1]);    // stored value
        break;
      case HookKind::Const:
        push(info.out);
        break;
      case HookKind::Unary:
        push(info.in[0]);
        push(info.out);
        break;
      case HookKind::Binary:
        push(info.in[0]);
        push(info.in[1]);
        push(info.out);
        break;
      case HookKind::Global:
      case HookKind::Local:
        // The variable index is static; only the value is dynamic.
        push(spec.types.at(0));
        break;
      case HookKind::Call:
        if (!spec.post && spec.indirect)
            push(ValType::I32); // runtime table index
        for (ValType t : spec.types)
            push(t);
        break;
      case HookKind::Return:
        for (ValType t : spec.types)
            push(t);
        break;
      case HookKind::If:
      case HookKind::BrIf:
        push(ValType::I32); // condition
        break;
      case HookKind::BrTable:
        push(ValType::I32); // runtime table index
        break;
    }
    return FuncType(std::move(params), {});
}

} // namespace wasabi::core
