#include "core/instrument.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "core/control_stack.h"
#include "wasm/name_section.h"

namespace wasabi::core {

using wasm::FuncType;
using wasm::Function;
using wasm::Instr;
using wasm::Module;
using wasm::Opcode;
using wasm::OpClass;
using wasm::OpInfo;
using wasm::ValType;

namespace {

/** Base of hook call indices: a body calls kHookBase + the hook's id
 * in its function's own hook table, patched to the merged id in a
 * final pass. Keeping hook targets function-local makes
 * per-function instrumentation independent and hence parallelizable. */
constexpr uint32_t kHookBase = 0x80000000u;

/** Per-function instrumentation output. */
struct FuncOut {
    std::vector<Instr> body;
    std::vector<ValType> extraLocals;
    SideTables tables;
    /** The function's hook table: specs in first-use order, indexed
     * by local hook id. */
    std::vector<HookSpec> hooks;
};

/** Instruments a single function (runs on a worker thread). */
class FuncInstrumenter {
  public:
    FuncInstrumenter(const Module &m, uint32_t func_idx, HookSet hooks,
                     const InstrumentOptions &opts)
        : m_(m), funcIdx_(func_idx), hooks_(hooks), opts_(opts),
          func_(m.functions.at(func_idx)), state_(m, func_idx),
          plan_(opts.plan),
          funcDead_(plan_ && plan_->deadFunctions.count(func_idx) != 0)
    {
        firstScratch_ =
            static_cast<uint32_t>(m.funcType(func_idx).params.size() +
                                  func_.locals.size());
    }

    FuncOut
    run()
    {
        // A call-graph-dead function never runs: no entry hooks.
        if (funcDead_) {
            for (uint32_t i = 0; i < func_.body.size(); ++i) {
                instrumentInstr(func_.body[i], i);
                state_.apply(func_.body[i], i);
            }
            return std::move(out_);
        }
        // Function-entry hooks.
        if (hooks_.has(HookKind::Start) && m_.start &&
            *m_.start == funcIdx_) {
            emitLoc(kFunctionEntry);
            emitHookCall(HookSpec{.kind = HookKind::Start});
        }
        if (hooks_.has(HookKind::Begin)) {
            emitLoc(kFunctionEntry);
            emitHookCall(HookSpec{.kind = HookKind::Begin,
                                  .block = BlockKind::Function});
        }

        for (uint32_t i = 0; i < func_.body.size(); ++i) {
            instrumentInstr(func_.body[i], i);
            state_.apply(func_.body[i], i);
        }
        return std::move(out_);
    }

  private:
    // ----- emission helpers ------------------------------------------

    void emit(Instr instr) { out_.body.push_back(std::move(instr)); }

    /** Push the two location arguments (function, instruction). */
    void
    emitLoc(uint32_t instr_idx)
    {
        emit(Instr::i32Const(funcIdx_));
        emit(Instr::i32Const(instr_idx));
    }

    /** Call into the (deduplicated) low-level hook for @p spec, by
     * its id in this function's hook table. */
    void
    emitHookCall(const HookSpec &spec)
    {
        auto [it, inserted] = hookIds_.try_emplace(
            spec, static_cast<uint32_t>(out_.hooks.size()));
        if (inserted)
            out_.hooks.push_back(spec);
        emit(Instr::call(kHookBase + it->second));
    }

    /** Scratch local of type @p t for slot @p slot; slots separate
     * concurrently-live temporaries within one instrumentation unit. */
    uint32_t
    scratch(ValType t, int slot)
    {
        auto key = std::pair(t, slot);
        auto it = scratch_.find(key);
        if (it != scratch_.end())
            return it->second;
        uint32_t idx =
            firstScratch_ + static_cast<uint32_t>(out_.extraLocals.size());
        out_.extraLocals.push_back(t);
        scratch_.emplace(key, idx);
        return idx;
    }

    /** Push the value of a local as hook argument(s): i64 values are
     * split into (low, high) i32 halves when the split ABI is on
     * (paper §2.4.6, Table 3 row 6). */
    void
    emitLocalArg(uint32_t local, ValType t)
    {
        emit(Instr::localGet(local));
        if (t == ValType::I64 && opts_.splitI64) {
            emit(Instr(Opcode::I32WrapI64)); // low half
            emit(Instr::localGet(local));
            emit(Instr::i64Const(32));
            emit(Instr(Opcode::I64ShrU));
            emit(Instr(Opcode::I32WrapI64)); // high half
        }
    }

    /** Push a global's value as hook argument(s). */
    void
    emitGlobalArg(uint32_t global, ValType t)
    {
        if (t == ValType::I64 && opts_.splitI64) {
            uint32_t tmp = scratch(t, 0);
            emit(Instr::globalGet(global));
            emit(Instr::localSet(tmp));
            emitLocalArg(tmp, t);
        } else {
            emit(Instr::globalGet(global));
        }
    }

    /** Emit the end-hook call for one traversed frame (§2.4.5). */
    void
    emitEndHookFor(const ControlFrame &f)
    {
        EndedBlock b = endedBlock(funcIdx_, f);
        emitLoc(b.end.instr);
        emit(Instr::i32Const(b.begin.instr));
        emitHookCall(HookSpec{.kind = HookKind::End, .block = f.kind});
    }

    // ----- optimization-plan queries ----------------------------------

    /** Hooks at instruction @p i are skipped by the plan (the site is
     * CFG-unreachable, or the whole function is call-graph dead). */
    bool
    planSkips(uint32_t i) const
    {
        return funcDead_ ||
               (plan_ &&
                plan_->skips.count(packLoc({funcIdx_, i})) != 0);
    }

    bool
    planElidesBegin(uint32_t i) const
    {
        return plan_ &&
               plan_->elidedBegins.count(packLoc({funcIdx_, i})) != 0;
    }

    bool
    planElidesEnd(uint32_t i) const
    {
        return plan_ &&
               plan_->elidedEnds.count(packLoc({funcIdx_, i})) != 0;
    }

    /** The plan's unique call_indirect target claim at @p i, if any. */
    const HookOptimizationPlan::CallTargetClaim *
    planCallTarget(uint32_t i) const
    {
        if (!plan_)
            return nullptr;
        auto it = plan_->constCallTargets.find(packLoc({funcIdx_, i}));
        return it == plan_->constCallTargets.end() ? nullptr
                                                   : &it->second;
    }

    /** Constant br_table index proven by the plan, or nullptr. */
    const uint32_t *
    planConstIndex(uint32_t i) const
    {
        if (!plan_)
            return nullptr;
        auto it = plan_->constBrTableIndex.find(packLoc({funcIdx_, i}));
        return it == plan_->constBrTableIndex.end() ? nullptr
                                                    : &it->second;
    }

    // ----- per-instruction instrumentation ----------------------------

    void
    instrumentInstr(const Instr &instr, uint32_t i)
    {
        const OpInfo &info = wasm::opInfo(instr.op);
        const bool live = state_.reachable();

        // Side tables are recorded whether or not hooks are emitted
        // here: the runtime and checker key them off live sites.
        recordSideTables(state_, funcIdx_, i, instr, out_.tables);

        if (planSkips(i)) {
            // The pass pipeline proved this site can never execute;
            // copy it unchanged.
            emit(instr);
            return;
        }

        if (!live) {
            // Dead code never executes: copy it unchanged. (Its types
            // may be unknowable anyway, cf. drop in unreachable code.)
            // Exception: an `else` whose *then*-branch ended dead still
            // guards a reachable else-region and needs its begin hook,
            // provided the `if` itself was entered live.
            if (info.cls == OpClass::Else &&
                !state_.frames().back().deadEntry) {
                emit(instr);
                if (hooks_.has(HookKind::Begin)) {
                    emitLoc(i);
                    emitHookCall(HookSpec{.kind = HookKind::Begin,
                                          .block = BlockKind::Else});
                }
                return;
            }
            emit(instr);
            return;
        }

        switch (info.cls) {
          case OpClass::Nop:
            emit(instr);
            if (hooks_.has(HookKind::Nop)) {
                emitLoc(i);
                emitHookCall(HookSpec{.kind = HookKind::Nop});
            }
            break;

          case OpClass::Unreachable:
            // The hook must run *before* the trapping instruction.
            if (hooks_.has(HookKind::Unreachable)) {
                emitLoc(i);
                emitHookCall(HookSpec{.kind = HookKind::Unreachable});
            }
            emit(instr);
            break;

          case OpClass::Block:
          case OpClass::Loop: {
            emit(instr);
            if (hooks_.has(HookKind::Begin) && !planElidesBegin(i)) {
                emitLoc(i);
                emitHookCall(HookSpec{
                    .kind = HookKind::Begin,
                    .block = info.cls == OpClass::Block ? BlockKind::Block
                                                        : BlockKind::Loop});
            }
            break;
          }

          case OpClass::If: {
            if (hooks_.has(HookKind::If)) {
                uint32_t c = scratch(ValType::I32, 0);
                emit(Instr::localTee(c));
                emitLoc(i);
                emit(Instr::localGet(c));
                emitHookCall(HookSpec{.kind = HookKind::If});
            }
            emit(instr);
            if (hooks_.has(HookKind::Begin)) {
                emitLoc(i);
                emitHookCall(HookSpec{.kind = HookKind::Begin,
                                      .block = BlockKind::If});
            }
            break;
          }

          case OpClass::Else: {
            // Exiting the then-region: fire its end hook first.
            if (hooks_.has(HookKind::End)) {
                const ControlFrame &f = state_.frames().back();
                emitLoc(i);
                emit(Instr::i32Const(f.beginIdx));
                emitHookCall(HookSpec{.kind = HookKind::End,
                                      .block = BlockKind::If});
            }
            emit(instr);
            if (hooks_.has(HookKind::Begin)) {
                emitLoc(i);
                emitHookCall(HookSpec{.kind = HookKind::Begin,
                                      .block = BlockKind::Else});
            }
            break;
          }

          case OpClass::End: {
            if (hooks_.has(HookKind::End) && !planElidesEnd(i)) {
                const ControlFrame &f = state_.frames().back();
                emitLoc(i);
                emit(Instr::i32Const(endedBlock(funcIdx_, f).begin.instr));
                emitHookCall(
                    HookSpec{.kind = HookKind::End, .block = f.kind});
            }
            emit(instr);
            break;
          }

          case OpClass::Br: {
            uint32_t label = instr.imm.idx;
            if (hooks_.has(HookKind::Br)) {
                emitLoc(i);
                emitHookCall(HookSpec{.kind = HookKind::Br});
            }
            if (hooks_.has(HookKind::End)) {
                for (const ControlFrame &f : state_.traversedFrames(label))
                    emitEndHookFor(f);
            }
            emit(instr);
            break;
          }

          case OpClass::BrIf: {
            uint32_t label = instr.imm.idx;
            bool want_hook = hooks_.has(HookKind::BrIf);
            bool want_ends = hooks_.has(HookKind::End);
            if (want_hook || want_ends) {
                uint32_t c = scratch(ValType::I32, 0);
                emit(Instr::localTee(c));
                if (want_hook) {
                    emitLoc(i);
                    emit(Instr::localGet(c));
                    emitHookCall(HookSpec{.kind = HookKind::BrIf});
                }
                if (want_ends) {
                    // End hooks fire only if the branch is taken.
                    emit(Instr::localGet(c));
                    emit(Instr::blockStart(Opcode::If, std::nullopt));
                    for (const ControlFrame &f :
                         state_.traversedFrames(label)) {
                        emitEndHookFor(f);
                    }
                    emit(Instr(Opcode::End));
                }
            }
            emit(instr);
            break;
          }

          case OpClass::BrTable: {
            // Which branch is taken — and thus which blocks are left —
            // is only known at runtime; store a side table and let the
            // low-level hook dispatch (paper §2.4.5).
            if (const uint32_t *cidx = planConstIndex(i)) {
                // The index operand is a compile-time constant: the
                // taken label — and the frames it exits — are known
                // statically, so the runtime side-table dispatch
                // narrows to a plain br hook plus static end hooks.
                size_t sel = std::min<size_t>(
                    *cidx, instr.table.size() - 1);
                uint32_t label = instr.table[sel];
                out_.tables.brTargets[packLoc({funcIdx_, i})] =
                    branchTarget(state_, funcIdx_, label);
                if (hooks_.has(HookKind::BrTable)) {
                    emitLoc(i);
                    emitHookCall(HookSpec{.kind = HookKind::Br});
                }
                if (hooks_.has(HookKind::End)) {
                    for (const ControlFrame &f :
                         state_.traversedFrames(label))
                        emitEndHookFor(f);
                }
                emit(instr);
                break;
            }

            if (hooks_.has(HookKind::BrTable) ||
                hooks_.has(HookKind::End)) {
                uint32_t idx = scratch(ValType::I32, 0);
                emit(Instr::localTee(idx));
                emitLoc(i);
                emit(Instr::localGet(idx));
                emitHookCall(HookSpec{.kind = HookKind::BrTable});
            }
            emit(instr);
            break;
          }

          case OpClass::Return: {
            const std::vector<ValType> &results =
                m_.funcType(funcIdx_).results;
            if (hooks_.has(HookKind::Return)) {
                HookSpec spec{.kind = HookKind::Return, .types = results};
                if (results.empty()) {
                    emitLoc(i);
                    emitHookCall(spec);
                } else {
                    uint32_t r = scratch(results[0], 0);
                    emit(Instr::localTee(r));
                    emitLoc(i);
                    emitLocalArg(r, results[0]);
                    emitHookCall(spec);
                }
            }
            if (hooks_.has(HookKind::End)) {
                for (const ControlFrame &f :
                     state_.allFramesInnermostFirst()) {
                    emitEndHookFor(f);
                }
            }
            emit(instr);
            break;
          }

          case OpClass::Call:
          case OpClass::CallIndirect: {
            bool indirect = info.cls == OpClass::CallIndirect;
            const FuncType &type = indirect
                                       ? m_.types.at(instr.imm.idx)
                                       : m_.funcType(instr.imm.idx);
            if (!hooks_.has(HookKind::Call)) {
                emit(instr);
                break;
            }
            // A plan-claimed constant-index call_indirect narrows to
            // the direct call_pre variant: the table-index hook
            // argument is dropped (the runtime reports the statically
            // known target instead), but the index value itself is
            // still saved/restored for the actual call.
            bool narrowed = indirect && planCallTarget(i) != nullptr;
            int nargs = static_cast<int>(type.params.size());
            uint32_t tbl = 0;
            if (indirect) {
                tbl = scratch(ValType::I32, nargs);
                emit(Instr::localSet(tbl));
            }
            // Save arguments into fresh locals (top of stack first).
            for (int j = nargs - 1; j >= 0; --j)
                emit(Instr::localSet(scratch(type.params[j], j)));
            // call_pre hook: loc, (table index,) args.
            emitLoc(i);
            if (indirect && !narrowed)
                emit(Instr::localGet(tbl));
            for (int j = 0; j < nargs; ++j)
                emitLocalArg(scratch(type.params[j], j), type.params[j]);
            emitHookCall(HookSpec{.kind = HookKind::Call,
                                  .types = type.params,
                                  .indirect = indirect && !narrowed});
            // Restore arguments and perform the call.
            for (int j = 0; j < nargs; ++j)
                emit(Instr::localGet(scratch(type.params[j], j)));
            if (indirect)
                emit(Instr::localGet(tbl));
            emit(instr);
            // call_post hook: loc, results.
            HookSpec post{.kind = HookKind::Call,
                          .types = type.results,
                          .post = true};
            if (type.results.empty()) {
                emitLoc(i);
                emitHookCall(post);
            } else {
                uint32_t r = scratch(type.results[0], nargs + 1);
                emit(Instr::localTee(r));
                emitLoc(i);
                emitLocalArg(r, type.results[0]);
                emitHookCall(post);
            }
            break;
          }

          case OpClass::Drop: {
            std::optional<ValType> t = state_.top(0);
            assert(t && "drop input type must be known in live code");
            if (!hooks_.has(HookKind::Drop)) {
                emit(instr);
                break;
            }
            // The hook call consumes the value in place of the drop
            // (Table 3 row 4).
            uint32_t v = scratch(*t, 0);
            emit(Instr::localSet(v));
            emitLoc(i);
            emitLocalArg(v, *t);
            emitHookCall(HookSpec{.kind = HookKind::Drop, .types = {*t}});
            break;
          }

          case OpClass::Select: {
            std::optional<ValType> t = state_.top(1);
            assert(t && "select input type must be known in live code");
            if (!hooks_.has(HookKind::Select)) {
                emit(instr);
                break;
            }
            uint32_t c = scratch(ValType::I32, 0);
            uint32_t a = scratch(*t, 1);
            uint32_t b = scratch(*t, 2);
            emit(Instr::localSet(c));
            emit(Instr::localSet(b));
            emit(Instr::localTee(a));
            emit(Instr::localGet(b));
            emit(Instr::localGet(c));
            emit(instr); // the select itself
            emitLoc(i);
            emit(Instr::localGet(c));
            emitLocalArg(a, *t);
            emitLocalArg(b, *t);
            emitHookCall(
                HookSpec{.kind = HookKind::Select, .types = {*t}});
            break;
          }

          case OpClass::LocalGet:
          case OpClass::LocalSet:
          case OpClass::LocalTee: {
            emit(instr);
            if (hooks_.has(HookKind::Local)) {
                ValType t = localType(instr.imm.idx);
                emitLoc(i);
                emitLocalArg(instr.imm.idx, t);
                emitHookCall(HookSpec{.kind = HookKind::Local,
                                      .op = instr.op,
                                      .types = {t}});
            }
            break;
          }

          case OpClass::GlobalGet:
          case OpClass::GlobalSet: {
            emit(instr);
            if (hooks_.has(HookKind::Global)) {
                ValType t = m_.globals.at(instr.imm.idx).type;
                emitLoc(i);
                emitGlobalArg(instr.imm.idx, t);
                emitHookCall(HookSpec{.kind = HookKind::Global,
                                      .op = instr.op,
                                      .types = {t}});
            }
            break;
          }

          case OpClass::Load: {
            if (!hooks_.has(HookKind::Load)) {
                emit(instr);
                break;
            }
            uint32_t addr = scratch(ValType::I32, 0);
            uint32_t v = scratch(info.out, 1);
            emit(Instr::localTee(addr));
            emit(instr);
            emit(Instr::localTee(v));
            emitLoc(i);
            emit(Instr::localGet(addr));
            emitLocalArg(v, info.out);
            emitHookCall(
                HookSpec{.kind = HookKind::Load, .op = instr.op});
            break;
          }

          case OpClass::Store: {
            if (!hooks_.has(HookKind::Store)) {
                emit(instr);
                break;
            }
            ValType vt = info.in[1];
            uint32_t addr = scratch(ValType::I32, 0);
            uint32_t v = scratch(vt, 1);
            emit(Instr::localSet(v));
            emit(Instr::localTee(addr));
            emit(Instr::localGet(v));
            emit(instr);
            emitLoc(i);
            emit(Instr::localGet(addr));
            emitLocalArg(v, vt);
            emitHookCall(
                HookSpec{.kind = HookKind::Store, .op = instr.op});
            break;
          }

          case OpClass::MemorySize: {
            emit(instr);
            if (hooks_.has(HookKind::MemorySize)) {
                uint32_t s = scratch(ValType::I32, 0);
                emit(Instr::localTee(s));
                emitLoc(i);
                emit(Instr::localGet(s));
                emitHookCall(HookSpec{.kind = HookKind::MemorySize});
            }
            break;
          }

          case OpClass::MemoryGrow: {
            if (!hooks_.has(HookKind::MemoryGrow)) {
                emit(instr);
                break;
            }
            uint32_t d = scratch(ValType::I32, 0);
            uint32_t p = scratch(ValType::I32, 1);
            emit(Instr::localTee(d));
            emit(instr);
            emit(Instr::localTee(p));
            emitLoc(i);
            emit(Instr::localGet(d));
            emit(Instr::localGet(p));
            emitHookCall(HookSpec{.kind = HookKind::MemoryGrow});
            break;
          }

          case OpClass::Const: {
            emit(instr);
            if (hooks_.has(HookKind::Const)) {
                emitLoc(i);
                if (instr.op == Opcode::I64Const && opts_.splitI64) {
                    // The halves are known statically.
                    emit(Instr::i32Const(
                        static_cast<uint32_t>(instr.imm.i64v)));
                    emit(Instr::i32Const(
                        static_cast<uint32_t>(instr.imm.i64v >> 32)));
                } else {
                    emit(instr); // re-push the constant for the hook
                }
                emitHookCall(
                    HookSpec{.kind = HookKind::Const, .op = instr.op});
            }
            break;
          }

          case OpClass::Unary: {
            if (!hooks_.has(HookKind::Unary)) {
                emit(instr);
                break;
            }
            uint32_t in = scratch(info.in[0], 0);
            uint32_t r = scratch(info.out, 1);
            emit(Instr::localTee(in));
            emit(instr);
            emit(Instr::localTee(r));
            emitLoc(i);
            emitLocalArg(in, info.in[0]);
            emitLocalArg(r, info.out);
            emitHookCall(
                HookSpec{.kind = HookKind::Unary, .op = instr.op});
            break;
          }

          case OpClass::Binary: {
            if (!hooks_.has(HookKind::Binary)) {
                emit(instr);
                break;
            }
            uint32_t a = scratch(info.in[0], 0);
            uint32_t b = scratch(info.in[1], 1);
            uint32_t r = scratch(info.out, 2);
            emit(Instr::localSet(b));
            emit(Instr::localTee(a));
            emit(Instr::localGet(b));
            emit(instr);
            emit(Instr::localTee(r));
            emitLoc(i);
            emitLocalArg(a, info.in[0]);
            emitLocalArg(b, info.in[1]);
            emitLocalArg(r, info.out);
            emitHookCall(
                HookSpec{.kind = HookKind::Binary, .op = instr.op});
            break;
          }
        }
    }

    ValType
    localType(uint32_t idx) const
    {
        const std::vector<ValType> &params =
            m_.funcType(funcIdx_).params;
        if (idx < params.size())
            return params[idx];
        return func_.locals.at(idx - params.size());
    }

    const Module &m_;
    uint32_t funcIdx_;
    HookSet hooks_;
    const InstrumentOptions &opts_;
    const Function &func_;
    AbstractState state_;
    const HookOptimizationPlan *plan_;
    bool funcDead_;
    FuncOut out_;
    /** Spec -> local id in out_.hooks. */
    std::unordered_map<HookSpec, uint32_t, HookSpecHash> hookIds_;
    uint32_t firstScratch_;
    std::map<std::pair<ValType, int>, uint32_t> scratch_;
};

/** Patch an original function index after hook imports were inserted. */
uint32_t
remapFuncIdx(uint32_t idx, uint32_t num_orig_imports, uint32_t num_hooks)
{
    if (idx < num_orig_imports)
        return idx;
    return idx + num_hooks;
}

} // namespace

InstrumentResult
instrument(const Module &m, HookSet hooks, const InstrumentOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    const auto t_begin = Clock::now();
    auto since_begin = [&t_begin]() {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t_begin)
                .count());
    };

    const uint32_t num_funcs = m.numFunctions();
    std::vector<FuncOut> outs(num_funcs);
    InstrumentStats stats;

    // Workers claim functions in any order: each function's output,
    // its hook table included, depends on that function alone. A lone
    // worker runs inline; several each get a thread of their own (the
    // caller taking a share instead raised the peak RSS of the large
    // apps by about a tenth, from heap fragmentation).
    std::atomic<uint32_t> next{0};
    auto work = [&](InstrumentStats::Worker &w) {
        w.startNanos = since_begin();
        for (uint32_t f; (f = next.fetch_add(1)) < num_funcs;) {
            if (m.functions[f].imported())
                continue;
            outs[f] = FuncInstrumenter(m, f, hooks, opts).run();
            ++w.functions;
        }
        w.nanos = since_begin() - w.startNanos;
    };
    stats.workers.resize(std::max(1u, opts.numThreads));
    if (stats.workers.size() == 1) {
        work(stats.workers[0]);
    } else {
        std::vector<std::thread> threads;
        for (InstrumentStats::Worker &w : stats.workers)
            threads.emplace_back(work, std::ref(w));
        for (std::thread &t : threads)
            t.join();
    }
    for (const InstrumentStats::Worker &w : stats.workers)
        stats.functionsInstrumented += w.functions;

    auto info = std::make_shared<StaticInfo>();
    info->original = m;
    info->importModule = opts.importModule;
    info->numOrigImports = m.numImportedFunctions();
    info->splitI64 = opts.splitI64;
    info->instrumentedHooks = hooks;
    if (opts.plan)
        info->optimization = *opts.plan;

    // Merge the function hook tables in function order: hook ids
    // follow first sighting in index order, as a sequential walk
    // assigns them, whatever the schedule above was. Each table is
    // freed once merged, before the module copy below allocates.
    std::unordered_map<HookSpec, uint32_t, HookSpecHash> hook_ids;
    std::vector<std::vector<uint32_t>> merged_ids(num_funcs);
    for (uint32_t f = 0; f < num_funcs; ++f) {
        for (HookSpec &spec : std::exchange(outs[f].hooks, {})) {
            auto [it, inserted] = hook_ids.try_emplace(
                spec, static_cast<uint32_t>(info->hooks.size()));
            if (inserted)
                info->hooks.push_back(std::move(spec));
            else
                ++stats.hookMap.hits;
            merged_ids[f].push_back(it->second);
        }
    }
    stats.hookMap.misses = stats.hookMap.inserts = info->hooks.size();

    const uint32_t num_hooks = static_cast<uint32_t>(info->hooks.size());
    const uint32_t base = info->numOrigImports;

    Module out = m;

    // Lift any "name" custom section into debugNames now: its function
    // indices refer to the pre-instrumentation index space and would be
    // stale after hook imports shift them; the section is rebuilt from
    // debugNames at the end. The structured parse additionally keeps
    // the local-name subsection so it can be remapped instead of lost.
    wasm::NameSectionData names = wasm::parseNameSection(out);
    wasm::applyNameSection(out);

    // Create the hook import functions and splice them in right after
    // the original imports, so hook id h gets function index base + h.
    std::vector<Function> hook_funcs;
    hook_funcs.reserve(num_hooks);
    for (const HookSpec &spec : info->hooks) {
        Function hf;
        hf.typeIdx = out.addType(lowLevelType(spec, opts.splitI64));
        hf.import = wasm::ImportRef{opts.importModule, mangledName(spec)};
        hf.debugName = mangledName(spec);
        hook_funcs.push_back(std::move(hf));
    }
    out.functions.insert(out.functions.begin() + base, hook_funcs.begin(),
                         hook_funcs.end());

    // Install the instrumented bodies and extra locals, patching every
    // call for the shifted index space: hook calls to their merged id,
    // the rest past the hook imports.
    for (uint32_t f = 0; f < num_funcs; ++f) {
        if (m.functions[f].imported())
            continue;
        Function &g = out.functions.at(f + num_hooks);
        g.locals.insert(g.locals.end(), outs[f].extraLocals.begin(),
                        outs[f].extraLocals.end());
        g.body = std::move(outs[f].body);
        for (Instr &instr : g.body) {
            if (instr.op != Opcode::Call)
                continue;
            instr.imm.idx =
                instr.imm.idx >= kHookBase
                    ? base + merged_ids[f][instr.imm.idx - kHookBase]
                    : remapFuncIdx(instr.imm.idx, base, num_hooks);
        }
        // Merge this function's static-info contributions.
        info->brTargets.merge(outs[f].tables.brTargets);
        info->brTables.merge(outs[f].tables.brTables);
        info->blockEnds.merge(outs[f].tables.blockEnds);
    }

    // Patch the remaining function references (element segments,
    // start).
    for (wasm::ElementSegment &seg : out.elements) {
        for (uint32_t &f : seg.funcIdxs)
            f = remapFuncIdx(f, base, num_hooks);
    }
    if (out.start)
        out.start = remapFuncIdx(*out.start, base, num_hooks);

    // Re-emit the name section against the new index space (hook
    // imports carry their mangled names as debug names). Local-name
    // subsections survive instrumentation: extra locals are appended
    // after the original ones, so per-function local indices stay
    // valid and only the function index shifts. Label names are
    // dropped — instrumented bodies are rewritten, so label positions
    // would be stale.
    std::vector<uint32_t> name_func_map(num_funcs);
    for (uint32_t f = 0; f < num_funcs; ++f)
        name_func_map[f] = remapFuncIdx(f, base, num_hooks);
    wasm::remapNameData(names, name_func_map);
    names.labelNames.clear();
    names.funcNames.clear();
    for (uint32_t i = 0; i < out.functions.size(); ++i) {
        if (!out.functions[i].debugName.empty())
            names.funcNames.push_back(
                {static_cast<uint32_t>(i), out.functions[i].debugName});
    }
    wasm::setNameSection(out, names);

    stats.hooksGenerated = num_hooks;
    stats.wallNanos = since_begin();
    return InstrumentResult{std::move(out), std::move(info),
                            std::move(stats)};
}

} // namespace wasabi::core
