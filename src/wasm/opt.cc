/**
 * @file
 * Lowered-IR optimization pass: CFG/dominator/loop discovery, redundant
 * bounds-check analysis, affine loop versioning, and interpreter
 * superinstruction fusion. See opt.h for the soundness arguments.
 */
#include "wasm/opt.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "wasm/opcodes.h"

namespace lnb::wasm {
namespace {

struct OptCounters
{
    obs::Counter elided;
    obs::Counter fused;
    obs::Counter versioned;
};

OptCounters&
optCounters()
{
    static OptCounters counters{
        obs::registerCounter("opt.checks_elided_crossblock"),
        obs::registerCounter("opt.insts_fused"),
        obs::registerCounter("opt.loops_versioned"),
    };
    return counters;
}

// ---------------------------------------------------------------------
// Instruction classification
// ---------------------------------------------------------------------

int
numInputs(Op op)
{
    const char* sig = opInfo(op).sig;
    if (sig[0] == '*')
        return -1;
    return int(std::strchr(sig, ':') - sig);
}

bool
hasOutput(Op op)
{
    const char* sig = opInfo(op).sig;
    if (sig[0] == '*')
        return false;
    return std::strchr(sig, ':')[1] != '\0';
}

/** A conditional or unconditional transfer of control ends a block. */
bool
isTerminator(const LInst& inst)
{
    if (inst.isWasmOp())
        return false;
    switch (inst.lop()) {
      case LOp::jump:
      case LOp::jump_if:
      case LOp::jump_if_zero:
      case LOp::jump_table:
      case LOp::ret:
      case LOp::trap:
      case LOp::fused_cmp_jump:
        return true;
      default:
        return false;
    }
}

/**
 * Which frame cell @p inst writes, if exactly one. Calls are excluded:
 * the analyses treat them as clobber-everything barriers.
 */
bool
writesCell(const LInst& inst, uint32_t& cell)
{
    if (inst.isWasmOp()) {
        Op op = inst.wasmOp();
        switch (op) {
          case Op::select:
          case Op::global_get:
            cell = inst.a;
            return true;
          default:
            break;
        }
        if (opInfo(op).sig[0] == '*')
            return false; // ops that never survive lowering
        if (!hasOutput(op))
            return false; // stores, global_set, memory_copy/fill
        cell = inst.a;
        return true;
    }
    if (inst.lop() == LOp::copy) {
        cell = inst.b;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------

struct Block
{
    uint32_t begin = 0;
    uint32_t end = 0; ///< one past the last instruction
    std::vector<uint32_t> succs;
    std::vector<uint32_t> preds;
};

struct Cfg
{
    std::vector<Block> blocks;
    std::vector<uint32_t> blockOf;   ///< pc -> block index
    std::vector<uint8_t> jumpTarget; ///< pc -> is a jump target
    std::vector<uint8_t> reachable;  ///< block -> reachable from entry
    std::vector<uint32_t> rpo;       ///< reachable blocks, reverse postorder
};

void
collectJumpTargets(const LoweredFunc& func, std::vector<uint8_t>& target)
{
    target.assign(func.code.size(), 0);
    for (const LInst& inst : func.code) {
        if (inst.isWasmOp())
            continue;
        switch (inst.lop()) {
          case LOp::jump:
          case LOp::jump_if:
          case LOp::jump_if_zero:
          case LOp::fused_cmp_jump:
            target[inst.a] = 1;
            break;
          case LOp::jump_table:
            for (uint32_t i = 0; i <= inst.aux; i++)
                target[func.tablePool[inst.a + i]] = 1;
            break;
          default:
            break;
        }
    }
}

Cfg
buildCfg(const LoweredFunc& func)
{
    Cfg cfg;
    const size_t n = func.code.size();
    collectJumpTargets(func, cfg.jumpTarget);

    std::vector<uint8_t> starts(n, 0);
    if (n > 0)
        starts[0] = 1;
    for (size_t pc = 0; pc < n; pc++) {
        if (cfg.jumpTarget[pc])
            starts[pc] = 1;
        if (isTerminator(func.code[pc]) && pc + 1 < n)
            starts[pc + 1] = 1;
    }

    cfg.blockOf.assign(n, 0);
    for (size_t pc = 0; pc < n; pc++) {
        if (starts[pc]) {
            if (!cfg.blocks.empty())
                cfg.blocks.back().end = uint32_t(pc);
            cfg.blocks.push_back({uint32_t(pc), uint32_t(n), {}, {}});
        }
        cfg.blockOf[pc] = uint32_t(cfg.blocks.size() - 1);
    }

    auto addEdge = [&cfg](uint32_t from, uint32_t to_pc) {
        uint32_t to = cfg.blockOf[to_pc];
        std::vector<uint32_t>& succs = cfg.blocks[from].succs;
        if (std::find(succs.begin(), succs.end(), to) == succs.end()) {
            succs.push_back(to);
            cfg.blocks[to].preds.push_back(from);
        }
    };
    for (uint32_t b = 0; b < cfg.blocks.size(); b++) {
        const Block& block = cfg.blocks[b];
        const LInst& last = func.code[block.end - 1];
        if (last.isWasmOp()) {
            // Lowered code always ends blocks with a terminator, but be
            // defensive about straight-line fallthrough.
            if (block.end < n)
                addEdge(b, block.end);
            continue;
        }
        switch (last.lop()) {
          case LOp::jump:
            addEdge(b, last.a);
            break;
          case LOp::jump_if:
          case LOp::jump_if_zero:
          case LOp::fused_cmp_jump:
            addEdge(b, last.a);
            if (block.end < n)
                addEdge(b, block.end);
            break;
          case LOp::jump_table:
            for (uint32_t i = 0; i <= last.aux; i++)
                addEdge(b, func.tablePool[last.a + i]);
            break;
          case LOp::ret:
          case LOp::trap:
            break;
          default:
            if (block.end < n)
                addEdge(b, block.end);
            break;
        }
    }

    // Reachability + reverse postorder via iterative DFS from block 0.
    const size_t nb = cfg.blocks.size();
    cfg.reachable.assign(nb, 0);
    std::vector<uint32_t> post;
    if (nb > 0) {
        std::vector<std::pair<uint32_t, size_t>> stack;
        cfg.reachable[0] = 1;
        stack.emplace_back(0, 0);
        while (!stack.empty()) {
            auto& [b, next] = stack.back();
            if (next < cfg.blocks[b].succs.size()) {
                uint32_t s = cfg.blocks[b].succs[next++];
                if (!cfg.reachable[s]) {
                    cfg.reachable[s] = 1;
                    stack.emplace_back(s, 0);
                }
            } else {
                post.push_back(b);
                stack.pop_back();
            }
        }
    }
    cfg.rpo.assign(post.rbegin(), post.rend());
    return cfg;
}

/** Iterative dominator sets over reachable blocks (bitsets; functions
 * here are small enough that O(n^2/64) per iteration is fine). */
std::vector<std::vector<uint64_t>>
computeDominators(const Cfg& cfg)
{
    const size_t nb = cfg.blocks.size();
    const size_t words = (nb + 63) / 64;
    std::vector<std::vector<uint64_t>> dom(
        nb, std::vector<uint64_t>(words, ~uint64_t(0)));
    auto setOnly = [&](uint32_t b) {
        std::fill(dom[b].begin(), dom[b].end(), 0);
        dom[b][b / 64] |= uint64_t(1) << (b % 64);
    };
    if (nb == 0)
        return dom;
    setOnly(0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : cfg.rpo) {
            if (b == 0)
                continue;
            std::vector<uint64_t> meet(words, ~uint64_t(0));
            bool any = false;
            for (uint32_t p : cfg.blocks[b].preds) {
                if (!cfg.reachable[p])
                    continue;
                for (size_t w = 0; w < words; w++)
                    meet[w] &= dom[p][w];
                any = true;
            }
            if (!any)
                std::fill(meet.begin(), meet.end(), 0);
            meet[b / 64] |= uint64_t(1) << (b % 64);
            if (meet != dom[b]) {
                dom[b] = std::move(meet);
                changed = true;
            }
        }
    }
    return dom;
}

inline bool
dominates(const std::vector<std::vector<uint64_t>>& dom, uint32_t a,
          uint32_t b)
{
    return (dom[b][a / 64] >> (a % 64)) & 1;
}

/** Natural loops merged by header block. */
struct Loop
{
    uint32_t header = 0;
    std::vector<uint8_t> body; ///< block membership bitmap
};

std::vector<Loop>
findNaturalLoops(const Cfg& cfg)
{
    const size_t nb = cfg.blocks.size();
    std::vector<std::vector<uint64_t>> dom = computeDominators(cfg);
    std::map<uint32_t, Loop> byHeader;
    for (uint32_t u = 0; u < nb; u++) {
        if (!cfg.reachable[u])
            continue;
        for (uint32_t h : cfg.blocks[u].succs) {
            if (!dominates(dom, h, u))
                continue;
            Loop& loop = byHeader[h];
            if (loop.body.empty()) {
                loop.header = h;
                loop.body.assign(nb, 0);
                loop.body[h] = 1;
            }
            // Backward walk from the back-edge source.
            std::vector<uint32_t> work;
            if (!loop.body[u]) {
                loop.body[u] = 1;
                work.push_back(u);
            }
            while (!work.empty()) {
                uint32_t b = work.back();
                work.pop_back();
                for (uint32_t p : cfg.blocks[b].preds) {
                    if (cfg.reachable[p] && !loop.body[p]) {
                        loop.body[p] = 1;
                        work.push_back(p);
                    }
                }
            }
        }
    }
    std::vector<Loop> loops;
    loops.reserve(byHeader.size());
    for (auto& [h, loop] : byHeader)
        loops.push_back(std::move(loop));
    return loops;
}

// ---------------------------------------------------------------------
// Code rewriting (insertions / deletions with pc remapping)
// ---------------------------------------------------------------------

void
remapJumps(LoweredFunc& func, const std::vector<uint32_t>& new_pc)
{
    for (LInst& inst : func.code) {
        if (inst.isWasmOp())
            continue;
        switch (inst.lop()) {
          case LOp::jump:
          case LOp::jump_if:
          case LOp::jump_if_zero:
          case LOp::fused_cmp_jump:
            inst.a = new_pc[inst.a];
            break;
          default:
            break;
        }
    }
    for (uint32_t& t : func.tablePool)
        t = new_pc[t];
}

void
remapFacts(LoweredFunc& func, const std::vector<uint32_t>& new_pc)
{
    for (LoweredFunc::EntryCheckFact& fact : func.entryCheckFacts)
        fact.pc = new_pc[fact.pc];
    for (uint32_t& pc : func.elidableCheckPcs)
        pc = new_pc[pc];
}

/**
 * Insert instructions before given pcs. A jump targeting an insertion
 * point lands after the inserted instruction (back edges re-enter the
 * loop body, not the preheader guard); fallthrough entry executes it.
 */
void
applyInsertions(LoweredFunc& func,
                std::vector<std::pair<uint32_t, LInst>> inserts)
{
    if (inserts.empty())
        return;
    std::stable_sort(inserts.begin(), inserts.end(),
                     [](const auto& x, const auto& y) {
                         return x.first < y.first;
                     });
    const size_t n = func.code.size();
    std::vector<uint32_t> new_pc(n + 1);
    size_t k = 0;
    for (size_t pc = 0; pc <= n; pc++) {
        while (k < inserts.size() && inserts[k].first <= pc)
            k++;
        new_pc[pc] = uint32_t(pc + k);
    }
    std::vector<LInst> out;
    out.reserve(n + inserts.size());
    k = 0;
    for (size_t pc = 0; pc < n; pc++) {
        while (k < inserts.size() && inserts[k].first == pc)
            out.push_back(inserts[k++].second);
        out.push_back(func.code[pc]);
    }
    func.code = std::move(out);
    remapJumps(func, new_pc);
    remapFacts(func, new_pc);
}

/** Drop flagged instructions. No jump may target a dropped pc. */
void
applyDeletions(LoweredFunc& func, const std::vector<uint8_t>& drop)
{
    const size_t n = func.code.size();
    std::vector<uint32_t> new_pc(n + 1);
    uint32_t removed = 0;
    for (size_t pc = 0; pc < n; pc++) {
        new_pc[pc] = uint32_t(pc - removed);
        if (drop[pc])
            removed++;
    }
    new_pc[n] = uint32_t(n - removed);
    if (removed == 0)
        return;
    std::vector<LInst> out;
    out.reserve(n - removed);
    for (size_t pc = 0; pc < n; pc++) {
        if (!drop[pc])
            out.push_back(func.code[pc]);
    }
    func.code = std::move(out);
    remapJumps(func, new_pc);
    remapFacts(func, new_pc);
}

// ---------------------------------------------------------------------
// Loop shape helpers
// ---------------------------------------------------------------------

/** True if block @p p ends with a jump whose target is pc @p h. */
bool
blockJumpsTo(const LoweredFunc& func, const Block& p, uint32_t h)
{
    const LInst& last = func.code[p.end - 1];
    if (last.isWasmOp())
        return false;
    switch (last.lop()) {
      case LOp::jump:
      case LOp::jump_if:
      case LOp::jump_if_zero:
      case LOp::fused_cmp_jump:
        return last.a == h;
      case LOp::jump_table:
        for (uint32_t i = 0; i <= last.aux; i++) {
            if (func.tablePool[last.a + i] == h)
                return true;
        }
        return false;
      default:
        return false;
    }
}

// ---------------------------------------------------------------------
// Affine loop versioning (trap strategy only)
// ---------------------------------------------------------------------
//
// For a single-block bottom-test loop whose exit condition is an unsigned
// compare of the (post-increment) induction variable against a
// loop-invariant bound N, recognize accesses whose address is affine in
// the IV: k_iv*iv + k_base*base + const. The loop body stays in place as
// the fast path with every qualifying check marked elidable; a cloned,
// fully-checked copy is appended, and preheader guards — evaluated in
// 64-bit arithmetic, so they also rule out u32 wraparound of the in-loop
// address computation — branch to the clone when they fail.
//
// Soundness of the guard bound: in a bottom-test loop, iteration j >= 1
// only runs because the previous iteration's compare saw iv < N — and the
// compare reads the *wrapped* u32 value, so iv_start(j) < N holds as an
// integer regardless of wraparound. Iteration 0 starts from the entry
// value. Hence M = max(iv_entry, N-1) bounds iv at the top of every
// iteration. If every affine term, evaluated without wrapping at
// coefficient*M + base-coefficient*base + const + access-limit, fits
// under memSize, then each partial sum of the in-loop u32 arithmetic is
// bounded by that total < 2^32 (all terms are non-negative), so the u32
// computation never wraps, computes the true affine value, and every
// access check on the fast path provably passes. N == 0 makes N-1
// underflow to 2^64-1, M >= 2^32 is separately guarded, and the loop
// falls back to the checked clone — degenerate bounds are never fast.

/** Cap on affine coefficients so coef*M (M < 2^32) stays < 2^48 and the
 * guard's u64 sums cannot overflow. */
constexpr uint64_t kMaxAffineCoef = uint64_t(1) << 16;
/** Cap on the additive constant (offsets accumulated across adds). */
constexpr uint64_t kMaxAffineConst = uint64_t(1) << 34;

/** Affine form of a cell's value inside one loop iteration:
 * sum(coef * value-at-iteration-entry(cell)) + k, tracked in exact
 * (non-wrapping) u64 arithmetic over zero-extended i32 inputs. */
struct Affine
{
    bool top = true;
    std::map<uint32_t, uint64_t> terms; ///< cell -> coefficient
    uint64_t k = 0;

    static Affine identity(uint32_t cell)
    {
        Affine a;
        a.top = false;
        a.terms[cell] = 1;
        return a;
    }
    static Affine constant(uint64_t v)
    {
        Affine a;
        a.top = false;
        a.k = v;
        return a;
    }
    bool isConst() const { return !top && terms.empty(); }
    bool operator==(const Affine& o) const
    {
        return top == o.top && terms == o.terms && k == o.k;
    }
};

Affine
affAdd(const Affine& x, const Affine& y)
{
    Affine r;
    if (x.top || y.top)
        return r;
    r.top = false;
    r.terms = x.terms;
    for (const auto& [cell, coef] : y.terms) {
        uint64_t& c = r.terms[cell];
        c += coef;
        if (c > kMaxAffineCoef)
            return Affine{};
    }
    r.k = x.k + y.k;
    if (r.k > kMaxAffineConst || r.terms.size() > 2)
        return Affine{};
    return r;
}

Affine
affScale(const Affine& x, uint64_t s)
{
    Affine r;
    if (x.top || s > kMaxAffineCoef)
        return r;
    r.top = false;
    for (const auto& [cell, coef] : x.terms) {
        uint64_t c = coef * s;
        if (c > kMaxAffineCoef)
            return Affine{};
        r.terms[cell] = c;
    }
    r.k = x.k * s;
    if (r.k > kMaxAffineConst)
        return Affine{};
    return r;
}

/** One range-check term of a loop guard: worst-case exclusive end address
 * kIv*M + kBase*base + kConst must fit under memSize. */
struct GuardTerm
{
    uint64_t kIv = 0;
    bool hasBase = false;
    uint32_t baseCell = 0;
    uint64_t kBase = 0;
    uint64_t kConst = 0;
};

struct LoopVersionPlan
{
    uint32_t headerBegin = 0;
    uint32_t headerEnd = 0; ///< one past the back-edge terminator
    uint32_t ivCell = 0;
    bool boundIsConst = false;
    uint32_t boundCell = 0;
    uint64_t boundConst = 0;
    std::vector<GuardTerm> terms;
    std::vector<uint32_t> elidePcs; ///< fast-path accesses made elidable
};

/**
 * Analyze one single-block loop for versioning eligibility. Returns true
 * and fills @p plan if the loop has a recognizable counted form and at
 * least one IV-dependent affine access.
 */
bool
planLoopVersion(const LoweredFunc& func, const Cfg& cfg, const Loop& loop,
                LoopVersionPlan& plan)
{
    // Exactly one block in the body, and a fallthrough-only entry (every
    // jump to the header pc must be the back edge), so the preheader
    // guard cannot be bypassed.
    uint32_t nbody = 0;
    for (uint8_t in : loop.body)
        nbody += in;
    if (nbody != 1)
        return false;
    const Block& header = cfg.blocks[loop.header];
    uint32_t h = header.begin;
    for (uint32_t p : header.preds) {
        if (!loop.body[p] && blockJumpsTo(func, cfg.blocks[p], h))
            return false;
    }
    if (header.end - header.begin < 2)
        return false;
    const LInst& term = func.code[header.end - 1];
    if (term.isWasmOp() ||
        (term.lop() != LOp::jump_if && term.lop() != LOp::jump_if_zero) ||
        term.a != h)
        return false;

    // Abstract-interpret the body once: affine state per cell, snapshots
    // of compare operands, and the address expression at each access.
    std::map<uint32_t, Affine> state;
    auto exprOf = [&](uint32_t cell) -> Affine {
        auto it = state.find(cell);
        return it != state.end() ? it->second : Affine::identity(cell);
    };
    struct AccessRec
    {
        uint32_t pc;
        Affine addr;
        uint64_t limit;
    };
    std::vector<AccessRec> accesses;
    struct CmpRec
    {
        Affine lhs, rhs;
    };
    std::map<uint32_t, CmpRec> cmps;     // pc -> operand snapshot
    std::map<uint32_t, uint32_t> lastDef; // cell -> defining pc

    for (uint32_t pc = header.begin; pc + 1 < header.end; pc++) {
        const LInst& inst = func.code[pc];
        if (!inst.isWasmOp()) {
            switch (inst.lop()) {
              case LOp::copy:
                state[inst.b] = exprOf(inst.a);
                lastDef[inst.b] = pc;
                continue;
              case LOp::callf:
              case LOp::call_host:
              case LOp::calli:
                return false; // calls may grow memory or clobber cells
              default:
                break;
            }
            uint32_t w;
            if (writesCell(inst, w)) {
                state[w] = Affine{};
                lastDef[w] = pc;
            }
            continue;
        }
        Op op = inst.wasmOp();
        if (op == Op::memory_grow)
            return false; // memSize may change mid-loop
        if (isAtomicOp(op))
            return false; // may observe a concurrent grow (shared memory)
        if (isLoadOp(op) || isStoreOp(op)) {
            accesses.push_back(
                {pc, exprOf(inst.a), inst.imm + memAccessSize(op)});
            if (isLoadOp(op)) {
                state[inst.a] = Affine{};
                lastDef[inst.a] = pc;
            }
            continue;
        }
        switch (op) {
          case Op::i32_const:
            state[inst.a] = Affine::constant(uint32_t(inst.imm));
            lastDef[inst.a] = pc;
            continue;
          case Op::i32_add:
            state[inst.a] = affAdd(exprOf(inst.a), exprOf(inst.b));
            lastDef[inst.a] = pc;
            continue;
          case Op::i32_mul: {
            Affine lhs = exprOf(inst.a), rhs = exprOf(inst.b);
            if (rhs.isConst())
                state[inst.a] = affScale(lhs, rhs.k);
            else if (lhs.isConst())
                state[inst.a] = affScale(rhs, lhs.k);
            else
                state[inst.a] = Affine{};
            lastDef[inst.a] = pc;
            continue;
          }
          case Op::i32_shl: {
            Affine rhs = exprOf(inst.b);
            if (rhs.isConst() && (rhs.k & 31) < 17)
                state[inst.a] =
                    affScale(exprOf(inst.a), uint64_t(1) << (rhs.k & 31));
            else
                state[inst.a] = Affine{};
            lastDef[inst.a] = pc;
            continue;
          }
          case Op::i32_lt_u:
          case Op::i32_gt_u:
          case Op::i32_ge_u:
          case Op::i32_le_u:
            cmps[pc] = {exprOf(inst.a), exprOf(inst.b)};
            state[inst.a] = Affine{};
            lastDef[inst.a] = pc;
            continue;
          default:
            break;
        }
        uint32_t w;
        if (writesCell(inst, w)) {
            state[w] = Affine{};
            lastDef[w] = pc;
        }
    }

    // Resolve the exit condition: the branch cell's last def must be one
    // of the four continue-iff-(iv' < N) unsigned compare forms, with the
    // IV side exactly iv + step (step >= 1).
    auto ld = lastDef.find(term.b);
    if (ld == lastDef.end())
        return false;
    auto cm = cmps.find(ld->second);
    if (cm == cmps.end() || func.code[ld->second].a != term.b)
        return false;
    Op cmpOp = func.code[ld->second].wasmOp();
    bool zero = term.lop() == LOp::jump_if_zero;
    // continue == branch taken (jump_if) / not taken (jump_if_zero).
    Affine ivSide, boundSide;
    if ((!zero && cmpOp == Op::i32_lt_u) || (zero && cmpOp == Op::i32_ge_u)) {
        ivSide = cm->second.lhs;
        boundSide = cm->second.rhs;
    } else if ((!zero && cmpOp == Op::i32_gt_u) ||
               (zero && cmpOp == Op::i32_le_u)) {
        ivSide = cm->second.rhs;
        boundSide = cm->second.lhs;
    } else {
        return false;
    }
    if (ivSide.top || ivSide.terms.size() != 1 ||
        ivSide.terms.begin()->second != 1 || ivSide.k < 1)
        return false;
    plan.ivCell = ivSide.terms.begin()->first;
    // The IV cell itself must end the iteration at exactly iv + step.
    Affine ivEnd = exprOf(plan.ivCell);
    if (!(ivEnd == ivSide))
        return false;
    auto invariant = [&](uint32_t cell) {
        auto it = state.find(cell);
        return it == state.end() || it->second == Affine::identity(cell);
    };
    if (boundSide.isConst()) {
        if (boundSide.k == 0)
            return false; // guard would always fail; keep the plain loop
        plan.boundIsConst = true;
        plan.boundConst = boundSide.k;
    } else if (!boundSide.top && boundSide.terms.size() == 1 &&
               boundSide.terms.begin()->second == 1 && boundSide.k == 0 &&
               boundSide.terms.begin()->first != plan.ivCell &&
               invariant(boundSide.terms.begin()->first)) {
        plan.boundCell = boundSide.terms.begin()->first;
    } else {
        return false;
    }

    // Qualify accesses: affine in at most {iv, one invariant base}.
    std::map<std::tuple<uint64_t, uint32_t, uint64_t>, uint64_t> merged;
    bool anyIvAccess = false;
    for (const AccessRec& acc : accesses) {
        if (acc.addr.top)
            continue;
        uint64_t kiv = 0, kbase = 0;
        bool hasBase = false;
        uint32_t baseCell = 0;
        bool ok = true;
        for (const auto& [cell, coef] : acc.addr.terms) {
            if (cell == plan.ivCell) {
                kiv = coef;
            } else if (!hasBase && invariant(cell)) {
                hasBase = true;
                baseCell = cell;
                kbase = coef;
            } else {
                ok = false;
                break;
            }
        }
        uint64_t kconst = acc.addr.k + acc.limit;
        if (!ok || kconst > kMaxAffineConst)
            continue;
        if (kiv > 0)
            anyIvAccess = true;
        uint64_t& worst =
            merged[{kiv, hasBase ? baseCell + 1 : 0, kbase}];
        worst = std::max(worst, kconst);
        plan.elidePcs.push_back(acc.pc);
    }
    if (!anyIvAccess || plan.elidePcs.empty())
        return false;
    for (const auto& [key, kconst] : merged) {
        GuardTerm t;
        t.kIv = std::get<0>(key);
        t.hasBase = std::get<1>(key) != 0;
        t.baseCell = t.hasBase ? std::get<1>(key) - 1 : 0;
        t.kBase = std::get<2>(key);
        t.kConst = kconst;
        plan.terms.push_back(t);
    }
    plan.headerBegin = h;
    plan.headerEnd = header.end;
    return true;
}

LInst
makeInst(uint16_t op, uint16_t aux, uint32_t a, uint32_t b, uint64_t imm)
{
    LInst i;
    i.op = op;
    i.aux = aux;
    i.a = a;
    i.b = b;
    i.imm = imm;
    return i;
}

struct VersionResult
{
    uint64_t loopsVersioned = 0;
    uint64_t checksVersioned = 0;
};

/**
 * Version every eligible loop of @p func in place: append checked slow
 * clones, insert preheader guards, and mark fast-path accesses elidable
 * (appended to func.elidableCheckPcs, remapped with the insertions).
 */
VersionResult
versionLoops(LoweredFunc& func)
{
    VersionResult result;
    Cfg cfg = buildCfg(func);
    std::vector<Loop> loops = findNaturalLoops(cfg);
    std::vector<LoopVersionPlan> plans;
    for (const Loop& loop : loops) {
        LoopVersionPlan plan;
        if (planLoopVersion(func, cfg, loop, plan))
            plans.push_back(std::move(plan));
    }
    if (plans.empty())
        return result;

    // Five scratch cells, shared by all guards in the function:
    //   S0 = memSize in bytes, S1 = M (then per-term work in S2..S4).
    const uint32_t S0 = func.numCells;
    const uint32_t S1 = S0 + 1, S2 = S0 + 2, S3 = S0 + 3, S4 = S0 + 4;
    func.numCells += 5;
    const uint16_t kCopy = uint16_t(LOp::copy);
    const uint16_t kI32 = uint16_t(ValType::i32);
    const uint16_t kI64 = uint16_t(ValType::i64);

    std::vector<std::pair<uint32_t, LInst>> inserts;
    for (const LoopVersionPlan& plan : plans) {
        // Append the checked slow-path clone first, while original pcs
        // are still valid: count_fallback, the body, then a jump to the
        // loop exit. The back edge re-targets the first body copy so the
        // fallback counter bumps once per guard failure, not per
        // iteration.
        const uint32_t cloneStart = uint32_t(func.code.size());
        func.code.push_back(
            makeInst(uint16_t(LOp::count_fallback), 0, 0, 0, 0));
        for (uint32_t pc = plan.headerBegin; pc < plan.headerEnd; pc++)
            func.code.push_back(func.code[pc]);
        LInst& cloneTerm = func.code.back();
        cloneTerm.a = cloneStart + 1;
        func.code.push_back(
            makeInst(uint16_t(LOp::jump), 0, plan.headerEnd, 0, 0));

        // Guard prelude: S0 = memSize bytes, S1 = M = max(iv, N-1).
        const uint32_t h = plan.headerBegin;
        auto ins = [&](LInst i) { inserts.emplace_back(h, i); };
        ins(makeInst(uint16_t(Op::memory_size), 0, S0, 0, 0));
        ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S0, 0, 0));
        ins(makeInst(uint16_t(Op::i64_const), 0, S1, 0, 16));
        ins(makeInst(uint16_t(Op::i64_shl), 0, S0, S1, 0));
        ins(makeInst(kCopy, kI32, plan.ivCell, S1, 0));
        ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S1, 0, 0));
        if (plan.boundIsConst) {
            ins(makeInst(uint16_t(Op::i64_const), 0, S2, 0,
                         plan.boundConst - 1));
        } else {
            ins(makeInst(kCopy, kI32, plan.boundCell, S2, 0));
            ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S2, 0, 0));
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0, 1));
            ins(makeInst(uint16_t(Op::i64_sub), 0, S2, S3, 0));
        }
        // S1 = max(S1, S2) via select: cond S3 = (S2 < S1) picks S1.
        ins(makeInst(kCopy, kI64, S2, S3, 0));
        ins(makeInst(uint16_t(Op::i64_lt_u), 0, S3, S1, 0));
        ins(makeInst(uint16_t(Op::select), 0, S1, 0, 0));
        if (!plan.boundIsConst) {
            // Variable bound: N == 0 underflows N-1 to 2^64-1; require
            // M < 2^32 so coef*M below cannot overflow u64.
            ins(makeInst(kCopy, kI64, S1, S2, 0));
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0,
                         uint64_t(1) << 32));
            ins(makeInst(uint16_t(Op::i64_ge_u), 0, S2, S3, 0));
            ins(makeInst(uint16_t(LOp::jump_if), 0, cloneStart, S2, 0));
        }
        // One range check per distinct (kIv, base, kBase) group.
        for (const GuardTerm& t : plan.terms) {
            ins(makeInst(kCopy, kI64, S1, S2, 0));
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0, t.kIv));
            ins(makeInst(uint16_t(Op::i64_mul), 0, S2, S3, 0));
            if (t.hasBase) {
                ins(makeInst(kCopy, kI32, t.baseCell, S3, 0));
                ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S3, 0, 0));
                ins(makeInst(uint16_t(Op::i64_const), 0, S4, 0, t.kBase));
                ins(makeInst(uint16_t(Op::i64_mul), 0, S3, S4, 0));
                ins(makeInst(uint16_t(Op::i64_add), 0, S2, S3, 0));
            }
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0, t.kConst));
            ins(makeInst(uint16_t(Op::i64_add), 0, S2, S3, 0));
            ins(makeInst(uint16_t(Op::i64_gt_u), 0, S2, S0, 0));
            ins(makeInst(uint16_t(LOp::jump_if), 0, cloneStart, S2, 0));
        }

        for (uint32_t pc : plan.elidePcs)
            func.elidableCheckPcs.push_back(pc);
        result.loopsVersioned++;
        result.checksVersioned += plan.elidePcs.size();
    }

    // One remap pass: jumps targeting the header land after the guard
    // (back edges skip it), fallthrough entry executes it; clone-internal
    // and guard-fail targets shift with everything else.
    applyInsertions(func, std::move(inserts));
    return result;
}

// ---------------------------------------------------------------------
// Redundant-check analysis (value numbering + forward dataflow)
// ---------------------------------------------------------------------

constexpr uint32_t kNoVn = 0;

/**
 * Per-block value numbering of cell contents; marks accesses whose
 * check is covered by an earlier check of the same address value.
 * Every call forgets all cell names: a callee may write any cell of
 * the overlapping frame (for calli, inst.b is the table-index cell,
 * not the argument base).
 */
uint64_t
markVnElidableChecks(const LoweredFunc& func, const Cfg& cfg,
                     std::vector<uint8_t>& hinted)
{
    uint64_t marked = 0;
    std::vector<uint32_t> cellVn(func.numCells, kNoVn);
    for (const Block& block : cfg.blocks) {
        std::fill(cellVn.begin(), cellVn.end(), kNoVn);
        uint32_t next = 1;
        std::map<std::array<uint64_t, 3>, uint32_t> exprs;
        // Passed checks stay valid for a value forever (memories never
        // shrink), so availability is never killed within the block.
        std::unordered_map<uint32_t, uint64_t> avail; // vn -> limit
        auto vnOf = [&](uint32_t cell) {
            if (cellVn[cell] == kNoVn)
                cellVn[cell] = next++;
            return cellVn[cell];
        };
        auto keyed = [&](std::array<uint64_t, 3> key) {
            auto [it, inserted] = exprs.emplace(key, next);
            if (inserted)
                next++;
            return it->second;
        };
        for (uint32_t pc = block.begin; pc < block.end; pc++) {
            const LInst& inst = func.code[pc];
            if (!inst.isWasmOp()) {
                switch (inst.lop()) {
                  case LOp::copy:
                    cellVn[inst.b] = vnOf(inst.a);
                    break;
                  case LOp::callf:
                  case LOp::calli:
                  case LOp::call_host:
                    // Values already checked stay checked, so `avail`
                    // survives; only the cell names are lost.
                    std::fill(cellVn.begin(), cellVn.end(), kNoVn);
                    break;
                  default:
                    break;
                }
                continue;
            }
            Op op = inst.wasmOp();
            if (isLoadOp(op) || isStoreOp(op)) {
                uint64_t limit = inst.imm + memAccessSize(op);
                uint32_t vn = vnOf(inst.a);
                auto it = avail.find(vn);
                if (it != avail.end() && it->second >= limit) {
                    if (!hinted[pc]) {
                        hinted[pc] = 1;
                        marked++;
                    }
                } else {
                    uint64_t& slot = avail[vn];
                    slot = std::max(slot, limit);
                }
                if (isLoadOp(op))
                    cellVn[inst.a] = next++; // loaded value: fresh
                continue;
            }
            if (isAtomicOp(op)) {
                // Synchronization point: on shared memories a concurrent
                // grow becomes observable here, so no check availability
                // crosses it. Results are never value-numbered — two
                // identical rmw ops legitimately return different values.
                avail.clear();
                uint32_t written;
                if (writesCell(inst, written))
                    cellVn[written] = next++;
                continue;
            }
            switch (op) {
              case Op::i32_const:
              case Op::i64_const:
              case Op::f32_const:
              case Op::f64_const:
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op) << 32, inst.imm, 0});
                continue;
              case Op::select: {
                uint64_t va = vnOf(inst.a), vb = vnOf(inst.a + 1);
                uint64_t vc = vnOf(inst.a + 2);
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op), (va << 32) | vb, vc});
                continue;
              }
              case Op::global_get:
              case Op::memory_size:
              case Op::memory_grow:
                cellVn[inst.a] = next++;
                continue;
              default:
                break;
            }
            int nin = numInputs(op);
            if (nin == 1 && hasOutput(op)) {
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op), vnOf(inst.a), 1});
            } else if (nin == 2 && hasOutput(op)) {
                uint64_t va = vnOf(inst.a), vb = vnOf(inst.b);
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op), (va << 32) | vb, 2});
            } else {
                uint32_t written;
                if (writesCell(inst, written))
                    cellVn[written] = next++;
            }
        }
    }
    return marked;
}

using Facts = std::map<uint32_t, uint64_t>; // address cell -> checked limit

/** Intersect @p into with @p other, keeping the smaller limit. */
void
meetFacts(Facts& into, const Facts& other)
{
    for (auto it = into.begin(); it != into.end();) {
        auto jt = other.find(it->first);
        if (jt == other.end()) {
            it = into.erase(it);
        } else {
            it->second = std::min(it->second, jt->second);
            ++it;
        }
    }
}

/**
 * Transfer function modeling the JIT's dynamic per-cell check cache:
 * facts are generated where the JIT emits (and caches) a check, and
 * killed where the address cell is rewritten or a call clobbers the
 * frame. Accesses already hinted as elidable generate nothing (the JIT
 * will not emit a check there).
 */
void
applyTransfer(const LoweredFunc& func, const Block& block,
              const std::vector<uint8_t>& hinted, Facts& facts)
{
    for (uint32_t pc = block.begin; pc < block.end; pc++) {
        const LInst& inst = func.code[pc];
        if (!inst.isWasmOp()) {
            switch (inst.lop()) {
              case LOp::copy:
                facts.erase(inst.b);
                break;
              case LOp::callf:
              case LOp::calli:
              case LOp::call_host:
                facts.clear();
                break;
              default:
                break;
            }
            continue;
        }
        Op op = inst.wasmOp();
        if (isLoadOp(op) || isStoreOp(op)) {
            if (!hinted[pc]) {
                uint64_t& limit = facts[inst.a];
                limit = std::max(limit, inst.imm + memAccessSize(op));
            }
            if (isLoadOp(op))
                facts.erase(inst.a); // the load overwrites its cell
            continue;
        }
        if (isAtomicOp(op) || op == Op::memory_grow) {
            // Mirror the JIT: a grow (on shared memories, another
            // thread's, observable at a synchronization point) ends
            // every cached check.
            facts.clear();
            continue;
        }
        uint32_t written;
        if (writesCell(inst, written))
            facts.erase(written);
    }
}

struct DataflowResult
{
    std::vector<LoweredFunc::EntryCheckFact> entryFacts;
    uint64_t crossBlockCovered = 0;
};

/** Forward available-checks dataflow; publishes the facts holding at
 * every jump target. */
DataflowResult
runCheckDataflow(const LoweredFunc& func, const Cfg& cfg,
                 const std::vector<uint8_t>& hinted)
{
    DataflowResult result;
    const size_t nb = cfg.blocks.size();
    std::vector<Facts> in(nb), out(nb);
    std::vector<uint8_t> computed(nb, 0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : cfg.rpo) {
            Facts merged;
            bool first = true;
            for (uint32_t p : cfg.blocks[b].preds) {
                if (!cfg.reachable[p] || !computed[p])
                    continue;
                if (first) {
                    merged = out[p];
                    first = false;
                } else {
                    meetFacts(merged, out[p]);
                }
            }
            if (b == 0) {
                // Entry starts with an empty cache regardless of back
                // edges (the JIT begins each function cold).
                merged.clear();
            }
            // A block with no computed predecessor yet keeps the
            // optimistic (empty-meet) state.
            Facts next = merged;
            applyTransfer(func, cfg.blocks[b], hinted, next);
            if (!computed[b] || next != out[b] || merged != in[b]) {
                in[b] = std::move(merged);
                out[b] = std::move(next);
                computed[b] = 1;
                changed = true;
            }
        }
    }

    for (uint32_t b : cfg.rpo) {
        const Block& block = cfg.blocks[b];
        if (!cfg.jumpTarget[block.begin])
            continue;
        for (const auto& [cell, limit] : in[b]) {
            result.entryFacts.push_back({block.begin, cell, limit});
        }
        // Count accesses the seeded JIT cache will newly elide: facts
        // alive from block entry (kills applied, no in-block gens).
        Facts fromEntry = in[b];
        for (uint32_t pc = block.begin; pc < block.end; pc++) {
            const LInst& inst = func.code[pc];
            if (inst.isWasmOp()) {
                Op op = inst.wasmOp();
                if ((isLoadOp(op) || isStoreOp(op)) && !hinted[pc]) {
                    auto it = fromEntry.find(inst.a);
                    if (it != fromEntry.end() &&
                        it->second >= inst.imm + memAccessSize(op))
                        result.crossBlockCovered++;
                }
                if (op == Op::memory_grow) {
                    fromEntry.clear();
                    continue;
                }
            } else if (inst.lop() == LOp::callf ||
                       inst.lop() == LOp::calli ||
                       inst.lop() == LOp::call_host) {
                fromEntry.clear();
                continue;
            }
            uint32_t written;
            if (writesCell(inst, written))
                fromEntry.erase(written);
        }
    }
    std::sort(result.entryFacts.begin(), result.entryFacts.end(),
              [](const LoweredFunc::EntryCheckFact& x,
                 const LoweredFunc::EntryCheckFact& y) {
                  return x.pc < y.pc || (x.pc == y.pc && x.cell < y.cell);
              });
    return result;
}

// ---------------------------------------------------------------------
// Superinstruction fusion
// ---------------------------------------------------------------------

bool
isFusableBinop(const LInst& inst)
{
    if (!inst.isWasmOp())
        return false;
    Op op = inst.wasmOp();
    if (isLoadOp(op) || isStoreOp(op) || isAtomicOp(op))
        return false; // their imm (offset) is live; cannot be repurposed
    if (opInfo(op).sig[0] == '*')
        return false;
    return numInputs(op) == 2 && hasOutput(op);
}

bool
isTwoInputCompare(const LInst& inst)
{
    if (!inst.isWasmOp())
        return false;
    Op op = inst.wasmOp();
    return (op >= Op::i32_eq && op <= Op::i32_ge_u) ||
           (op >= Op::i64_eq && op <= Op::i64_ge_u) ||
           (op >= Op::f32_eq && op <= Op::f64_ge);
}

bool
isConstOp(const LInst& inst)
{
    if (!inst.isWasmOp())
        return false;
    Op op = inst.wasmOp();
    return op == Op::i32_const || op == Op::i64_const ||
           op == Op::f32_const || op == Op::f64_const;
}

uint64_t
fuseSuperinstructions(LoweredFunc& func)
{
    std::vector<uint8_t> target;
    collectJumpTargets(func, target);
    const size_t n = func.code.size();
    std::vector<uint8_t> drop(n, 0);
    uint64_t fused = 0;
    for (size_t pc = 0; pc + 1 < n; pc++) {
        if (target[pc + 1])
            continue; // a jump could land between the pair
        LInst& a = func.code[pc];
        const LInst& b = func.code[pc + 1];
        LInst repl;
        bool matched = false;
        if (isTwoInputCompare(a) && !b.isWasmOp() &&
            (b.lop() == LOp::jump_if || b.lop() == LOp::jump_if_zero) &&
            b.b == a.a) {
            repl.op = uint16_t(LOp::fused_cmp_jump);
            repl.aux = a.op;
            repl.a = b.a; // branch target
            repl.b = a.a; // compare lhs / result cell
            repl.imm = (uint64_t(a.b) << 1) |
                       (b.lop() == LOp::jump_if_zero ? 1 : 0);
            matched = true;
        } else if (isConstOp(a) && isFusableBinop(b) && b.b == a.a) {
            repl.op = uint16_t(LOp::fused_const_binop);
            repl.aux = b.op;
            repl.a = b.a;
            repl.b = b.b;
            repl.imm = a.imm;
            matched = true;
        } else if (!a.isWasmOp() && a.lop() == LOp::copy &&
                   isFusableBinop(b) && (b.a == a.b || b.b == a.b)) {
            repl.op = uint16_t(LOp::fused_copy_binop);
            repl.aux = b.op;
            repl.a = b.a;
            repl.b = b.b;
            repl.imm = (uint64_t(a.a) << 32) | a.b;
            matched = true;
        } else if (a.isWasmOp() && isLoadOp(a.wasmOp()) &&
                   a.imm <= UINT32_MAX && isFusableBinop(b) &&
                   b.b == a.a) {
            repl.op = uint16_t(LOp::fused_load_binop);
            repl.aux = b.op;
            repl.a = b.a;
            repl.b = a.a; // load address / destination cell
            repl.imm = (uint64_t(a.op) << 32) | uint32_t(a.imm);
            matched = true;
        }
        if (matched) {
            a = repl;
            drop[pc + 1] = 1;
            fused++;
            pc++; // never re-fuse a freshly fused instruction
        }
    }
    if (fused > 0)
        applyDeletions(func, drop);
    return fused;
}

} // namespace

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

OptStats
optimizeLoweredFunc(LoweredFunc& func, const OptOptions& opts)
{
    OptStats stats;
    stats.instsBefore = func.code.size();
    func.entryCheckFacts.clear();
    func.elidableCheckPcs.clear();
    if (func.code.empty()) {
        stats.instsAfter = 0;
        return stats;
    }

    // Versioning runs first: it appends clones and marks fast-path
    // accesses elidable; the analyses below then see (and skip) those
    // marks.
    if (opts.versionLoops) {
        VersionResult versioned = versionLoops(func);
        stats.loopsVersioned = versioned.loopsVersioned;
        stats.checksVersioned = versioned.checksVersioned;
    }

    if (opts.analyzeChecks) {
        Cfg cfg = buildCfg(func);
        std::vector<uint8_t> hinted(func.code.size(), 0);
        for (uint32_t pc : func.elidableCheckPcs)
            hinted[pc] = 1;
        uint64_t covered = markVnElidableChecks(func, cfg, hinted);
        DataflowResult flow = runCheckDataflow(func, cfg, hinted);
        covered += flow.crossBlockCovered;
        func.entryCheckFacts = std::move(flow.entryFacts);
        stats.checksElided = covered;
        func.elidableCheckPcs.clear();
        for (uint32_t pc = 0; pc < hinted.size(); pc++) {
            if (hinted[pc])
                func.elidableCheckPcs.push_back(pc);
        }
    } else if (opts.versionLoops) {
        // The executors binary-search elidableCheckPcs; keep it sorted
        // even when the analysis pass did not rebuild it.
        std::sort(func.elidableCheckPcs.begin(),
                  func.elidableCheckPcs.end());
        func.elidableCheckPcs.erase(
            std::unique(func.elidableCheckPcs.begin(),
                        func.elidableCheckPcs.end()),
            func.elidableCheckPcs.end());
    }

    if (opts.fuse) {
        stats.instsFused = fuseSuperinstructions(func);
        // Fusion may have replaced hinted accesses with fused forms the
        // JIT hints cannot describe; drop stale hints defensively.
        std::vector<uint32_t> keep;
        for (uint32_t pc : func.elidableCheckPcs) {
            const LInst& inst = func.code[pc];
            if (inst.isWasmOp() && (isLoadOp(inst.wasmOp()) ||
                                    isStoreOp(inst.wasmOp())))
                keep.push_back(pc);
        }
        func.elidableCheckPcs = std::move(keep);
    }

    stats.instsAfter = func.code.size();
    return stats;
}

OptStats
optimizeLoweredModule(LoweredModule& module, const OptOptions& opts)
{
    OptStats total;
    for (LoweredFunc& func : module.funcs) {
        OptStats s = optimizeLoweredFunc(func, opts);
        total.checksElided += s.checksElided;
        total.instsFused += s.instsFused;
        total.loopsVersioned += s.loopsVersioned;
        total.checksVersioned += s.checksVersioned;
        total.instsBefore += s.instsBefore;
        total.instsAfter += s.instsAfter;
    }
    OptCounters& counters = optCounters();
    counters.elided.add(total.checksElided);
    counters.fused.add(total.instsFused);
    counters.versioned.add(total.loopsVersioned);
    return total;
}

} // namespace lnb::wasm
