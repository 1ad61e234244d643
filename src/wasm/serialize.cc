#include "wasm/serialize.h"

namespace lnb::wasm {

namespace {

void
writeFuncType(const FuncType& t, ByteWriter& w)
{
    w.podVec(t.params);
    w.podVec(t.results);
}

FuncType
readFuncType(ByteReader& r)
{
    FuncType t;
    t.params = r.podVec<ValType>();
    t.results = r.podVec<ValType>();
    return t;
}

void
writeLoweredFunc(const LoweredFunc& f, ByteWriter& w, bool include_code)
{
    w.u32(f.funcIdx);
    w.u32(f.typeIdx);
    w.u32(f.numParams);
    w.u32(f.numLocalCells);
    w.u32(f.numCells);
    w.u16(f.numResults);
    w.podVec(f.localTypes);
    if (!include_code)
        return;
    w.podVec(f.code);
    w.podVec(f.tablePool);
    w.podVec(f.entryCheckFacts);
    w.podVec(f.elidableCheckPcs);
}

LoweredFunc
readLoweredFunc(ByteReader& r, bool include_code)
{
    LoweredFunc f;
    f.funcIdx = r.u32();
    f.typeIdx = r.u32();
    f.numParams = r.u32();
    f.numLocalCells = r.u32();
    f.numCells = r.u32();
    f.numResults = r.u16();
    f.localTypes = r.podVec<ValType>();
    if (!include_code)
        return f;
    f.code = r.podVec<LInst>();
    f.tablePool = r.podVec<uint32_t>();
    f.entryCheckFacts = r.podVec<LoweredFunc::EntryCheckFact>();
    f.elidableCheckPcs = r.podVec<uint32_t>();
    return f;
}

} // namespace

void
serializeModule(const Module& m, ByteWriter& w)
{
    w.u64(m.types.size());
    for (const FuncType& t : m.types)
        writeFuncType(t, w);

    w.u64(m.imports.size());
    for (const Import& imp : m.imports) {
        w.str(imp.module);
        w.str(imp.name);
        w.u32(imp.typeIdx);
    }

    w.podVec(m.functions);
    w.podVec(m.tables);
    w.podVec(m.memories);
    w.podVec(m.globals);

    w.u64(m.exports.size());
    for (const Export& e : m.exports) {
        w.str(e.name);
        w.u8(uint8_t(e.kind));
        w.u32(e.index);
    }

    w.boolean(m.start.has_value());
    w.u32(m.start.value_or(0));

    w.u64(m.elems.size());
    for (const ElemSegment& e : m.elems) {
        w.pod(e.offset);
        w.podVec(e.funcs);
    }

    w.u64(m.datas.size());
    for (const DataSegment& d : m.datas) {
        w.pod(d.offset);
        w.podVec(d.bytes);
    }
    // m.bodies is deliberately not serialized: raw wasm bodies feed the
    // validator and the lowering pass, both of which ran before the
    // artifact was produced. Execution (interpreter and JIT alike) works
    // off the lowered funcs, so persisted modules reload without them.
}

bool
deserializeModule(ByteReader& r, Module& out)
{
    out = Module{};

    uint64_t n = r.u64();
    if (!r.ok())
        return false;
    out.types.reserve(size_t(n));
    for (uint64_t i = 0; i < n && r.ok(); i++)
        out.types.push_back(readFuncType(r));

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        Import imp;
        imp.module = r.str();
        imp.name = r.str();
        imp.typeIdx = r.u32();
        out.imports.push_back(std::move(imp));
    }

    out.functions = r.podVec<uint32_t>();
    out.tables = r.podVec<Limits>();
    out.memories = r.podVec<Limits>();
    out.globals = r.podVec<GlobalDef>();

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        Export e;
        e.name = r.str();
        e.kind = ExternKind(r.u8());
        e.index = r.u32();
        out.exports.push_back(std::move(e));
    }

    bool has_start = r.boolean();
    uint32_t start = r.u32();
    if (has_start)
        out.start = start;

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        ElemSegment e;
        e.offset = r.pod<Instr>();
        e.funcs = r.podVec<uint32_t>();
        out.elems.push_back(std::move(e));
    }

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        DataSegment d;
        d.offset = r.pod<Instr>();
        d.bytes = r.podVec<uint8_t>();
        out.datas.push_back(std::move(d));
    }

    return r.ok();
}

void
serializeLoweredModule(const LoweredModule& lm, ByteWriter& w,
                       bool include_func_code)
{
    serializeModule(lm.module, w);
    w.boolean(include_func_code);
    w.u64(lm.funcs.size());
    for (const LoweredFunc& f : lm.funcs)
        writeLoweredFunc(f, w, include_func_code);
    w.podVec(lm.typeCanon);
}

bool
deserializeLoweredModule(ByteReader& r, LoweredModule& out)
{
    out = LoweredModule{};
    if (!deserializeModule(r, out.module))
        return false;
    bool include_func_code = r.boolean();
    uint64_t n = r.u64();
    if (!r.ok())
        return false;
    out.funcs.reserve(size_t(n));
    for (uint64_t i = 0; i < n && r.ok(); i++)
        out.funcs.push_back(readLoweredFunc(r, include_func_code));
    out.typeCanon = r.podVec<uint32_t>();
    return r.ok();
}

} // namespace lnb::wasm
