/**
 * @file
 * Snapshot/restore instantiation and persistent code cache (DESIGN.md
 * §14): restored instances must be bit-exact with fresh ones across
 * every (strategy, engine) pair, growing past the template must be
 * invalidated cleanly on recycle, shared memories and the uffd
 * emulation must refuse capture but stay correct, serialized artifacts
 * must round-trip through bytes, and the disk cache must reject
 * corrupt, truncated and stale files while surviving a process
 * boundary.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "jit/assembler.h"
#include "jit/compiler.h"
#include "mem/linear_memory.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "svc/module_cache.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"

namespace lnb {
namespace {

using jit::RelocKind;
using mem::BoundsStrategy;
using rt::CallOutcome;
using rt::Engine;
using rt::EngineConfig;
using rt::EngineKind;
using rt::ImportMap;
using rt::Instance;
using wasm::Instr;
using wasm::Op;
using wasm::ValType;
using wasm::Value;

/** Encoded module bytes shared by every test. */
struct TestModule
{
    std::vector<uint8_t> bytes;
};

TestModule
buildStateful(bool impure_start = false)
{
    wasm::ModuleBuilder mb;
    uint32_t void_t = mb.addType({}, {});
    uint32_t host_idx = 0;
    if (impure_start)
        host_idx = mb.addImport("env", "tick", void_t);
    mb.addMemory(1, 4);
    std::vector<uint8_t> seed = {1, 2, 3, 4, 5, 6, 7, 8};
    mb.addData(64, seed);
    uint32_t g = mb.addGlobal(ValType::i32, true, Instr::constI32(7));

    auto& start = mb.addFunction(void_t);
    if (impure_start)
        start.call(host_idx);
    // start: grow one page, store a marker in the original page and one
    // in the grown page, and derive the global from the data segment.
    start.i32Const(1);
    start.memoryGrow();
    start.drop();
    start.i32Const(128);
    start.i32Const(int32_t(0xdeadbeef));
    start.memOp(Op::i32_store);
    start.i32Const(65536 + 16); // second page
    start.i32Const(4242);
    start.memOp(Op::i32_store);
    start.i32Const(64);
    start.memOp(Op::i32_load); // 0x04030201 from the data segment
    start.globalGet(g);
    start.emit(Op::i32_add);
    start.globalSet(g);
    uint32_t start_idx = start.finish();
    mb.setStart(start_idx);

    uint32_t poke_t = mb.addType({ValType::i32, ValType::i32}, {});
    auto& poke = mb.addFunction(poke_t);
    poke.localGet(0);
    poke.localGet(1);
    poke.memOp(Op::i32_store);
    mb.exportFunc("poke", poke.finish());

    uint32_t peek_t = mb.addType({ValType::i32}, {ValType::i32});
    auto& peek = mb.addFunction(peek_t);
    peek.localGet(0);
    peek.memOp(Op::i32_load);
    mb.exportFunc("peek", peek.finish());

    uint32_t gget_t = mb.addType({}, {ValType::i32});
    auto& gget = mb.addFunction(gget_t);
    gget.globalGet(g);
    mb.exportFunc("gget", gget.finish());

    auto& bump = mb.addFunction(void_t);
    bump.globalGet(g);
    bump.i32Const(1);
    bump.emit(Op::i32_add);
    bump.globalSet(g);
    mb.exportFunc("bump", bump.finish());

    uint32_t grow_t = mb.addType({ValType::i32}, {ValType::i32});
    auto& grow = mb.addFunction(grow_t);
    grow.localGet(0);
    grow.memoryGrow();
    mb.exportFunc("grow", grow.finish());

    uint32_t size_t_ = mb.addType({}, {ValType::i32});
    auto& size = mb.addFunction(size_t_);
    size.memorySize();
    mb.exportFunc("size", size.finish());

    return {wasm::encodeModule(mb.build())};
}

int32_t
callI32(Instance& inst, const std::string& name,
        std::vector<Value> args = {})
{
    CallOutcome out = inst.callExport(name, args);
    EXPECT_TRUE(out.ok()) << name << ": " << wasm::trapKindName(out.trap);
    return out.ok() && !out.results.empty() ? int32_t(out.results[0].i32)
                                            : -1;
}

void
callVoid(Instance& inst, const std::string& name,
         std::vector<Value> args = {})
{
    CallOutcome out = inst.callExport(name, args);
    EXPECT_TRUE(out.ok()) << name << ": " << wasm::trapKindName(out.trap);
}

/** Instance state equality: size, full memory contents, global. */
void
expectBitExact(Instance& a, Instance& b, const std::string& what)
{
    ASSERT_NE(a.memory(), nullptr);
    ASSERT_NE(b.memory(), nullptr);
    ASSERT_EQ(a.memory()->sizeBytes(), b.memory()->sizeBytes()) << what;
    EXPECT_EQ(std::memcmp(a.memory()->base(), b.memory()->base(),
                          size_t(a.memory()->sizeBytes())),
              0)
        << what << ": memory contents differ";
    EXPECT_EQ(callI32(a, "gget"), callI32(b, "gget")) << what;
}

struct EngineCase
{
    const char* name;
    EngineKind kind;
    bool tiered;
};

const EngineCase kEngines[] = {
    {"interp", EngineKind::interp_threaded, false},
    {"jit", EngineKind::jit_base, false},
    {"tiered", EngineKind::jit_opt, true},
};

TEST(Snapshot, RestoredBitExactAcrossStrategiesAndEngines)
{
    TestModule tm = buildStateful();
    for (const EngineCase& ec : kEngines) {
        for (int s = 0; s < mem::kNumBoundsStrategies; s++) {
            EngineConfig config;
            config.kind = ec.kind;
            config.tiered = ec.tiered;
            config.strategy = BoundsStrategy(s);
            SCOPED_TRACE(std::string(ec.name) + "/" +
                         mem::boundsStrategyName(config.strategy));

            Engine engine(config);
            auto compiled = engine.compileBytes(tm.bytes);
            ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
            auto cm = compiled.takeValue();

            // First instance runs segments + start and captures the
            // template; the second restores from it (where supported).
            auto a = Instance::create(cm);
            ASSERT_TRUE(a.isOk()) << a.status().toString();
            auto b = Instance::create(cm);
            ASSERT_TRUE(b.isOk()) << b.status().toString();
            expectBitExact(*a.value(), *b.value(), "fresh vs restored");
            // Every backing but the uffd emulation captures a template
            // (the emulation's own test covers the refusal).
            if (config.strategy != BoundsStrategy::uffd ||
                mem::realUffdAvailable()) {
                EXPECT_TRUE(a.value()->memory()->hasSnapshot());
                EXPECT_TRUE(b.value()->memory()->hasSnapshot());
            }

            // Post-start state must be present either way.
            EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(128)}),
                      int32_t(0xdeadbeef));
            EXPECT_EQ(callI32(*b.value(), "peek",
                              {Value::fromI32(65536 + 16)}),
                      4242);
            EXPECT_EQ(callI32(*b.value(), "gget"),
                      7 + int32_t(0x04030201));
            EXPECT_EQ(callI32(*b.value(), "size"), 2);

            // Dirty the restored instance, recycle it, and demand bit
            // equality with a never-touched sibling again.
            callVoid(*b.value(), "poke",
                     {Value::fromI32(256), Value::fromI32(777)});
            callVoid(*b.value(), "bump");
            ASSERT_TRUE(b.value()->recycle().isOk());
            expectBitExact(*a.value(), *b.value(), "after recycle");
            EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(256)}),
                      0);
        }
    }
}

TEST(Snapshot, GrowPastTemplateIsInvalidatedOnRecycle)
{
    TestModule tm = buildStateful();
    for (int si = 0; si < mem::kNumBoundsStrategies; si++) {
        BoundsStrategy s = BoundsStrategy(si);
        if (s == BoundsStrategy::uffd && !mem::realUffdAvailable())
            continue; // the emulation never templates
        EngineConfig config;
        config.strategy = s;
        SCOPED_TRACE(mem::boundsStrategyName(s));
        Engine engine(config);
        auto compiled = engine.compileBytes(tm.bytes);
        ASSERT_TRUE(compiled.isOk());
        auto cm = compiled.takeValue();

        auto a = Instance::create(cm);
        ASSERT_TRUE(a.isOk());
        auto b = Instance::create(cm);
        ASSERT_TRUE(b.isOk()) << b.status().toString();
        Instance& inst = *b.value();
        ASSERT_TRUE(inst.memory()->hasSnapshot());

        // Grow past the 2-page template and dirty the third page.
        EXPECT_EQ(callI32(inst, "grow", {Value::fromI32(1)}), 2);
        callVoid(inst, "poke",
                 {Value::fromI32(2 * 65536 + 8), Value::fromI32(31337)});
        ASSERT_TRUE(inst.recycle().isOk());

        // Size must be back at the template, contents bit-exact...
        EXPECT_EQ(callI32(inst, "size"), 2);
        expectBitExact(*a.value(), inst, "after grow + recycle");
        // ...and re-growing must expose zeroed pages, not residue.
        EXPECT_EQ(callI32(inst, "grow", {Value::fromI32(1)}), 2);
        EXPECT_EQ(callI32(inst, "peek", {Value::fromI32(2 * 65536 + 8)}),
                  0);
    }
}

TEST(Snapshot, SharedMemoryRefusesCapture)
{
    TestModule tm = buildStateful();
    EngineConfig config;
    config.sharedMemory = true;
    Engine engine(config);
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto cm = compiled.takeValue();

    auto a = Instance::create(cm);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    auto b = Instance::create(cm);
    ASSERT_TRUE(b.isOk());
    // No template on either instance's memory; behavior stays correct.
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());
    EXPECT_FALSE(b.value()->memory()->hasSnapshot());
    EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(128)}),
              int32_t(0xdeadbeef));
}

TEST(Snapshot, UffdEmulationRefusesCaptureButStaysCorrect)
{
    TestModule tm = buildStateful();
    EngineConfig config;
    config.strategy = BoundsStrategy::uffd;
    config.forceUffdEmulation = true;
    Engine engine(config);
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    auto cm = compiled.takeValue();

    auto a = Instance::create(cm);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());
    EXPECT_TRUE(cm->snapshotRefused());
    auto b = Instance::create(cm);
    ASSERT_TRUE(b.isOk());
    EXPECT_FALSE(b.value()->memory()->hasSnapshot());
    // Recycle without a template still works and is still equivalent
    // to fresh.
    callVoid(*b.value(), "poke",
             {Value::fromI32(512), Value::fromI32(99)});
    ASSERT_TRUE(b.value()->recycle().isOk());
    expectBitExact(*a.value(), *b.value(), "uffd-emu recycle");
}

TEST(Snapshot, ImpureStartSkipsCapture)
{
    TestModule tm = buildStateful(/*impure_start=*/true);
    EngineConfig config;
    Engine engine(config);
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    auto cm = compiled.takeValue();
    EXPECT_FALSE(cm->startIsPure());

    ImportMap imports;
    imports.add("env", "tick", wasm::FuncType{{}, {}},
                [](exec::InstanceContext*, Value*, void*) {});
    auto a = Instance::create(cm, imports);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());
    auto b = Instance::create(cm, imports);
    ASSERT_TRUE(b.isOk());
    expectBitExact(*a.value(), *b.value(), "impure start");
}

// ---------------------------------------------------------------------
// Serialized artifacts and the persistent disk cache
// ---------------------------------------------------------------------

TEST(Serialize, CompiledModuleRoundTripsThroughBytes)
{
    TestModule tm = buildStateful();
    for (const EngineCase& ec : kEngines) {
        for (BoundsStrategy s :
             {BoundsStrategy::trap, BoundsStrategy::mprotect,
              BoundsStrategy::clamp}) {
            EngineConfig config;
            config.kind = ec.kind;
            config.tiered = ec.tiered;
            config.strategy = s;
            SCOPED_TRACE(std::string(ec.name) + "/" +
                         mem::boundsStrategyName(s));
            Engine engine(config);
            auto compiled = engine.compileBytes(tm.bytes);
            ASSERT_TRUE(compiled.isOk());
            auto cm = compiled.takeValue();

            std::vector<uint8_t> blob = rt::serializeCompiledModule(*cm);
            auto reloaded =
                rt::deserializeCompiledModule(blob.data(), blob.size());
            ASSERT_TRUE(reloaded.isOk())
                << reloaded.status().toString();

            auto a = Instance::create(cm);
            ASSERT_TRUE(a.isOk());
            auto b = Instance::create(reloaded.takeValue());
            ASSERT_TRUE(b.isOk()) << b.status().toString();
            expectBitExact(*a.value(), *b.value(), "reloaded artifact");
            callVoid(*b.value(), "poke",
                     {Value::fromI32(300), Value::fromI32(1)});
            EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(300)}),
                      1);
            EXPECT_EQ(callI32(*b.value(), "size"), 2);
        }
    }
}

TEST(Serialize, TruncatedBlobIsRejected)
{
    TestModule tm = buildStateful();
    Engine engine(EngineConfig{});
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    for (size_t len : {size_t(0), size_t(8), blob.size() / 2,
                       blob.size() - 1}) {
        auto reloaded = rt::deserializeCompiledModule(blob.data(), len);
        EXPECT_FALSE(reloaded.isOk()) << "len=" << len;
    }
}

/** The JIT code artifact is the last field of a serialized module; these
 * mutations hit the tables whose values index memory directly. Each
 * must come back as an error, not a crash on the first call. */
TEST(Serialize, MutatedCodeArtifactIsRejected)
{
    // One import (a thunk) and one defined-to-defined call (a code-table
    // relocation).
    wasm::ModuleBuilder mb;
    uint32_t void_t = mb.addType({}, {});
    mb.addImport("env", "tick", void_t);
    uint32_t i32_t = mb.addType({}, {ValType::i32});
    auto& inner = mb.addFunction(i32_t);
    inner.i32Const(41);
    uint32_t inner_idx = inner.finish();
    auto& outer = mb.addFunction(i32_t);
    outer.call(inner_idx);
    outer.i32Const(1);
    outer.emit(Op::i32_add);
    mb.exportFunc("outer", outer.finish());
    std::vector<uint8_t> bytes = wasm::encodeModule(mb.build());

    EngineConfig config;
    config.kind = EngineKind::jit_base;
    Engine engine(config);
    auto compiled = engine.compileBytes(bytes);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto cm = compiled.takeValue();
    ASSERT_NE(cm->jitCode(), nullptr);

    std::vector<uint8_t> blob = rt::serializeCompiledModule(*cm);
    wasm::ByteWriter w;
    jit::serializeCode(*cm->jitCode(), w);
    const std::vector<uint8_t>& code = w.bytes();
    ASSERT_GE(blob.size(), code.size());
    const size_t at = blob.size() - code.size();
    ASSERT_EQ(std::memcmp(blob.data() + at, code.data(), code.size()), 0);

    // Locate each field by walking the artifact layout.
    wasm::ByteReader r(code.data(), code.size());
    const size_t imports_at = at + r.pos();
    uint32_t num_imports = r.u32();
    r.u32();
    uint64_t used = r.u64();
    const size_t entries_at = at + r.pos();
    uint64_t num_entries = r.u64();
    for (uint64_t i = 0; i < num_entries; i++)
        r.u64();
    const size_t thunks_at = at + r.pos();
    uint64_t num_thunks = r.u64();
    for (uint64_t i = 0; i < num_thunks; i++)
        r.u64();
    r.u8();
    for (int i = 0; i < 4; i++)
        r.podVec<uint32_t>();
    uint64_t num_relocs = r.u64();
    size_t table_reloc_at = 0;
    for (uint64_t i = 0; i < num_relocs; i++) {
        size_t here = at + r.pos();
        r.u32();
        if (RelocKind(r.u8()) == RelocKind::codeTable)
            table_reloc_at = here;
        r.u64();
    }
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(num_imports, 1u);
    ASSERT_EQ(num_entries, 2u);
    ASSERT_EQ(num_thunks, 1u);
    ASSERT_NE(table_reloc_at, 0u) << "no code-table relocation emitted";

    auto put = [](std::vector<uint8_t>& b, size_t pos, auto value) {
        std::memcpy(b.data() + pos, &value, sizeof value);
    };
    auto expect_rejected = [&](const char* what, auto mutate) {
        std::vector<uint8_t> bad = blob;
        mutate(bad);
        auto reloaded = rt::deserializeCompiledModule(bad.data(), bad.size());
        EXPECT_FALSE(reloaded.isOk()) << what;
    };

    ASSERT_TRUE(rt::deserializeCompiledModule(blob.data(), blob.size())
                    .isOk());
    expect_rejected("import count", [&](std::vector<uint8_t>& b) {
        put(b, imports_at, num_imports + 1);
    });
    expect_rejected("entry offset past the code", [&](std::vector<uint8_t>& b) {
        put(b, entries_at + 8, used + 64);
    });
    expect_rejected("entry table one short", [&](std::vector<uint8_t>& b) {
        put(b, entries_at, num_entries - 1);
        b.erase(b.begin() + long(entries_at + 8),
                b.begin() + long(entries_at + 16));
    });
    expect_rejected("thunk table one long", [&](std::vector<uint8_t>& b) {
        put(b, thunks_at, num_thunks + 1);
        b.insert(b.begin() + long(thunks_at + 8), 8, uint8_t(0));
    });
    expect_rejected("relocation offset wraps", [&](std::vector<uint8_t>& b) {
        put(b, table_reloc_at, uint32_t(0xfffffffc));
    });
    expect_rejected("code-table addend past the table",
                    [&](std::vector<uint8_t>& b) {
                        put(b, table_reloc_at + 5,
                            uint64_t(3 * sizeof(exec::FuncCode)));
                    });
}

class PersistCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/lnb_snapshot_cache_XXXXXX";
        ASSERT_NE(mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        tm_ = buildStateful();
    }

    void TearDown() override
    {
        std::string cmd = "rm -rf " + dir_;
        (void)system(cmd.c_str());
    }

    std::string cacheFilePath(const EngineConfig& config) const
    {
        svc::ModuleKey key{
            svc::contentHash64(tm_.bytes.data(), tm_.bytes.size()),
            svc::engineConfigFingerprint(rt::resolveEngineConfig(config))};
        char name[64];
        std::snprintf(name, sizeof name, "/%016llx-%016llx.lnbc",
                      static_cast<unsigned long long>(key.bytesHash),
                      static_cast<unsigned long long>(key.configHash));
        return dir_ + name;
    }

    std::string dir_;
    TestModule tm_;
};

TEST_F(PersistCacheTest, SecondCacheLoadsFromDisk)
{
    EngineConfig config;
    {
        svc::ModuleCache cache(8, dir_.c_str());
        auto r = cache.getOrCompile(tm_.bytes, config);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        EXPECT_EQ(cache.stats().persistMisses, 1u);
        EXPECT_EQ(cache.stats().persistHits, 0u);
    }
    struct stat st;
    ASSERT_EQ(stat(cacheFilePath(config).c_str(), &st), 0)
        << "artifact not persisted";

    svc::ModuleCache cache(8, dir_.c_str());
    auto r = cache.getOrCompile(tm_.bytes, config);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(cache.stats().persistHits, 1u);
    EXPECT_EQ(cache.stats().persistRejects, 0u);
    auto inst = Instance::create(r.takeValue());
    ASSERT_TRUE(inst.isOk()) << inst.status().toString();
    EXPECT_EQ(callI32(*inst.value(), "peek", {Value::fromI32(128)}),
              int32_t(0xdeadbeef));
}

TEST_F(PersistCacheTest, CorruptTruncatedAndStaleFilesAreRejected)
{
    EngineConfig config;
    {
        svc::ModuleCache cache(8, dir_.c_str());
        ASSERT_TRUE(cache.getOrCompile(tm_.bytes, config).isOk());
    }
    std::string path = cacheFilePath(config);

    auto mutate_and_expect_reject = [&](auto mutator, const char* what) {
        mutator();
        svc::ModuleCache cache(8, dir_.c_str());
        auto r = cache.getOrCompile(tm_.bytes, config);
        ASSERT_TRUE(r.isOk()) << what << ": " << r.status().toString();
        EXPECT_EQ(cache.stats().persistRejects, 1u) << what;
        EXPECT_EQ(cache.stats().persistHits, 0u) << what;
        // The reject recompiled and overwrote: a fresh cache hits again.
        svc::ModuleCache again(8, dir_.c_str());
        ASSERT_TRUE(again.getOrCompile(tm_.bytes, config).isOk());
        EXPECT_EQ(again.stats().persistHits, 1u) << what;
    };

    // Corrupt one payload byte (payload hash mismatch).
    mutate_and_expect_reject(
        [&] {
            FILE* f = fopen(path.c_str(), "r+b");
            ASSERT_NE(f, nullptr);
            ASSERT_EQ(fseek(f, 64, SEEK_SET), 0);
            int c = fgetc(f);
            ASSERT_EQ(fseek(f, 64, SEEK_SET), 0);
            fputc(c ^ 0xff, f);
            fclose(f);
        },
        "corrupt payload");

    // Truncate below the header size.
    mutate_and_expect_reject(
        [&] { ASSERT_EQ(truncate(path.c_str(), 10), 0); },
        "truncated file");

    // Stale build id (another binary's artifact).
    mutate_and_expect_reject(
        [&] {
            FILE* f = fopen(path.c_str(), "r+b");
            ASSERT_NE(f, nullptr);
            // buildId occupies header bytes [8, 16).
            ASSERT_EQ(fseek(f, 8, SEEK_SET), 0);
            uint64_t bogus = svc::moduleCacheBuildId() + 1;
            fwrite(&bogus, sizeof bogus, 1, f);
            fclose(f);
        },
        "stale build id");

    // Another format version: 2 is the layout before the float-live
    // masks covered five register slots, 4 a newer one.
    for (uint32_t version : {2u, 4u}) {
        mutate_and_expect_reject(
            [&] {
                FILE* f = fopen(path.c_str(), "r+b");
                ASSERT_NE(f, nullptr);
                // formatVersion occupies header bytes [4, 8).
                ASSERT_EQ(fseek(f, 4, SEEK_SET), 0);
                fwrite(&version, sizeof version, 1, f);
                fclose(f);
            },
            "other format version");
    }
}

TEST(PersistCacheBuildId, StableAndNonZero)
{
    // Taken from the binary's GNU build-id note (or the compile stamp
    // when the linker wrote none): the same for every call.
    EXPECT_NE(svc::moduleCacheBuildId(), 0u);
    EXPECT_EQ(svc::moduleCacheBuildId(), svc::moduleCacheBuildId());
}

TEST_F(PersistCacheTest, DifferentConfigUsesDifferentFile)
{
    EngineConfig a;
    EngineConfig b;
    b.strategy = BoundsStrategy::trap;
    {
        svc::ModuleCache cache(8, dir_.c_str());
        ASSERT_TRUE(cache.getOrCompile(tm_.bytes, a).isOk());
    }
    svc::ModuleCache cache(8, dir_.c_str());
    auto r = cache.getOrCompile(tm_.bytes, b);
    ASSERT_TRUE(r.isOk());
    // No hit, no reject: config b's key never matches config a's file.
    EXPECT_EQ(cache.stats().persistHits, 0u);
    EXPECT_EQ(cache.stats().persistRejects, 0u);
    EXPECT_EQ(cache.stats().persistMisses, 1u);
    EXPECT_NE(cacheFilePath(a), cacheFilePath(b));
}

TEST_F(PersistCacheTest, CrossProcessReload)
{
    EngineConfig config;
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: compile and persist, then exit without running gtest
        // teardown (the parent owns the fixture).
        svc::ModuleCache cache(8, dir_.c_str());
        auto r = cache.getOrCompile(tm_.bytes, config);
        _exit(r.isOk() && cache.stats().persistMisses == 1 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    // Parent: a different process reloads the child's artifact.
    svc::ModuleCache cache(8, dir_.c_str());
    bool was_hit = true;
    auto r = cache.getOrCompile(tm_.bytes, config, &was_hit);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_FALSE(was_hit); // in-memory miss...
    EXPECT_EQ(cache.stats().persistHits, 1u); // ...served from disk
    auto inst = Instance::create(r.takeValue());
    ASSERT_TRUE(inst.isOk()) << inst.status().toString();
    EXPECT_EQ(callI32(*inst.value(), "gget"), 7 + int32_t(0x04030201));
}

} // namespace
} // namespace lnb
