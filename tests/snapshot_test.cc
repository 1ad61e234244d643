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

#include "mem/linear_memory.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "svc/module_cache.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"

namespace lnb {
namespace {

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
    for (BoundsStrategy s :
         {BoundsStrategy::mprotect, BoundsStrategy::none,
          BoundsStrategy::trap}) {
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
    // Legacy recycle path still works and is still equivalent to fresh.
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

    // Previous format version (an artifact written before the lowered-IR
    // layout changed).
    mutate_and_expect_reject(
        [&] {
            FILE* f = fopen(path.c_str(), "r+b");
            ASSERT_NE(f, nullptr);
            // formatVersion occupies header bytes [4, 8).
            ASSERT_EQ(fseek(f, 4, SEEK_SET), 0);
            uint32_t previous = 1;
            fwrite(&previous, sizeof previous, 1, f);
            fclose(f);
        },
        "previous format version");
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
