/**
 * @file
 * Unit and property tests for the memory subsystem: every bounds
 * strategy's backend (creation, grow semantics, data init, fault
 * accounting), page-boundary properties, and the lock-free arena
 * registry.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "mem/arena_registry.h"
#include "mem/linear_memory.h"
#include "mem/signals.h"
#include "support/rng.h"

namespace lnb::mem {
namespace {

using wasm::kPageSize;
using wasm::Limits;

class MemoryStrategyTest
    : public testing::TestWithParam<BoundsStrategy>
{
  protected:
    std::unique_ptr<LinearMemory>
    make(uint32_t min_pages, uint32_t max_pages)
    {
        MemoryConfig config;
        config.strategy = GetParam();
        auto result =
            LinearMemory::create(Limits{min_pages, max_pages}, config);
        EXPECT_TRUE(result.isOk()) << result.status().toString();
        return result.isOk() ? result.takeValue() : nullptr;
    }
};

TEST_P(MemoryStrategyTest, CreateAndInitialSize)
{
    auto memory = make(3, 10);
    ASSERT_NE(memory, nullptr);
    EXPECT_EQ(memory->sizePages(), 3u);
    EXPECT_EQ(memory->sizeBytes(), 3 * kPageSize);
    EXPECT_NE(memory->base(), nullptr);
}

TEST_P(MemoryStrategyTest, GrowSemantics)
{
    auto memory = make(1, 4);
    ASSERT_NE(memory, nullptr);
    EXPECT_EQ(memory->grow(2), 1);  // returns old size
    EXPECT_EQ(memory->sizePages(), 3u);
    EXPECT_EQ(memory->grow(0), 3);  // zero-grow returns current
    EXPECT_EQ(memory->grow(5), -1); // over max
    EXPECT_EQ(memory->sizePages(), 3u);
    EXPECT_EQ(memory->grow(1), 3);
    EXPECT_EQ(memory->sizePages(), 4u);
}

TEST_P(MemoryStrategyTest, MemoryIsReadableWritableAndZeroed)
{
    auto memory = make(2, 4);
    ASSERT_NE(memory, nullptr);
    // Under TrapManager protection (uffd strategies fault pages in).
    TrapManager::install();
    wasm::TrapKind trap = TrapManager::protect([&] {
        uint8_t* base = memory->base();
        for (uint64_t off : {uint64_t(0), kPageSize - 1, kPageSize,
                             2 * kPageSize - 1}) {
            EXPECT_EQ(base[off], 0) << off; // fresh memory reads zero
            base[off] = uint8_t(off + 1);
            EXPECT_EQ(base[off], uint8_t(off + 1));
        }
    });
    EXPECT_EQ(trap, wasm::TrapKind::none);
}

TEST_P(MemoryStrategyTest, GrownRegionAccessible)
{
    auto memory = make(1, 4);
    ASSERT_NE(memory, nullptr);
    ASSERT_EQ(memory->grow(1), 1);
    wasm::TrapKind trap = TrapManager::protect([&] {
        memory->base()[2 * kPageSize - 1] = 42;
    });
    EXPECT_EQ(trap, wasm::TrapKind::none);
}

TEST_P(MemoryStrategyTest, InitDataBoundsChecked)
{
    auto memory = make(1, 1);
    ASSERT_NE(memory, nullptr);
    const uint8_t data[] = {9, 8, 7};
    wasm::TrapKind trap = TrapManager::protect([&] {
        EXPECT_TRUE(memory->initData(100, data, 3).isOk());
        EXPECT_EQ(memory->base()[101], 8);
        EXPECT_FALSE(
            memory->initData(uint32_t(kPageSize) - 2, data, 3).isOk());
    });
    EXPECT_EQ(trap, wasm::TrapKind::none);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MemoryStrategyTest,
    testing::Values(BoundsStrategy::none, BoundsStrategy::clamp,
                    BoundsStrategy::trap, BoundsStrategy::mprotect,
                    BoundsStrategy::uffd),
    [](const testing::TestParamInfo<BoundsStrategy>& info) {
        return std::string(boundsStrategyName(info.param));
    });

// ---------------------------------------------------------------------
// Guard-page strategy specifics
// ---------------------------------------------------------------------

TEST(GuardMemory, MprotectFaultBeyondSizeTraps)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::mprotect;
    auto memory =
        LinearMemory::create(Limits{1, 4}, config).takeValue();
    TrapManager::install();
    wasm::TrapKind trap = TrapManager::protect([&] {
        volatile uint8_t v = memory->base()[kPageSize]; // first OOB byte
        (void)v;
    });
    EXPECT_EQ(trap, wasm::TrapKind::out_of_bounds_memory);
    EXPECT_EQ(memory->faultsTrapped(), 1u);
}

TEST(GuardMemory, UffdPopulatesBelowBoundsTrapsAbove)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::uffd;
    config.forceUffdEmulation = true;
    auto memory =
        LinearMemory::create(Limits{2, 4}, config).takeValue();
    TrapManager::install();

    wasm::TrapKind ok = TrapManager::protect([&] {
        memory->base()[5] = 1;               // populates page 0
        memory->base()[kPageSize + 7] = 2;   // populates page 1
    });
    EXPECT_EQ(ok, wasm::TrapKind::none);
    EXPECT_EQ(memory->faultsHandled(), 2u);

    wasm::TrapKind oob = TrapManager::protect([&] {
        volatile uint8_t v = memory->base()[2 * kPageSize];
        (void)v;
    });
    EXPECT_EQ(oob, wasm::TrapKind::out_of_bounds_memory);
    EXPECT_EQ(memory->faultsTrapped(), 1u);

    // Grow is syscall-free: the previously-OOB page becomes accessible.
    EXPECT_EQ(memory->grow(1), 2);
    EXPECT_EQ(memory->resizeSyscalls(), 0u);
    wasm::TrapKind after = TrapManager::protect([&] {
        memory->base()[2 * kPageSize] = 3;
    });
    EXPECT_EQ(after, wasm::TrapKind::none);
}

/** The uffd strategy takes the kernel path whenever the probe finds it.
 * Also prints which backing this host gives, so a CI log shows whether
 * the uffd tests exercised real userfaultfd or the emulation. */
TEST(GuardMemory, UffdBackingMatchesProbe)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::uffd;
    auto memory = LinearMemory::create(Limits{1, 2}, config).takeValue();
    EXPECT_EQ(memory->arenaKind(), realUffdAvailable()
                                       ? ArenaKind::uffd_real
                                       : ArenaKind::uffd_emu);
    std::printf("uffd backing: %s\n",
                realUffdAvailable() ? "kernel userfaultfd" : "emulation");
}

TEST(GuardMemory, MprotectGrowCountsSyscalls)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::mprotect;
    auto memory =
        LinearMemory::create(Limits{1, 8}, config).takeValue();
    uint64_t initial = memory->resizeSyscalls();
    memory->grow(1);
    memory->grow(2);
    EXPECT_EQ(memory->resizeSyscalls(), initial + 2);
}

TEST(GuardMemory, ClampOffsetInsideReservation)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::clamp;
    auto memory =
        LinearMemory::create(Limits{1, 16}, config).takeValue();
    // The red zone sits past the maximum size and is writable.
    EXPECT_EQ(memory->clampOffset(), 16 * kPageSize);
    memory->base()[memory->clampOffset()] = 77;
    EXPECT_EQ(memory->base()[memory->clampOffset()], 77);
}

// ---------------------------------------------------------------------
// restore(): one rewind path for every backing, with or without a
// template
// ---------------------------------------------------------------------

struct RestoreVariant
{
    const char* name;
    BoundsStrategy strategy;
    bool emulate;
};

void
PrintTo(const RestoreVariant& variant, std::ostream* os)
{
    *os << variant.name;
}

class MemoryRestoreTest : public testing::TestWithParam<RestoreVariant>
{
  protected:
    /** Dirty, grow and scribble out of bounds, restore, then demand the
     * base image back: template bytes (or zeros) below the base, size
     * at the base, a trapping (guard) or zero (flat) tail, and no
     * residue anywhere a strategy lets stray stores land. */
    void
    exercise(bool with_template)
    {
        MemoryConfig config;
        config.strategy = GetParam().strategy;
        config.forceUffdEmulation = GetParam().emulate;
        auto created = LinearMemory::create(Limits{1, 4}, config);
        ASSERT_TRUE(created.isOk()) << created.status().toString();
        auto memory = created.takeValue();
        uint8_t* base = memory->base();
        const bool flat = memory->arenaKind() == ArenaKind::flat;

        ASSERT_EQ(TrapManager::protect([&] {
                      base[100] = 0xab;
                      base[kPageSize - 1] = 0xcd;
                  }),
                  wasm::TrapKind::none);
        if (with_template) {
            auto snap = memory->snapshot();
            if (memory->arenaKind() == ArenaKind::uffd_emu) {
                ASSERT_FALSE(snap.isOk());
                EXPECT_EQ(snap.status().code(), StatusCode::unsupported);
                return;
            }
            ASSERT_TRUE(snap.isOk()) << snap.status().toString();
            ASSERT_TRUE(memory->adoptSnapshot(snap.takeValue()).isOk());
        }
        const uint8_t tmpl_100 = with_template ? 0xab : 0;
        const uint8_t tmpl_last = with_template ? 0xcd : 0;

        // Dirty the base, grow, dirty the grown tail, and (flat only)
        // store above the high-water mark and into the red zone the way
        // `none` and clamp executors let out-of-bounds stores land.
        ASSERT_EQ(memory->grow(2), 1);
        ASSERT_EQ(TrapManager::protect([&] {
                      base[100] = 0x11;
                      base[200] = 0x22;
                      base[2 * kPageSize + 5] = 0x33;
                  }),
                  wasm::TrapKind::none);
        if (flat) {
            base[3 * kPageSize + 8] = 0x44;
            base[memory->clampOffset()] = 0x55;
        }

        bool grew = false;
        ASSERT_TRUE(memory->restore(&grew).isOk());
        EXPECT_TRUE(grew);
        EXPECT_EQ(memory->sizeBytes(), kPageSize);
        EXPECT_EQ(TrapManager::protect([&] {
                      EXPECT_EQ(base[100], tmpl_100);
                      EXPECT_EQ(base[200], 0);
                      EXPECT_EQ(base[kPageSize - 1], tmpl_last);
                  }),
                  wasm::TrapKind::none);

        // The grown tail is gone: it traps under the guard-page
        // strategies and reads zero on flat backings.
        wasm::TrapKind tail = TrapManager::protect([&] {
            volatile uint8_t v = base[2 * kPageSize + 5];
            EXPECT_EQ(v, 0);
        });
        EXPECT_EQ(tail, flat ? wasm::TrapKind::none
                             : wasm::TrapKind::out_of_bounds_memory);
        if (flat) {
            EXPECT_EQ(base[memory->clampOffset()], 0) << "red zone";
        }

        // Re-growing to the maximum exposes zeroed pages only: no
        // grown-tail bytes and no residue from above the high-water
        // mark.
        ASSERT_EQ(memory->grow(3), 1);
        EXPECT_EQ(TrapManager::protect([&] {
                      EXPECT_EQ(base[2 * kPageSize + 5], 0);
                      EXPECT_EQ(base[3 * kPageSize + 8], 0);
                  }),
                  wasm::TrapKind::none);

        // A second round restores the same image (the template mapping
        // and the rewound protections survive a restore).
        ASSERT_TRUE(memory->restore().isOk());
        EXPECT_EQ(memory->sizeBytes(), kPageSize);
        EXPECT_EQ(TrapManager::protect(
                      [&] { EXPECT_EQ(base[100], tmpl_100); }),
                  wasm::TrapKind::none);
    }
};

TEST_P(MemoryRestoreTest, WithoutTemplateRestoresZeroedInitialMemory)
{
    exercise(/*with_template=*/false);
}

TEST_P(MemoryRestoreTest, WithTemplateRestoresTemplate)
{
    exercise(/*with_template=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackings, MemoryRestoreTest,
    testing::Values(RestoreVariant{"none", BoundsStrategy::none, false},
                    RestoreVariant{"clamp", BoundsStrategy::clamp, false},
                    RestoreVariant{"trap", BoundsStrategy::trap, false},
                    RestoreVariant{"mprotect", BoundsStrategy::mprotect,
                                   false},
                    RestoreVariant{"uffd", BoundsStrategy::uffd, false},
                    RestoreVariant{"uffd_emu", BoundsStrategy::uffd,
                                   true}),
    [](const testing::TestParamInfo<RestoreVariant>& info) {
        return std::string(info.param.name);
    });

TEST(MemoryRestore, SharedMemoryIsRefused)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::trap;
    config.shared = true;
    auto memory = LinearMemory::create(Limits{1, 2}, config).takeValue();
    Status status = memory->restore();
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::unsupported);
}

// ---------------------------------------------------------------------
// Arena registry (lock-free find used by signal handlers)
// ---------------------------------------------------------------------

TEST(ArenaRegistry, AddFindRemove)
{
    alignas(4096) static uint8_t fake[8192];
    int before = ArenaRegistry::count();
    ArenaInfo* arena =
        ArenaRegistry::add(fake, sizeof fake, ArenaKind::guard, 4096);
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(ArenaRegistry::count(), before + 1);

    EXPECT_EQ(ArenaRegistry::find(fake), arena);
    EXPECT_EQ(ArenaRegistry::find(fake + 8191), arena);
    EXPECT_EQ(ArenaRegistry::find(fake + 8192), nullptr);

    ArenaRegistry::remove(arena);
    EXPECT_EQ(ArenaRegistry::find(fake), nullptr);
    EXPECT_EQ(ArenaRegistry::count(), before);
}

TEST(ArenaRegistry, ConcurrentAddRemoveIsSafe)
{
    constexpr int kThreads = 4, kIters = 500;
    std::vector<std::thread> threads;
    static uint8_t blocks[kThreads][4096];
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([t] {
            for (int i = 0; i < kIters; i++) {
                ArenaInfo* arena = ArenaRegistry::add(
                    blocks[t], sizeof blocks[t], ArenaKind::uffd_emu,
                    4096);
                ASSERT_NE(arena, nullptr);
                EXPECT_EQ(ArenaRegistry::find(blocks[t]), arena);
                ArenaRegistry::remove(arena);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
}

// ---------------------------------------------------------------------
// Trap manager
// ---------------------------------------------------------------------

TEST(TrapManager, NestedProtection)
{
    TrapManager::install();
    wasm::TrapKind outer = TrapManager::protect([&] {
        wasm::TrapKind inner = TrapManager::protect([&] {
            TrapManager::raiseTrap(wasm::TrapKind::unreachable);
        });
        EXPECT_EQ(inner, wasm::TrapKind::unreachable);
        // The outer frame is still intact.
        TrapManager::raiseTrap(wasm::TrapKind::integer_overflow);
    });
    EXPECT_EQ(outer, wasm::TrapKind::integer_overflow);
}

TEST(TrapManager, ProtectReturnsNoneOnSuccess)
{
    EXPECT_EQ(TrapManager::protect([] {}), wasm::TrapKind::none);
    EXPECT_FALSE(TrapManager::inProtectedScope());
}

// ---------------------------------------------------------------------
// Property test: random grow sequences keep bounds coherent
// ---------------------------------------------------------------------

TEST(MemoryProperty, RandomGrowSequences)
{
    Rng rng(123);
    for (int round = 0; round < 20; round++) {
        BoundsStrategy strategy = BoundsStrategy(rng.nextBelow(5));
        MemoryConfig config;
        config.strategy = strategy;
        uint32_t max_pages = uint32_t(2 + rng.nextBelow(30));
        auto result =
            LinearMemory::create(Limits{1, max_pages}, config);
        ASSERT_TRUE(result.isOk());
        auto memory = result.takeValue();

        uint32_t expected = 1;
        for (int step = 0; step < 12; step++) {
            uint32_t delta = uint32_t(rng.nextBelow(6));
            int64_t previous = memory->grow(delta);
            if (expected + delta <= max_pages) {
                EXPECT_EQ(previous, int64_t(expected));
                expected += delta;
            } else {
                EXPECT_EQ(previous, -1);
            }
            EXPECT_EQ(memory->sizePages(), expected);
        }
        // The last byte of the final size is writable; one past traps
        // for guard strategies.
        wasm::TrapKind tail = TrapManager::protect([&] {
            memory->base()[uint64_t(expected) * kPageSize - 1] = 1;
        });
        EXPECT_EQ(tail, wasm::TrapKind::none)
            << boundsStrategyName(strategy);
    }
}

} // namespace
} // namespace lnb::mem
