/**
 * @file
 * WebAssembly linear memory with pluggable bounds-checking backends — the
 * core artifact under study in the paper (§3.1).
 *
 * Strategy -> backing implementation:
 *
 *  none      8 GiB read-write reservation; executors emit no checks. An
 *            out-of-bounds access lands in the reservation silently (the
 *            unsafe speed-of-light baseline).
 *  clamp     committed allocation with a permanently mapped red zone at
 *            the end; executors clamp out-of-bounds addresses to the red
 *            zone ("the memory end pointer is used instead").
 *  trap      same allocation; executors emit an explicit compare-and-trap.
 *  mprotect  8 GiB PROT_NONE reservation; the valid prefix is made
 *            read-write with mprotect(2) at creation and on every grow —
 *            the default V8/WAVM/Wasmtime scheme whose grow path takes the
 *            kernel's per-process VMA lock.
 *  uffd      8 GiB reservation whose pages are populated lazily from the
 *            fault handler; grow just bumps an atomic bounds word — no
 *            syscall, no process-wide lock. Uses the real userfaultfd(2)
 *            when the kernel offers it, otherwise a faithful emulation
 *            (see DESIGN.md substitution 4).
 */
#ifndef LNB_MEM_LINEAR_MEMORY_H
#define LNB_MEM_LINEAR_MEMORY_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "mem/arena_registry.h"
#include "support/status.h"
#include "wasm/types.h"

namespace lnb::mem {

/** The five bounds-checking strategies of paper §3.1. */
enum class BoundsStrategy : uint8_t {
    none = 0,
    clamp,
    trap,
    mprotect,
    uffd,
};

constexpr int kNumBoundsStrategies = 5;

/** Lowercase strategy name as used in the paper's figures. */
const char* boundsStrategyName(BoundsStrategy strategy);

/** Parse a strategy name; returns false for unknown names. */
bool boundsStrategyFromName(const std::string& name, BoundsStrategy& out);

/** True if the strategy needs no executor-emitted checks (OOB detection is
 * delegated to guard pages / the fault handler). */
inline bool
strategyUsesGuardPages(BoundsStrategy s)
{
    return s == BoundsStrategy::mprotect || s == BoundsStrategy::uffd;
}

/** True if executors must emit inline software checks. */
inline bool
strategyUsesSoftwareChecks(BoundsStrategy s)
{
    return s == BoundsStrategy::clamp || s == BoundsStrategy::trap;
}

/** Creation-time options. */
struct MemoryConfig
{
    BoundsStrategy strategy = BoundsStrategy::mprotect;
    /** Force the uffd emulation even if real userfaultfd is available
     * (makes tests deterministic across kernels). */
    bool forceUffdEmulation = false;
    /**
     * Shared linear memory (threads proposal): several instances on
     * different threads execute against one memory. The flat and guard
     * backings switch to MAP_SHARED shmem mappings, `grow` becomes safe
     * against concurrent growers and in-flight accesses (guard/uffd
     * re-protection completes before the bounds word is published), and
     * `restore` is refused — MADV_DONTNEED does not zero shmem and pools
     * never recycle shared memories. Requires limits with a maximum.
     */
    bool shared = false;
};

/** True if this kernel supports userfaultfd with SIGBUS delivery. */
bool realUffdAvailable();

/**
 * An immutable copy-on-write template of an initialized linear memory:
 * a sealed memfd holding the bytes as they were after the module's
 * `start` function ran (DESIGN.md §14). Mapping it MAP_PRIVATE over an
 * instance's reservation makes instantiation O(page-table ops), and
 * MADV_DONTNEED over the mapped range reverts every dirtied page to the
 * template contents — the restore path recycle() uses. Shareable across
 * every instance of the (module, strategy) that captured it; the kernel
 * shares the clean pages.
 */
class MemorySnapshot
{
  public:
    ~MemorySnapshot();
    MemorySnapshot(const MemorySnapshot&) = delete;
    MemorySnapshot& operator=(const MemorySnapshot&) = delete;

    /** Template length in bytes (the memory's size at capture). */
    uint64_t sizeBytes() const { return sizeBytes_; }
    int fd() const { return fd_; }

  private:
    friend class LinearMemory;
    MemorySnapshot(int fd, uint64_t size_bytes)
        : fd_(fd), sizeBytes_(size_bytes)
    {}

    int fd_ = -1;
    uint64_t sizeBytes_ = 0;
};

/**
 * One instance's linear memory. Thread-compatible: the executing thread
 * owns it; the atomic bounds word is shared with signal handlers.
 */
class LinearMemory
{
  public:
    /** Size of the virtual reservation for guard-page strategies: the full
     * 32-bit base + 32-bit offset addressable window (paper §2.3). */
    static constexpr uint64_t kGuardReserveBytes = 8ull << 30;

    static Result<std::unique_ptr<LinearMemory>>
    create(const wasm::Limits& limits, const MemoryConfig& config);

    ~LinearMemory();
    LinearMemory(const LinearMemory&) = delete;
    LinearMemory& operator=(const LinearMemory&) = delete;

    uint8_t* base() const { return base_; }
    uint64_t sizeBytes() const
    {
        return sizeBytes_.load(std::memory_order_acquire);
    }
    uint32_t sizePages() const
    {
        return uint32_t(sizeBytes() / wasm::kPageSize);
    }
    uint32_t maxPages() const { return maxPages_; }
    BoundsStrategy strategy() const { return config_.strategy; }
    /** True for shared (multi-thread) memories; see MemoryConfig::shared. */
    bool shared() const { return config_.shared; }

    /** Kind actually in use (distinguishes real uffd from emulation). */
    ArenaKind arenaKind() const { return arenaKind_; }

    /**
     * Grow by @p delta_pages. Returns the previous size in pages, or -1 if
     * the limit would be exceeded (wasm memory.grow semantics).
     */
    int64_t grow(uint32_t delta_pages);

    /**
     * Instance-recycling path: return the memory to its base image
     * without the munmap/mmap cycle a destroy-and-recreate pays — the
     * virtual-memory cost the paper identifies as the dominant term of
     * the mprotect strategy's instantiation path. The base image is the
     * adopted template when there is one (size and contents as `start`
     * left them, DESIGN.md §14), otherwise the freshly-created memory
     * (initial size, all bytes zero).
     *
     * One mechanism for every backing: the range past the base first
     * gets its fresh protection back (guard: PROT_NONE; uffd emulation:
     * every page grant revoked), then one MADV_DONTNEED drops every
     * dirtied page — template pages revert to the memfd contents,
     * anonymous pages read as zero, and real-uffd pages re-arm their
     * missing faults. Flat backings zap the whole reservation, since
     * `none` lets out-of-bounds stores land anywhere in it and clamp
     * redirects them into the red zone; the others zap up to the
     * high-water mark. Cost scales with resident pages, not the
     * reservation.
     *
     * @p grew_past_base (optional) reports that the memory had grown
     * past the base since the last restore. Refused for shared memories:
     * MADV_DONTNEED does not zero shmem, and other threads may still be
     * executing. The caller must guarantee no thread is executing
     * against this memory (same contract as the destructor).
     */
    Status restore(bool* grew_past_base = nullptr);

    // ----- snapshot/restore protocol (DESIGN.md §14) -----
    /**
     * Capture the current contents [0, sizeBytes) as a CoW template.
     * Refused (errUnsupported) for shared memories (another thread may
     * be writing), the uffd emulation (its page-granular mprotect
     * grants don't compose with a file-backed mapping), and empty
     * memories. Real-uffd pages that are still missing are never
     * faulted in: they read as zero and stay holes in the template.
     */
    Result<std::shared_ptr<MemorySnapshot>> snapshot();

    /**
     * Install @p snap as this memory's base image: one
     * MAP_FIXED | MAP_PRIVATE mapping of the template file over
     * [0, snap->sizeBytes()), after which the memory's contents and
     * size equal the captured post-`start` state — data segments and
     * `start` effects included, without running either. Anything the
     * memory held past the template is rewound exactly as restore()
     * does: guard keeps its PROT_NONE tail, uffd its MISSING
     * registration (the replaced range needs no faults — every template
     * byte is below bounds by construction).
     */
    Status adoptSnapshot(std::shared_ptr<MemorySnapshot> snap);

    bool hasSnapshot() const { return snapshot_ != nullptr; }

    /** Byte offset of the always-mapped red zone (clamp strategy target). */
    uint64_t clampOffset() const { return clampOffset_; }

    /** Copy a data segment into memory; fails if out of bounds. */
    Status initData(uint32_t offset, const uint8_t* data, size_t size);

    // ----- statistics (paper §4.1.1 / §4.2) -----
    /** Virtual-memory syscalls issued on the grow path. */
    uint64_t resizeSyscalls() const
    {
        return resizeSyscalls_.load(std::memory_order_relaxed);
    }
    /** Faults resolved by lazy population (uffd strategies). */
    uint64_t faultsHandled() const;
    /** Faults converted into wasm traps. */
    uint64_t faultsTrapped() const;
    /** grow() calls on this shared memory (0 for unshared). */
    uint64_t sharedGrowCalls() const
    {
        return sharedGrowCalls_.load(std::memory_order_relaxed);
    }
    /** grow() calls that found the grow mutex held by another thread —
     * the direct measure of grow/re-protect serialization contention. */
    uint64_t sharedGrowContended() const
    {
        return sharedGrowContended_.load(std::memory_order_relaxed);
    }

  private:
    LinearMemory() = default;

    /** The tail restore() and adoptSnapshot() share, with growMutex_
     * held: re-protect past @p base, one MADV_DONTNEED, then size and
     * high-water back to @p base. */
    Status rewindLocked(uint64_t base);

    uint8_t* base_ = nullptr;
    uint64_t reserveBytes_ = 0;
    std::atomic<uint64_t> sizeBytes_{0};
    /** Size at creation; restore() returns to this without a template. */
    uint64_t initialBytes_ = 0;
    /** Largest size reached since the last rewind (guarded by
     * growMutex_): the extent restore() must zap and re-protect. */
    uint64_t highWaterBytes_ = 0;
    uint32_t maxPages_ = 0;
    uint64_t clampOffset_ = 0;
    MemoryConfig config_;
    ArenaKind arenaKind_ = ArenaKind::flat;
    ArenaInfo* arena_ = nullptr;
    int uffdFd_ = -1;
    /** Adopted base image; null until adoptSnapshot(). */
    std::shared_ptr<MemorySnapshot> snapshot_;
    std::mutex growMutex_;
    std::atomic<uint64_t> resizeSyscalls_{0};
    std::atomic<uint64_t> sharedGrowCalls_{0};
    std::atomic<uint64_t> sharedGrowContended_{0};
};

} // namespace lnb::mem

#endif // LNB_MEM_LINEAR_MEMORY_H
