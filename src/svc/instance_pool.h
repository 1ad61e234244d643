/**
 * @file
 * Instance pool — the second tier of the multi-tenant execution service.
 *
 * One pool serves one CompiledModule (which pins one engine × strategy).
 * Released instances are recycled in place (Instance::recycle(), backed by
 * LinearMemory::restore()) and parked; a warm acquire therefore skips the
 * multi-GiB mmap reservation, the arena-registry churn and the value-stack
 * allocation that a cold Instance::create() pays — exactly the
 * virtual-memory cost the paper attributes to per-request instantiation
 * under the mprotect strategy.
 *
 * Recycling happens on release(), not acquire(), so the restore cost sits on
 * the requester that is done, never on the latency path of the next one.
 */
#ifndef LNB_SVC_INSTANCE_POOL_H
#define LNB_SVC_INSTANCE_POOL_H

#include <memory>
#include <mutex>
#include <vector>

#include "runtime/instance.h"

namespace lnb::svc {

class InstancePool;

/**
 * RAII lease of a pooled instance: usable like a pointer, returned to the
 * pool (recycled or discarded) on destruction.
 */
class PooledInstance
{
  public:
    PooledInstance() = default;
    PooledInstance(PooledInstance&& other) noexcept
        : pool_(other.pool_), instance_(std::move(other.instance_)),
          warm_(other.warm_)
    {
        other.pool_ = nullptr;
    }
    PooledInstance& operator=(PooledInstance&& other) noexcept
    {
        if (this != &other) {
            reset();
            pool_ = other.pool_;
            instance_ = std::move(other.instance_);
            warm_ = other.warm_;
            other.pool_ = nullptr;
        }
        return *this;
    }
    ~PooledInstance() { reset(); }

    rt::Instance* get() const { return instance_.get(); }
    rt::Instance* operator->() const { return instance_.get(); }
    rt::Instance& operator*() const { return *instance_; }
    explicit operator bool() const { return instance_ != nullptr; }

    /** True if this lease was served from the idle pool (no mmap). */
    bool warm() const { return warm_; }

    /** Return the instance to the pool now (destructor equivalent). */
    void reset();

  private:
    friend class InstancePool;
    PooledInstance(InstancePool* pool,
                   std::unique_ptr<rt::Instance> instance, bool warm)
        : pool_(pool), instance_(std::move(instance)), warm_(warm)
    {}

    InstancePool* pool_ = nullptr;
    std::unique_ptr<rt::Instance> instance_;
    bool warm_ = false;
};

/** Point-in-time pool statistics. */
struct InstancePoolStats
{
    uint64_t warmAcquires = 0;
    uint64_t coldAcquires = 0;
    uint64_t releases = 0;
    /** Instances dropped instead of parked (pool full or recycle
     * failure). */
    uint64_t discards = 0;
    size_t idle = 0;
};

class InstancePool
{
  public:
    /** @p max_idle bounds the parked-instance count; excess releases
     * destroy the instance instead. */
    InstancePool(std::shared_ptr<const rt::CompiledModule> module,
                 rt::ImportMap imports = {}, size_t max_idle = 8);
    ~InstancePool() = default;

    InstancePool(const InstancePool&) = delete;
    InstancePool& operator=(const InstancePool&) = delete;

    /** Lease an instance: a recycled one when available, else a cold
     * Instance::create(). Thread-safe. */
    Result<PooledInstance> acquire();

    const std::shared_ptr<const rt::CompiledModule>& module() const
    {
        return module_;
    }

    InstancePoolStats stats() const;

  private:
    friend class PooledInstance;
    void release(std::unique_ptr<rt::Instance> instance);

    std::shared_ptr<const rt::CompiledModule> module_;
    rt::ImportMap imports_;
    const size_t maxIdle_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<rt::Instance>> idle_;
    InstancePoolStats stats_;
};

} // namespace lnb::svc

#endif // LNB_SVC_INSTANCE_POOL_H
