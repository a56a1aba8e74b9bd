/**
 * @file
 * Thread-local allocation micro-counter: operator-new calls and the
 * bytes they asked for.
 *
 * The hot-path work (PlanScratch, the indexed heaps, BucketedKv)
 * claims "zero allocation in steady state", and a cluster state claims
 * a byte budget per pod slot; this counter turns both claims into
 * assertable numbers. Counting happens in replacement
 * global operator new/delete, which a binary opts into by expanding
 * PHOENIX_INSTALL_ALLOC_COUNTER() once at namespace scope in its main
 * translation unit (bench_micro and test_hotpath do). Binaries that
 * do not install the hook pay nothing and read allocCount() ==
 * allocBytes() == 0 with allocCounterActive() == false — callers must
 * gate their assertions on allocCounterActive().
 *
 * Under AddressSanitizer/ThreadSanitizer the macro expands to nothing
 * (the sanitizer owns the allocator interposition); the counting tests
 * skip themselves via allocCounterActive().
 */

#ifndef PHOENIX_UTIL_ALLOC_COUNTER_H
#define PHOENIX_UTIL_ALLOC_COUNTER_H

#include <cstdint>
#include <cstdlib>
#include <new>

namespace phoenix::util {

/** operator-new calls made by this thread (0 unless hooked). */
uint64_t allocCount();
/** Bytes those calls asked for (0 unless hooked). */
uint64_t allocBytes();

/** True when the counting operator new is linked into this binary. */
bool allocCounterActive();

namespace detail {
void bumpAllocCount(std::size_t bytes);
void setAllocCounterActive();

/** Installs the flag from a namespace-scope initializer. */
struct AllocCounterInstaller
{
    AllocCounterInstaller() { setAllocCounterActive(); }
};
} // namespace detail

/**
 * Allocations performed by this thread while running @p fn. Returns 0
 * when the hook is not installed — check allocCounterActive() first.
 */
template <typename Fn>
uint64_t
allocationsDuring(Fn &&fn)
{
    const uint64_t before = allocCount();
    fn();
    return allocCount() - before;
}

/**
 * Bytes this thread asked operator new for while running @p fn
 * (frees not subtracted). Returns 0 when the hook is not installed —
 * check allocCounterActive() first.
 */
template <typename Fn>
uint64_t
bytesAllocatedDuring(Fn &&fn)
{
    const uint64_t before = allocBytes();
    fn();
    return allocBytes() - before;
}

} // namespace phoenix::util

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PHOENIX_INSTALL_ALLOC_COUNTER()                                  \
    static_assert(true, "alloc counter disabled under sanitizers")
#else
#define PHOENIX_INSTALL_ALLOC_COUNTER()                                  \
    static phoenix::util::detail::AllocCounterInstaller                  \
        phoenixAllocCounterInstaller_;                                   \
    void *operator new(std::size_t size)                                 \
    {                                                                    \
        phoenix::util::detail::bumpAllocCount(size);                     \
        if (void *p = std::malloc(size ? size : 1))                      \
            return p;                                                    \
        throw std::bad_alloc();                                          \
    }                                                                    \
    void *operator new[](std::size_t size)                               \
    {                                                                    \
        return ::operator new(size);                                     \
    }                                                                    \
    void *operator new(std::size_t size,                                 \
                       const std::nothrow_t &) noexcept                  \
    {                                                                    \
        phoenix::util::detail::bumpAllocCount(size);                     \
        return std::malloc(size ? size : 1);                             \
    }                                                                    \
    void *operator new[](std::size_t size,                               \
                         const std::nothrow_t &nt) noexcept              \
    {                                                                    \
        return ::operator new(size, nt);                                 \
    }                                                                    \
    void operator delete(void *p) noexcept { std::free(p); }             \
    void operator delete[](void *p) noexcept { std::free(p); }           \
    void operator delete(void *p, std::size_t) noexcept                  \
    {                                                                    \
        std::free(p);                                                    \
    }                                                                    \
    void operator delete[](void *p, std::size_t) noexcept                \
    {                                                                    \
        std::free(p);                                                    \
    }                                                                    \
    void operator delete(void *p, const std::nothrow_t &) noexcept       \
    {                                                                    \
        std::free(p);                                                    \
    }                                                                    \
    void operator delete[](void *p, const std::nothrow_t &) noexcept     \
    {                                                                    \
        std::free(p);                                                    \
    }
#endif

#endif // PHOENIX_UTIL_ALLOC_COUNTER_H
