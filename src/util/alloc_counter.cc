#include "alloc_counter.h"

namespace phoenix::util {

namespace {
thread_local uint64_t allocCount_ = 0;
thread_local uint64_t allocBytes_ = 0;
bool active_ = false;
} // namespace

uint64_t
allocCount()
{
    return allocCount_;
}

uint64_t
allocBytes()
{
    return allocBytes_;
}

bool
allocCounterActive()
{
    return active_;
}

namespace detail {

void
bumpAllocCount(std::size_t bytes)
{
    ++allocCount_;
    allocBytes_ += bytes;
}

void
setAllocCounterActive()
{
    active_ = true;
}

} // namespace detail

} // namespace phoenix::util
