/**
 * @file
 * Flat blocked sorted key/value container for the packing hot path.
 *
 * The packer and the Default and K8sPreemption baselines key every
 * node by its remaining capacity and need four operations: insert,
 * exact-pair erase, best-fit ("smallest key >= bound"), and ordered
 * scans from either end. A std::multiset of (key, value) pairs serves
 * those with one node allocation plus a red-black rebalance per placed
 * pod, which is what Fig 8(b) spent its time on at 10k+ nodes.
 * BucketedKv keeps the multiset's total order, (key, value) ascending,
 * in a flat two-level structure instead: a sorted sequence of
 * size-capped blocks (an unrolled sorted list).
 *
 *   - blocks partition the sequence by POSITION, not by key range;
 *     every pair in block i orders before every pair in block i+1;
 *   - a parallel vector of per-block maxima is binary-searched to
 *     route any operation to its block in O(log blocks);
 *   - within a block, binary search + a memmove bounded by the block
 *     cap finish the job; a block that outgrows the cap splits in two,
 *     a block that empties returns its buffer to a free pool.
 *
 * Position-based blocks matter because capacity keys are tie-heavy: a
 * fresh cluster has thousands of nodes with *identical* remaining
 * capacity, so any key-range bucketing collapses them into one bucket
 * and every insert/erase there memmoves O(n) entries. Here the worst
 * memmove is the block cap regardless of the key distribution.
 * Emptied block buffers are pooled and reused, so a packer that keeps
 * one BucketedKv in scratch stops allocating once its block pool has
 * grown to the workload's size. Iteration order is byte-identical to
 * the multiset, which the packer's bit-identity suite against the
 * multiset-backed reference in src/check relies on.
 */

#ifndef PHOENIX_UTIL_BUCKETED_KV_H
#define PHOENIX_UTIL_BUCKETED_KV_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace phoenix::util {

template <typename Value>
class BucketedKv
{
  public:
    using Pair = std::pair<double, Value>;

    /**
     * Reset to empty. Every previously grown buffer (blocks, maxima,
     * pool) is kept, so clearing does not allocate in steady state.
     */
    void
    clear()
    {
        while (!blocks_.empty())
            releaseBlock(blocks_.size() - 1);
        size_ = 0;
    }

    /**
     * Replace the contents with @p sorted, which must be in ascending
     * (key, value) order: one pass that fills pooled blocks to half the
     * split size, where inserting the pairs one at a time would route
     * and memmove each. Half-full blocks leave every block room to grow
     * before it splits. The pairs iterate exactly as if inserted.
     */
    void
    loadSorted(const std::vector<Pair> &sorted)
    {
        assert(std::is_sorted(sorted.begin(), sorted.end()));
        clear();
        for (size_t at = 0; at < sorted.size(); at += kLoadSize) {
            const size_t end = std::min(sorted.size(), at + kLoadSize);
            std::vector<Pair> block = takePooledBlock();
            block.assign(sorted.begin() + static_cast<ptrdiff_t>(at),
                         sorted.begin() + static_cast<ptrdiff_t>(end));
            maxima_.push_back(block.back());
            blocks_.push_back(std::move(block));
        }
        size_ = sorted.size();
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    insert(double key, const Value &value)
    {
        const Pair entry(key, value);
        if (blocks_.empty()) {
            blocks_.push_back(takePooledBlock());
            blocks_.back().push_back(entry);
            maxima_.push_back(entry);
            ++size_;
            return;
        }
        // Route to the first block whose max orders >= entry; an entry
        // beyond the global max appends to the last block.
        size_t b = blockFor(entry);
        if (b == blocks_.size())
            b = blocks_.size() - 1;
        auto &block = blocks_[b];
        block.insert(
            std::upper_bound(block.begin(), block.end(), entry), entry);
        maxima_[b] = block.back();
        ++size_;
        if (block.size() >= kSplitSize)
            splitBlock(b);
    }

    /** Erase one occurrence of (key, value); returns whether found. */
    bool
    erase(double key, const Value &value)
    {
        const Pair entry(key, value);
        const size_t b = blockFor(entry);
        if (b == blocks_.size())
            return false;
        auto &block = blocks_[b];
        auto it = std::lower_bound(block.begin(), block.end(), entry);
        if (it == block.end() || *it != entry)
            return false;
        block.erase(it);
        --size_;
        if (block.empty())
            releaseBlock(b);
        else
            maxima_[b] = block.back();
        return true;
    }

    /** Smallest pair whose key is >= bound (best-fit query). */
    std::optional<Pair>
    firstAtLeast(double bound) const
    {
        std::optional<Pair> hit;
        scanAtLeast(bound, [&](const Pair &entry) {
            hit = entry;
            return false;
        });
        return hit;
    }

    /** Pair with the largest key, if any. */
    std::optional<Pair>
    largest() const
    {
        if (blocks_.empty())
            return std::nullopt;
        return maxima_.back();
    }

    /**
     * Visit pairs in ascending (key, value) order starting from the
     * first pair with key >= bound. @p visit returns false to stop.
     */
    template <typename Visit>
    void
    scanAtLeast(double bound, Visit visit) const
    {
        const Pair probe(bound, Value());
        size_t b = blockFor(probe);
        if (b == blocks_.size())
            return;
        {
            const auto &block = blocks_[b];
            auto it = std::lower_bound(block.begin(), block.end(),
                                       probe);
            for (; it != block.end(); ++it) {
                if (!visit(*it))
                    return;
            }
        }
        for (++b; b < blocks_.size(); ++b) {
            for (const Pair &entry : blocks_[b]) {
                if (!visit(entry))
                    return;
            }
        }
    }

    /**
     * Visit every pair in descending (key, value) order. @p visit
     * returns false to stop.
     */
    template <typename Visit>
    void
    scanDescending(Visit visit) const
    {
        for (size_t b = blocks_.size(); b-- > 0;) {
            const auto &block = blocks_[b];
            for (auto it = block.rbegin(); it != block.rend(); ++it) {
                if (!visit(*it))
                    return;
            }
        }
    }

  private:
    // Split at 256 pairs (4 KiB of 16-byte pairs): big enough that
    // block-vector bookkeeping stays negligible, small enough that the
    // worst within-block memmove is ~2 KiB.
    static constexpr size_t kSplitSize = 256;
    /** Pairs per block after loadSorted(). */
    static constexpr size_t kLoadSize = kSplitSize / 2;

    /** Index of the first block whose max orders >= entry. */
    size_t
    blockFor(const Pair &entry) const
    {
        return static_cast<size_t>(
            std::lower_bound(maxima_.begin(), maxima_.end(), entry) -
            maxima_.begin());
    }

    /** An empty block buffer with room for kSplitSize pairs, so no
     * block reallocates before it splits. */
    std::vector<Pair>
    takePooledBlock()
    {
        if (pool_.empty()) {
            std::vector<Pair> block;
            block.reserve(kSplitSize);
            return block;
        }
        std::vector<Pair> block = std::move(pool_.back());
        pool_.pop_back();
        return block;
    }

    /** Return block b's buffer to the pool and drop it in place. */
    void
    releaseBlock(size_t b)
    {
        blocks_[b].clear();
        pool_.push_back(std::move(blocks_[b]));
        blocks_.erase(blocks_.begin() +
                      static_cast<ptrdiff_t>(b));
        maxima_.erase(maxima_.begin() + static_cast<ptrdiff_t>(b));
    }

    /** Move the upper half of block b into a new block at b + 1. */
    void
    splitBlock(size_t b)
    {
        std::vector<Pair> upper = takePooledBlock();
        auto &block = blocks_[b];
        const size_t half = block.size() / 2;
        upper.assign(block.begin() + static_cast<ptrdiff_t>(half),
                     block.end());
        block.resize(half);
        maxima_[b] = block.back();
        const Pair upper_max = upper.back();
        blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(b) + 1,
                       std::move(upper));
        maxima_.insert(maxima_.begin() + static_cast<ptrdiff_t>(b) + 1,
                       upper_max);
    }

    std::vector<std::vector<Pair>> blocks_; //!< non-empty, cap-bounded
    std::vector<Pair> maxima_;              //!< blocks_[i].back()
    std::vector<std::vector<Pair>> pool_;   //!< emptied block buffers
    size_t size_ = 0;
};

} // namespace phoenix::util

#endif // PHOENIX_UTIL_BUCKETED_KV_H
