/**
 * @file
 * Deterministic hot-path operation counters.
 *
 * Wall-clock numbers from the benches vary run to run; these counters
 * do not. Both the reference and the flat planner/packer
 * implementations count the same semantic events (priority-queue
 * inserts and pops, best-fit probes, sorted-kv maintenance), so equal
 * counts across implementations double as a cheap algorithm-identity
 * check, while childSortElems — the elements pushed through the
 * reference DFS's per-visit child sorts — is the work the presorted
 * CSR eliminates and must read zero in the flat path. podScans — the
 * pods the packer's repack and targeted-delete stages read off a node —
 * may differ too: the reference walks every candidate node, while the
 * flat book skips walks it can prove futile, so flat never exceeds
 * reference. The counters are exported per bench cell and asserted
 * against recorded bounds by the fig8b smoke test; they are
 * deliberately excluded from exp::canonicalMetricString, which
 * fingerprints planner/packer *decisions*, not implementation effort.
 */

#ifndef PHOENIX_CORE_OP_COUNTERS_H
#define PHOENIX_CORE_OP_COUNTERS_H

#include <cstdint>

namespace phoenix::core {

struct OpCounters
{
    uint64_t heapPushes = 0; //!< priority-queue inserts (planner+packer)
    uint64_t heapPops = 0;   //!< priority-queue pops
    uint64_t childSortElems = 0; //!< per-visit child-sort work (ref only)
    uint64_t bestFitProbes = 0;  //!< byRemaining probes in the packer
    uint64_t kvOps = 0;          //!< sorted-kv inserts + erases
    uint64_t podScans = 0; //!< pods read by repack/targeted-delete walks

    OpCounters &
    operator+=(const OpCounters &o)
    {
        heapPushes += o.heapPushes;
        heapPops += o.heapPops;
        childSortElems += o.childSortElems;
        bestFitProbes += o.bestFitProbes;
        kvOps += o.kvOps;
        podScans += o.podScans;
        return *this;
    }

    void reset() { *this = OpCounters(); }

    uint64_t
    total() const
    {
        return heapPushes + heapPops + childSortElems + bestFitProbes +
               kvOps + podScans;
    }
};

} // namespace phoenix::core

#endif // PHOENIX_CORE_OP_COUNTERS_H
