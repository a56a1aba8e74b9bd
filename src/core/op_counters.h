/**
 * @file
 * Deterministic hot-path operation counters.
 *
 * Wall-clock numbers from the benches vary run to run; these counters
 * do not. The planner and packer count semantic events (priority-queue
 * inserts and pops, best-fit probes, capacity-index maintenance), and
 * the literal Alg. 1/2 reference in src/check counts the same ones, so
 * equal counts across the two double as a cheap algorithm-identity
 * check. podScans — the pods the packer's repack and targeted-delete
 * stages read off a node — may differ: the reference walks every
 * candidate node, while the packer skips walks it can prove futile, so
 * the packer never exceeds the reference. The counters are exported
 * per bench cell and asserted against recorded bounds by the fig8b
 * smoke test; they are deliberately excluded from
 * exp::canonicalMetricString, which fingerprints planner/packer
 * *decisions*, not implementation effort.
 */

#ifndef PHOENIX_CORE_OP_COUNTERS_H
#define PHOENIX_CORE_OP_COUNTERS_H

#include <cstdint>

namespace phoenix::core {

struct OpCounters
{
    uint64_t heapPushes = 0; //!< priority-queue inserts (planner+packer)
    uint64_t heapPops = 0;   //!< priority-queue pops
    uint64_t bestFitProbes = 0;  //!< byRemaining probes in the packer
    uint64_t kvOps = 0;          //!< capacity-index inserts + erases
    uint64_t podScans = 0; //!< pods read by repack/targeted-delete walks

    OpCounters &
    operator+=(const OpCounters &o)
    {
        heapPushes += o.heapPushes;
        heapPops += o.heapPops;
        bestFitProbes += o.bestFitProbes;
        kvOps += o.kvOps;
        podScans += o.podScans;
        return *this;
    }

    void reset() { *this = OpCounters(); }
};

} // namespace phoenix::core

#endif // PHOENIX_CORE_OP_COUNTERS_H
