/**
 * @file
 * Alg. 1 and Alg. 2 as written, over std::set, std::map and
 * std::multiset bookkeeping: the oracle core's planner and packer must
 * match byte for byte. The packer reference runs core's Packer and
 * walks every repack and victim candidate, so equal actions and probes
 * prove the flat book's futility bounds exact.
 */

#ifndef PHOENIX_CHECK_REFERENCE_H
#define PHOENIX_CHECK_REFERENCE_H

#include <string>
#include <vector>

#include "core/packing.h"
#include "core/planner.h"
#include "core/schemes.h"

namespace phoenix::check {

/**
 * Alg. 1 (estimate, then rank within @p capacity) with the literal
 * containers. Adds its queue traffic to @p ops when given.
 */
core::GlobalRank referencePlan(const std::vector<sim::Application> &apps,
                               core::OperatorObjective &objective,
                               double capacity,
                               const core::PlannerOptions &options = {},
                               core::OpCounters *ops = nullptr);

/** Alg. 2 over the literal bookkeeping, built afresh per call. */
core::PackResult referencePack(const std::vector<sim::Application> &apps,
                               const sim::ClusterState &current,
                               const core::GlobalRank &ranked,
                               const core::PackingOptions &options = {});

/** core::PhoenixScheme over referencePlan() and referencePack(),
 * untimed. */
class ReferencePhoenixScheme : public core::ResilienceScheme
{
  public:
    explicit ReferencePhoenixScheme(
        core::Objective objective,
        core::PlannerOptions planner_options = {},
        core::PackingOptions packing_options = {})
        : objective_(objective), plannerOptions_(planner_options),
          packingOptions_(packing_options)
    {
    }

    std::string name() const override
    {
        return objective_ == core::Objective::Fair ? "PhoenixFair"
                                                   : "PhoenixCost";
    }

    core::SchemeResult apply(const std::vector<sim::Application> &apps,
                             const sim::ClusterState &current) override;

  private:
    core::Objective objective_;
    core::PlannerOptions plannerOptions_;
    core::PackingOptions packingOptions_;
};

} // namespace phoenix::check

#endif // PHOENIX_CHECK_REFERENCE_H
