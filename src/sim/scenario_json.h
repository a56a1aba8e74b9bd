/**
 * @file
 * The one JSON codec for scenario steps, used by phoenixd's
 * inject-scenario and the check corpus (CheckCase). Each kind has one
 * name, one set of fields and one default per field (kKinds and
 * kNumbers in scenario_json.cc; README's phoenixd section lists them),
 * and every rule lives here: "kind" is required, and "nodes" where the
 * kind takes it (an outage takes none); "at" is finite, at least 0 and
 * at most kMaxScriptSeconds past the caller's time origin (its clock);
 * "downtime", "interval", "stagger" and |"skew"| are finite, at most
 * kMaxScriptSeconds and, but skew, at least 0; node ids are integers
 * below the node count; a "count" is an integer no larger than it; a
 * "zone" is an integer; a "fraction" lies in [0, 1] and a "factor" in
 * [kMinDegradeFactor, 1].
 * A field the kind does not take is an error, so a renamed field never
 * falls back to its default.
 */

#ifndef PHOENIX_SIM_SCENARIO_JSON_H
#define PHOENIX_SIM_SCENARIO_JSON_H

#include <optional>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/json.h"

namespace phoenix::sim {

/** How far past its time origin a script may name an instant, and its
 * longest window: one week. A small case replays a week-long window a
 * week in within 0.25 s, and a soak repro (hours × 3600 s) fits 168
 * hours. */
constexpr double kMaxScriptSeconds = 7.0 * 24.0 * 3600.0;

/** Parse a JSON array of steps for a target of @p nodeCount nodes
 * whose clock reads @p origin (a live daemon's now; 0 for a script
 * replayed from the start); std::nullopt, with the first bad step and
 * why in @p error, when one breaks a rule. */
std::optional<std::vector<Scenario::Step>>
scenarioStepsFromJson(const util::JsonValue &array, size_t nodeCount,
                      double origin, std::string *error = nullptr);

/** One step as a JSON object with every field of its kind:
 * {"at": 200, "kind": "flap", "nodes": [0], "downtime": 40}. */
std::string scenarioStepToJson(const Scenario::Step &step);

} // namespace phoenix::sim

#endif // PHOENIX_SIM_SCENARIO_JSON_H
