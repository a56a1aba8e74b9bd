#include "scenario_json.h"

#include <algorithm>
#include <array>
#include <sstream>

namespace phoenix::sim {

namespace {

using Kind = Scenario::Step::Kind;
using Step = Scenario::Step;
using util::JsonValue;

/** A kind's name and its fields, in print order; every kind also
 * takes "at" (default 0: an instant already past fires at once). */
struct KindSpec
{
    Kind kind;
    const char *name;
    std::array<const char *, 3> fields;

    bool
    takes(const std::string &key) const
    {
        return key == "at" || key == "kind" ||
               std::any_of(fields.begin(), fields.end(),
                           [&key](const char *f) { return f && key == f; });
    }
};

constexpr KindSpec kKinds[] = {
    {Kind::FailNodes, "fail", {"nodes"}},
    {Kind::FailCount, "fail-count", {"count"}},
    {Kind::FailCapacityFraction, "fail-capacity-fraction", {"fraction"}},
    {Kind::FailZone, "fail-zone", {"zone"}},
    {Kind::RollingFail, "rolling-fail", {"count", "interval"}},
    {Kind::Flap, "flap", {"nodes", "downtime"}},
    {Kind::RecoverNodes, "recover", {"nodes"}},
    {Kind::RecoverAll, "recover-all", {"stagger"}},
    {Kind::PartitionNodes, "partition", {"nodes", "downtime"}},
    {Kind::PartitionZone, "partition-zone", {"zone", "downtime"}},
    {Kind::HealPartition, "heal", {"nodes"}},
    {Kind::Degrade, "degrade", {"nodes", "downtime", "factor"}},
    {Kind::DegradeZone, "degrade-zone", {"zone", "downtime", "factor"}},
    {Kind::ApiOutage, "outage", {"nodes", "downtime"}},
    {Kind::SkewClock, "skew", {"nodes", "skew"}},
};

/** A floating-point field: its Step member, default and bounds. */
struct NumberField
{
    const char *key;
    double Step::*member;
    double fallback;
    double low;
    double high;
};

constexpr double kMax = kMaxScriptSeconds;
constexpr NumberField kNumbers[] = {
    {"at", &Step::at, 0.0, 0.0, kMax},
    {"fraction", &Step::fraction, 0.0, 0.0, 1.0},
    {"interval", &Step::interval, 60.0, 0.0, kMax},
    {"stagger", &Step::interval, 0.0, 0.0, kMax},
    {"downtime", &Step::downtime, 0.0, 0.0, kMax},
    {"factor", &Step::factor, 1.0, kMinDegradeFactor, 1.0},
    {"skew", &Step::skew, 0.0, -kMax, kMax},
};

const NumberField &
numberField(const std::string &key)
{
    for (const NumberField &number : kNumbers) {
        if (key == number.key)
            return number;
    }
    return kNumbers[0];
}

const KindSpec &
specOf(Kind kind)
{
    for (const KindSpec &spec : kKinds) {
        if (spec.kind == kind)
            return spec;
    }
    return kKinds[0];
}

/** Field @p key of a step of @p spec from @p object into @p step, for
 * a target whose clock reads @p origin; the rule it breaks, or "" when
 * it holds. */
std::string
readField(const KindSpec &spec, const std::string &key,
          const JsonValue &object, size_t nodeCount, double origin,
          Step &step)
{
    const std::string limit = "the node count " + std::to_string(nodeCount);
    if (key == "nodes") {
        const JsonValue *nodes = object.field(key);
        if (!nodes && spec.kind == Kind::ApiOutage)
            return "";
        if (!nodes || !nodes->isArray())
            return "needs a 'nodes' array";
        for (const JsonValue &entry : nodes->items) {
            const std::optional<NodeId> id = util::integerOf<NodeId>(entry);
            if (!id || *id >= nodeCount)
                return "needs node ids below " + limit;
            step.nodes.push_back(*id);
        }
        return spec.kind == Kind::ApiOutage && !step.nodes.empty()
                   ? "names no nodes"
                   : "";
    }
    if (key == "count" || key == "zone") {
        const std::optional<size_t> value =
            util::integerAt<size_t>(object, key, key == "count" ? 1 : 0);
        if (!value || (key == "count" && *value > nodeCount))
            return "needs an integral '" + key + "'" +
                   (key == "count" ? " no larger than " + limit : "");
        (key == "count" ? step.count : step.zone) = *value;
        return "";
    }
    const NumberField &number = numberField(key);
    // An instant is bounded from the target's clock, not from zero.
    const double high = key == "at" ? origin + number.high : number.high;
    const std::optional<double> value =
        util::finiteAt(object, key, number.fallback);
    if (!value || *value < number.low || *value > high)
        return "needs '" + key + "' in [" + util::jsonNumber(number.low) +
               ", " + util::jsonNumber(high) + "]";
    step.*number.member = *value;
    return "";
}

/** One step object; the rule it breaks lands in @p error. */
Step
stepOf(const JsonValue &object, size_t nodeCount, double origin,
       std::string &error)
{
    Step step;
    const JsonValue *kind = object.field("kind");
    const KindSpec *spec = nullptr;
    for (const KindSpec &candidate : kKinds) {
        if (kind && kind->isString() && kind->text == candidate.name)
            spec = &candidate;
    }
    if (!spec) {
        error = "unknown step kind";
        return step;
    }
    step.kind = spec->kind;
    for (const auto &[key, value] : object.fields) {
        if (!spec->takes(key))
            error = "takes no field " + util::jsonQuote(key);
    }
    if (error.empty())
        error = readField(*spec, "at", object, nodeCount, origin, step);
    for (const char *key : spec->fields) {
        if (key && error.empty())
            error = readField(*spec, key, object, nodeCount, origin, step);
    }
    if (!error.empty())
        error = spec->name + (" " + error);
    return step;
}

} // namespace

std::optional<std::vector<Step>>
scenarioStepsFromJson(const JsonValue &array, size_t nodeCount,
                      double origin, std::string *error)
{
    std::vector<Step> steps;
    std::string why = array.isArray() ? "" : "steps must be an array";
    for (size_t s = 0; why.empty() && s < array.items.size(); ++s) {
        steps.push_back(stepOf(array.items[s], nodeCount, origin, why));
        why = why.empty() ? "" : "step " + std::to_string(s) + ": " + why;
    }
    if (error && !why.empty())
        *error = why;
    return why.empty() ? std::optional(std::move(steps)) : std::nullopt;
}

std::string
scenarioStepToJson(const Step &step)
{
    std::ostringstream os;
    const KindSpec &spec = specOf(step.kind);
    os << "{\"at\": " << util::jsonNumber(step.at) << ", \"kind\": \""
       << spec.name << "\"";
    for (const char *field : spec.fields) {
        const std::string key = field ? field : "";
        if (key.empty())
            continue;
        os << ", \"" << key << "\": ";
        if (key == "nodes") {
            os << "[";
            for (size_t n = 0; n < step.nodes.size(); ++n)
                os << (n ? "," : "") << step.nodes[n];
            os << "]";
        } else if (key == "count" || key == "zone") {
            os << (key == "count" ? step.count : step.zone);
        } else {
            os << util::jsonNumber(step.*numberField(key).member);
        }
    }
    os << "}";
    return os.str();
}

} // namespace phoenix::sim
