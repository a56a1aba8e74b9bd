#include "report.h"

#include <fstream>
#include <functional>
#include <iostream>

#include "util/json.h"

namespace phoenix::exp {

// The canonical implementations moved to util/json so that the JSON
// readers (perfdiff, fuzzcheck corpus replay) and writers share one
// encoding; these wrappers keep the exp:: API stable.
std::string
jsonQuote(const std::string &text)
{
    return util::jsonQuote(text);
}

std::string
jsonNumber(double value)
{
    return util::jsonNumber(value);
}

Report::Report(std::string benchName) : benchName_(std::move(benchName))
{
}

void
Report::meta(const std::string &key, const std::string &value)
{
    meta_.emplace_back(key, jsonQuote(value));
}

void
Report::meta(const std::string &key, double value)
{
    meta_.emplace_back(key, jsonNumber(value));
}

void
Report::meta(const std::string &key, int64_t value)
{
    meta_.emplace_back(key, std::to_string(value));
}

void
Report::addTable(const std::string &section, const util::Table &table)
{
    Section s;
    s.name = section;
    s.table = table;
    sections_.push_back(std::move(s));
}

void
Report::addSweep(const std::string &section,
                 const std::vector<SweepAggregate> &aggregates)
{
    Section s;
    s.name = section;
    s.isSweep = true;
    s.sweep = aggregates;
    sections_.push_back(std::move(s));
}

namespace {

void
writeStats(std::ostream &os, const char *name, const MetricStats &stats)
{
    os << jsonQuote(name) << ":{\"mean\":" << jsonNumber(stats.mean)
       << ",\"stddev\":" << jsonNumber(stats.stddev)
       << ",\"min\":" << jsonNumber(stats.min)
       << ",\"max\":" << jsonNumber(stats.max) << "}";
}

void
writeAggregate(std::ostream &os, const SweepAggregate &agg)
{
    os << "{\"scheme\":" << jsonQuote(agg.scheme)
       << ",\"failure_rate\":" << jsonNumber(agg.failureRate)
       << ",\"trials\":" << agg.trials
       << ",\"failed_trials\":" << agg.failedTrials
       << ",\"wall_seconds\":" << jsonNumber(agg.wallSeconds) << ",";
    writeStats(os, "availability", agg.availability);
    os << ",";
    writeStats(os, "availability_strict", agg.availabilityStrict);
    os << ",";
    writeStats(os, "revenue", agg.revenue);
    os << ",";
    writeStats(os, "fairness_positive", agg.fairnessPositive);
    os << ",";
    writeStats(os, "fairness_negative", agg.fairnessNegative);
    os << ",";
    writeStats(os, "planner_utilization", agg.plannerUtilization);
    os << ",";
    writeStats(os, "utilization", agg.utilization);
    os << ",";
    writeStats(os, "plan_seconds", agg.planSeconds);
    os << ",";
    writeStats(os, "pack_seconds", agg.packSeconds);
    os << ",";
    writeStats(os, "requests_served", agg.requestsServed);
    os << ",";
    writeStats(os, "ops_heap_pushes", agg.opsHeapPushes);
    os << ",";
    writeStats(os, "ops_best_fit_probes", agg.opsBestFitProbes);
    os << ",";
    writeStats(os, "ops_pod_scans", agg.opsPodScans);
    if (!agg.obs.empty()) {
        os << ",\"obs\":{";
        for (size_t i = 0; i < agg.obs.size(); ++i) {
            if (i)
                os << ",";
            os << jsonQuote(agg.obs[i].first) << ":"
               << jsonNumber(agg.obs[i].second);
        }
        os << "}";
    }
    os << "}";
}

void
writeTableJson(std::ostream &os, const util::Table &table)
{
    os << "{\"columns\":[";
    for (size_t c = 0; c < table.header().size(); ++c) {
        if (c)
            os << ",";
        os << jsonQuote(table.header()[c]);
    }
    os << "],\"rows\":[";
    for (size_t r = 0; r < table.rows().size(); ++r) {
        if (r)
            os << ",";
        os << "[";
        const auto &row = table.rows()[r];
        for (size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ",";
            os << jsonQuote(row[c]);
        }
        os << "]";
    }
    os << "]}";
}

} // namespace

void
Report::writeJson(std::ostream &os) const
{
    os << "{\"bench\":" << jsonQuote(benchName_) << ",\"meta\":{";
    for (size_t i = 0; i < meta_.size(); ++i) {
        if (i)
            os << ",";
        os << jsonQuote(meta_[i].first) << ":" << meta_[i].second;
    }
    os << "},\"sections\":[";
    for (size_t i = 0; i < sections_.size(); ++i) {
        const Section &section = sections_[i];
        if (i)
            os << ",";
        os << "{\"name\":" << jsonQuote(section.name) << ",";
        if (section.isSweep) {
            os << "\"sweep\":[";
            for (size_t j = 0; j < section.sweep.size(); ++j) {
                if (j)
                    os << ",";
                writeAggregate(os, section.sweep[j]);
            }
            os << "]";
        } else {
            os << "\"table\":";
            writeTableJson(os, section.table);
        }
        os << "}";
    }
    os << "]}\n";
}

namespace {

std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string quoted = "\"";
    for (char c : text) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace

void
Report::writeCsv(std::ostream &os) const
{
    for (const Section &section : sections_) {
        os << "# " << benchName_ << " | " << section.name << "\n";
        if (section.isSweep) {
            os << "scheme,failure_rate,trials,failed_trials,"
                  "wall_seconds,availability_mean,availability_stddev,"
                  "availability_min,availability_max,revenue_mean,"
                  "revenue_stddev,fairness_positive_mean,"
                  "fairness_negative_mean,utilization_mean,"
                  "plan_seconds_mean,pack_seconds_mean,"
                  "requests_served_mean\n";
            for (const SweepAggregate &agg : section.sweep) {
                os << csvField(agg.scheme) << ","
                   << jsonNumber(agg.failureRate) << "," << agg.trials
                   << "," << agg.failedTrials << ","
                   << jsonNumber(agg.wallSeconds) << ","
                   << jsonNumber(agg.availability.mean) << ","
                   << jsonNumber(agg.availability.stddev) << ","
                   << jsonNumber(agg.availability.min) << ","
                   << jsonNumber(agg.availability.max) << ","
                   << jsonNumber(agg.revenue.mean) << ","
                   << jsonNumber(agg.revenue.stddev) << ","
                   << jsonNumber(agg.fairnessPositive.mean) << ","
                   << jsonNumber(agg.fairnessNegative.mean) << ","
                   << jsonNumber(agg.utilization.mean) << ","
                   << jsonNumber(agg.planSeconds.mean) << ","
                   << jsonNumber(agg.packSeconds.mean) << ","
                   << jsonNumber(agg.requestsServed.mean) << "\n";
            }
        } else {
            section.table.printCsv(os);
        }
        os << "\n";
    }
}

namespace {

bool
writeFile(const std::string &path, const char *what,
          const std::function<void(std::ostream &)> &emit)
{
    if (path.empty() || path == "none")
        return false;
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << what << " to " << path
                  << "\n";
        return false;
    }
    emit(out);
    return true;
}

} // namespace

bool
Report::writeJsonFile(const std::string &path) const
{
    return writeFile(path, "JSON report",
                     [this](std::ostream &os) { writeJson(os); });
}

bool
Report::writeCsvFile(const std::string &path) const
{
    return writeFile(path, "CSV report",
                     [this](std::ostream &os) { writeCsv(os); });
}

} // namespace phoenix::exp
