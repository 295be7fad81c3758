#include "analysis/report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/mini_json.hh"
#include "common/stats.hh"

namespace stems {

double
RunEngineRow::accuracy() const
{
    return ratio(covered, prefetchesIssued);
}

const RunEngineRow *
RunData::find(const std::string &workload,
              const std::string &engine) const
{
    for (const RunWorkloadRow &w : workloads) {
        if (w.workload != workload)
            continue;
        for (const RunEngineRow &e : w.engines)
            if (e.engine == engine)
                return &e;
    }
    return nullptr;
}

// ---- writer ----
// (jsonEscape / jsonDouble / the mini-JSON parser live in
// common/mini_json.hh, shared with the obs/ artifact writers.)

bool
writeResultsJson(const std::string &path, std::uint64_t records,
                 std::uint64_t seed,
                 const std::vector<WorkloadResult> &results,
                 std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        if (error)
            *error = "cannot write " + path;
        return false;
    }
    std::fprintf(f,
                 "{\n  \"records\": %llu,\n  \"seed\": %llu,\n"
                 "  \"workloads\": [\n",
                 static_cast<unsigned long long>(records),
                 static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        std::fprintf(
            f,
            "    {\n      \"workload\": \"%s\",\n"
            "      \"class\": \"%s\",\n"
            "      \"baselineMisses\": %llu,\n"
            "      \"baselineIpc\": %s,\n"
            "      \"baselineCycles\": %s,\n"
            "      \"strideCycles\": %s,\n"
            "      \"engines\": [\n",
            jsonEscape(r.workload).c_str(),
            jsonEscape(workloadClassName(r.workloadClass)).c_str(),
            static_cast<unsigned long long>(r.baselineMisses),
            jsonDouble(r.baselineIpc).c_str(),
            jsonDouble(r.baselineCycles).c_str(),
            jsonDouble(r.strideCycles).c_str());
        for (std::size_t j = 0; j < r.engines.size(); ++j) {
            const EngineResult &e = r.engines[j];
            std::fprintf(
                f,
                "        {\"engine\": \"%s\", \"coverage\": %s, "
                "\"uncovered\": %s, \"overprediction\": %s, "
                "\"speedup\": %s, \"prefetchesIssued\": %llu, "
                "\"offChipReads\": %llu, \"covered\": %llu",
                jsonEscape(e.engine).c_str(),
                jsonDouble(e.coverage).c_str(),
                jsonDouble(e.uncovered).c_str(),
                jsonDouble(e.overprediction).c_str(),
                jsonDouble(e.speedup).c_str(),
                static_cast<unsigned long long>(
                    e.stats.prefetchesIssued),
                static_cast<unsigned long long>(
                    e.stats.offChipReads),
                static_cast<unsigned long long>(
                    e.stats.covered()));
            if (!e.extra.empty()) {
                std::fprintf(f, ", \"extra\": {");
                bool first = true;
                for (const auto &kv : e.extra) {
                    std::fprintf(f, "%s\"%s\": %s",
                                 first ? "" : ", ",
                                 jsonEscape(kv.first).c_str(),
                                 jsonDouble(kv.second).c_str());
                    first = false;
                }
                std::fprintf(f, "}");
            }
            std::fprintf(f, "}%s\n",
                         j + 1 < r.engines.size() ? "," : "");
        }
        std::fprintf(f, "      ]\n    }%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

// ---- parser ----

bool
loadResultsJson(const std::string &path, RunData &out,
                std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();

    JsonParser parser(text);
    JsonValue root;
    if (!parser.parseValue(root) ||
        root.kind != JsonValue::Kind::kObject) {
        if (error)
            *error = path + ": " +
                     (parser.error.empty() ? "not a JSON object"
                                           : parser.error);
        return false;
    }

    out = RunData();
    out.source = path;
    out.records = root.uint("records");
    out.seed = root.uint("seed");
    const JsonValue *workloads = root.get("workloads");
    if (!workloads || workloads->kind != JsonValue::Kind::kArray) {
        if (error)
            *error = path + ": missing \"workloads\" array";
        return false;
    }
    for (const JsonValue &w : workloads->items) {
        if (w.kind != JsonValue::Kind::kObject)
            continue;
        RunWorkloadRow row;
        row.workload = w.str("workload");
        row.workloadClass = w.str("class");
        row.baselineMisses = w.uint("baselineMisses");
        row.baselineIpc = w.num("baselineIpc");
        row.baselineCycles = w.num("baselineCycles");
        row.strideCycles = w.num("strideCycles");
        if (const JsonValue *engines = w.get("engines")) {
            for (const JsonValue &e : engines->items) {
                if (e.kind != JsonValue::Kind::kObject)
                    continue;
                RunEngineRow er;
                er.engine = e.str("engine");
                er.coverage = e.num("coverage");
                er.uncovered = e.num("uncovered");
                er.overprediction = e.num("overprediction");
                er.speedup = e.num("speedup");
                er.prefetchesIssued = e.uint("prefetchesIssued");
                er.offChipReads = e.uint("offChipReads");
                er.covered = e.uint("covered");
                er.hasCovered = e.get("covered") != nullptr;
                if (const JsonValue *extra = e.get("extra"))
                    for (const auto &kv : extra->members)
                        if (kv.second.kind ==
                            JsonValue::Kind::kNumber)
                            er.extra[kv.first] = kv.second.number;
                row.engines.push_back(std::move(er));
            }
        }
        out.workloads.push_back(std::move(row));
    }
    return true;
}

// ---- comparison ----

RunComparison
compareRuns(const RunData &old_run, const RunData &new_run,
            double threshold)
{
    RunComparison cmp;
    cmp.configMismatch = old_run.records != new_run.records ||
                         old_run.seed != new_run.seed;

    auto moved = [threshold](double a, double b) {
        return std::fabs(b - a) > threshold;
    };
    auto worse = [threshold](double from, double to) {
        return from - to > threshold;
    };

    auto classify = [&](DeltaRow &row) {
        if (!row.inOld || !row.inNew) {
            row.changed = true;
            return;
        }
        // A run written before the "covered" field existed cannot
        // report accuracy; comparing against a fabricated 0 would
        // flag every cell, so the column is excluded instead.
        bool acc_moved = row.accComparable &&
                         moved(row.accOld, row.accNew);
        bool acc_worse = row.accComparable &&
                         worse(row.accOld, row.accNew);
        row.changed = moved(row.covOld, row.covNew) || acc_moved ||
                      moved(row.overOld, row.overNew) ||
                      moved(row.spOld, row.spNew) ||
                      row.baseOld != row.baseNew;
        row.regression = worse(row.covOld, row.covNew) ||
                         acc_worse ||
                         worse(row.spOld, row.spNew) ||
                         worse(row.overNew, row.overOld);
    };

    auto fillOld = [](DeltaRow &row, std::uint64_t base,
                      const RunEngineRow &e) {
        row.inOld = true;
        row.baseOld = base;
        row.covOld = e.coverage;
        row.accOld = e.accuracy();
        row.accComparable = row.accComparable && e.hasCovered;
        row.overOld = e.overprediction;
        row.spOld = e.speedup;
    };
    auto fillNew = [](DeltaRow &row, std::uint64_t base,
                      const RunEngineRow &e) {
        row.inNew = true;
        row.baseNew = base;
        row.covNew = e.coverage;
        row.accNew = e.accuracy();
        row.accComparable = row.accComparable && e.hasCovered;
        row.overNew = e.overprediction;
        row.spNew = e.speedup;
    };

    // Old-run order first, then cells only the new run has.
    for (const RunWorkloadRow &w : old_run.workloads) {
        for (const RunEngineRow &e : w.engines) {
            DeltaRow row;
            row.workload = w.workload;
            row.engine = e.engine;
            fillOld(row, w.baselineMisses, e);
            for (const RunWorkloadRow &nw : new_run.workloads) {
                if (nw.workload != w.workload)
                    continue;
                for (const RunEngineRow &ne : nw.engines)
                    if (ne.engine == e.engine)
                        fillNew(row, nw.baselineMisses, ne);
            }
            classify(row);
            cmp.rows.push_back(std::move(row));
        }
    }
    for (const RunWorkloadRow &w : new_run.workloads) {
        for (const RunEngineRow &e : w.engines) {
            if (old_run.find(w.workload, e.engine))
                continue;
            DeltaRow row;
            row.workload = w.workload;
            row.engine = e.engine;
            fillNew(row, w.baselineMisses, e);
            classify(row);
            cmp.rows.push_back(std::move(row));
        }
    }

    for (const DeltaRow &row : cmp.rows) {
        if (row.changed)
            ++cmp.changed;
        if (row.regression)
            ++cmp.regressions;
    }
    return cmp;
}

// ---- rendering ----

namespace {

std::string
pct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * v);
    return buf;
}

std::string
pp(double delta)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.2f", 100.0 * delta);
    return buf;
}

std::string
mult(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3fx", v);
    return buf;
}

std::string
rowFlag(const DeltaRow &row)
{
    if (!row.inNew)
        return "removed";
    if (!row.inOld)
        return "added";
    if (row.regression)
        return "REGRESSION";
    if (row.changed)
        return "changed";
    return "";
}

std::string
utcTime(std::int64_t unix_seconds)
{
    std::time_t t = static_cast<std::time_t>(unix_seconds);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm);
    return buf;
}

} // namespace

std::string
renderComparisonMarkdown(const RunComparison &cmp,
                         const RunData &old_run,
                         const RunData &new_run, double threshold)
{
    std::ostringstream os;
    os << "# Run comparison\n\n";
    os << "| run | file | records | seed |\n";
    os << "| --- | --- | ---: | ---: |\n";
    os << "| old | " << old_run.source << " | " << old_run.records
       << " | " << old_run.seed << " |\n";
    os << "| new | " << new_run.source << " | " << new_run.records
       << " | " << new_run.seed << " |\n\n";
    if (cmp.configMismatch)
        os << "**Warning:** records/seed differ — the runs compare "
              "different experiments.\n\n";
    os << cmp.rows.size() << " cells, " << cmp.changed
       << " changed, " << cmp.regressions
       << " regressions (threshold " << jsonDouble(threshold)
       << ").\n\n";
    os << "| workload | engine | coverage | Δcov (pp) | accuracy | "
          "Δacc (pp) | overpred | Δover (pp) | speedup | Δspd | "
          "flag |\n";
    os << "| --- | --- | --- | ---: | --- | ---: | --- | ---: | "
          "--- | ---: | --- |\n";
    for (const DeltaRow &row : cmp.rows) {
        auto arrow = [&](const std::string &a, const std::string &b)
            -> std::string {
            if (!row.inOld)
                return "— → " + b;
            if (!row.inNew)
                return a + " → —";
            return a == b ? a : a + " → " + b;
        };
        os << "| " << row.workload << " | " << row.engine << " | "
           << arrow(pct(row.covOld), pct(row.covNew)) << " | "
           << (row.inOld && row.inNew
                   ? pp(row.covNew - row.covOld)
                   : "")
           << " | "
           << (row.accComparable
                   ? arrow(pct(row.accOld), pct(row.accNew))
                   : "n/a")
           << " | "
           << (row.inOld && row.inNew && row.accComparable
                   ? pp(row.accNew - row.accOld)
                   : "")
           << " | " << arrow(pct(row.overOld), pct(row.overNew))
           << " | "
           << (row.inOld && row.inNew
                   ? pp(row.overNew - row.overOld)
                   : "")
           << " | " << arrow(mult(row.spOld), mult(row.spNew))
           << " | "
           << (row.inOld && row.inNew
                   ? (std::string(row.spNew >= row.spOld ? "+" : "") +
                      mult(row.spNew - row.spOld))
                   : "")
           << " | " << rowFlag(row) << " |\n";
    }
    return os.str();
}

std::string
renderComparisonCsv(const RunComparison &cmp)
{
    std::ostringstream os;
    os << "workload,engine,status,coverageOld,coverageNew,"
          "accuracyOld,accuracyNew,overpredictionOld,"
          "overpredictionNew,speedupOld,speedupNew,"
          "baselineMissesOld,baselineMissesNew\n";
    for (const DeltaRow &row : cmp.rows) {
        std::string flag = rowFlag(row);
        os << row.workload << ',' << row.engine << ','
           << (flag.empty() ? "ok" : flag) << ','
           << jsonDouble(row.covOld) << ','
           << jsonDouble(row.covNew) << ','
           // Empty accuracy fields when a pre-"covered" file is
           // involved: the value would be fabricated.
           << (row.accComparable ? jsonDouble(row.accOld) : "")
           << ','
           << (row.accComparable ? jsonDouble(row.accNew) : "")
           << ','
           << jsonDouble(row.overOld) << ','
           << jsonDouble(row.overNew) << ','
           << jsonDouble(row.spOld) << ','
           << jsonDouble(row.spNew) << ',' << row.baseOld << ','
           << row.baseNew << '\n';
    }
    return os.str();
}

std::string
renderHistoryMarkdown(const std::vector<StoredResultInfo> &entries,
                      const std::string &store_dir)
{
    std::ostringstream os;
    os << "# Stored-run trajectory — " << store_dir << "\n\n";
    if (entries.empty()) {
        os << "No cached cell results in this store.\n";
        return os.str();
    }
    os << entries.size()
       << " cached cell results, oldest first.\n\n";
    os << "| saved (UTC) | workload | engine | records | seed | "
          "timing | coverage | accuracy | speedup |\n";
    os << "| --- | --- | --- | ---: | ---: | --- | ---: | ---: | "
          "---: |\n";
    for (const StoredResultInfo &e : entries) {
        os << "| " << utcTime(e.savedAtUnix) << " | "
           << e.meta.workload << " | " << e.meta.engine << " | "
           << e.meta.records << " | " << e.meta.seed << " | "
           << (e.meta.timing ? "yes" : "no") << " | "
           << pct(e.meta.coverage) << " | " << pct(e.meta.accuracy)
           << " | "
           << (e.meta.timing ? mult(e.meta.speedup) : "—")
           << " |\n";
    }
    return os.str();
}

std::string
renderHistoryCsv(const std::vector<StoredResultInfo> &entries)
{
    std::ostringstream os;
    os << "savedAtUnix,workload,engine,records,seed,timing,"
          "coverage,accuracy,speedup\n";
    for (const StoredResultInfo &e : entries) {
        os << e.savedAtUnix << ',' << e.meta.workload << ','
           << e.meta.engine << ',' << e.meta.records << ','
           << e.meta.seed << ',' << (e.meta.timing ? 1 : 0) << ','
           << jsonDouble(e.meta.coverage) << ','
           << jsonDouble(e.meta.accuracy) << ','
           << jsonDouble(e.meta.speedup) << '\n';
    }
    return os.str();
}

} // namespace stems
