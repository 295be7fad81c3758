#include "sim/sweep_plan.hh"

#include <cstdio>
#include <limits>

#include "common/mini_json.hh"

namespace stems {

namespace {

std::string
u64Token(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** `null` for unset optional engine knobs, so every options object
 *  carries every key and equal plans have equal bytes. */
template <typename T>
std::string
optToken(const std::optional<T> &v)
{
    return v ? u64Token(static_cast<std::uint64_t>(*v)) : "null";
}

std::string
optBoolToken(const std::optional<bool> &v)
{
    if (!v)
        return "null";
    return *v ? "true" : "false";
}

const char *
boolToken(bool v)
{
    return v ? "true" : "false";
}

// ---- strict parse helpers -----------------------------------------

bool
parseFail(std::string *error, const std::string &what)
{
    if (error && error->empty())
        *error = what;
    return false;
}

bool
asU64(const JsonValue &v, std::uint64_t &out)
{
    if (v.kind != JsonValue::Kind::kNumber || !v.isInteger)
        return false;
    out = v.integer;
    return true;
}

/** asU64 for a narrower unsigned field: a value that does not fit
 *  is rejected, never truncated into a different plan. */
bool
asUnsigned(const JsonValue &v, unsigned &out)
{
    std::uint64_t u = 0;
    if (!asU64(v, u) || u > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(u);
    return true;
}

bool
asBool(const JsonValue &v, bool &out)
{
    if (v.kind != JsonValue::Kind::kBool)
        return false;
    out = v.boolean;
    return true;
}

bool
asDouble(const JsonValue &v, double &out)
{
    if (v.kind != JsonValue::Kind::kNumber)
        return false;
    out = v.number;
    return true;
}

bool
parseOptions(const JsonValue &v, EngineOptions &options,
             std::string *error)
{
    if (v.kind != JsonValue::Kind::kObject)
        return parseFail(error, "engine options must be an object");
    for (const auto &kv : v.members) {
        const std::string &key = kv.first;
        const JsonValue &val = kv.second;
        const bool is_null = val.kind == JsonValue::Kind::kNull;
        std::uint64_t u = 0;
        unsigned narrow = 0;
        bool b = false;
        if (key == "buffer_entries") {
            if (is_null)
                continue;
            if (!asU64(val, u))
                return parseFail(error, "bad buffer_entries");
            options.bufferEntries = static_cast<std::size_t>(u);
        } else if (key == "displacement_window") {
            if (is_null)
                continue;
            if (!asUnsigned(val, narrow))
                return parseFail(error, "bad displacement_window");
            options.displacementWindow = narrow;
        } else if (key == "lookahead") {
            if (is_null)
                continue;
            if (!asUnsigned(val, narrow))
                return parseFail(error, "bad lookahead");
            options.lookahead = narrow;
        } else if (key == "scientific") {
            if (!asBool(val, b))
                return parseFail(error, "bad scientific");
            options.scientific = b;
        } else if (key == "sms_use_counters") {
            if (is_null)
                continue;
            if (!asBool(val, b))
                return parseFail(error, "bad sms_use_counters");
            options.smsUseCounters = b;
        } else if (key == "stream_queues") {
            if (is_null)
                continue;
            if (!asU64(val, u))
                return parseFail(error, "bad stream_queues");
            options.streamQueues = static_cast<std::size_t>(u);
        } else {
            return parseFail(error,
                             "unknown engine option '" + key + "'");
        }
    }
    return true;
}

bool
parseEngine(const JsonValue &v, PlanEngine &engine,
            std::string *error)
{
    if (v.kind != JsonValue::Kind::kObject)
        return parseFail(error, "engine entry must be an object");
    bool have_name = false;
    for (const auto &kv : v.members) {
        const std::string &key = kv.first;
        const JsonValue &val = kv.second;
        if (key == "engine") {
            if (val.kind != JsonValue::Kind::kString)
                return parseFail(error, "bad engine name");
            engine.engine = val.text;
            have_name = true;
        } else if (key == "label") {
            if (val.kind != JsonValue::Kind::kString)
                return parseFail(error, "bad engine label");
            engine.label = val.text;
        } else if (key == "options") {
            if (!parseOptions(val, engine.options, error))
                return false;
        } else {
            return parseFail(error,
                             "unknown engine field '" + key + "'");
        }
    }
    if (!have_name || engine.engine.empty())
        return parseFail(error, "engine entry missing a name");
    return true;
}

} // namespace

const char *
unitGranularityName(UnitGranularity granularity)
{
    switch (granularity) {
    case UnitGranularity::kCell:
        return "cell";
    case UnitGranularity::kWorkload:
    default:
        return "workload";
    }
}

bool
parseUnitGranularity(const std::string &text, UnitGranularity &out)
{
    if (text == "workload")
        out = UnitGranularity::kWorkload;
    else if (text == "cell")
        out = UnitGranularity::kCell;
    else
        return false;
    return true;
}

std::string
sweepPlanJson(const SweepPlan &plan)
{
    std::string out;
    out += "{\n";
    out += "  \"checkpoint_every\": " + u64Token(plan.checkpointEvery);
    out += ",\n  \"engines\": [";
    for (std::size_t i = 0; i < plan.engines.size(); ++i) {
        const PlanEngine &e = plan.engines[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\n";
        out += "      \"engine\": \"" + jsonEscape(e.engine) +
               "\",\n";
        out += "      \"label\": \"" + jsonEscape(e.label) + "\",\n";
        out += "      \"options\": {\n";
        out += "        \"buffer_entries\": " +
               optToken(e.options.bufferEntries) + ",\n";
        out += "        \"displacement_window\": " +
               optToken(e.options.displacementWindow) + ",\n";
        out += "        \"lookahead\": " +
               optToken(e.options.lookahead) + ",\n";
        out += std::string("        \"scientific\": ") +
               boolToken(e.options.scientific) + ",\n";
        out += "        \"sms_use_counters\": " +
               optBoolToken(e.options.smsUseCounters) + ",\n";
        out += "        \"stream_queues\": " +
               optToken(e.options.streamQueues) + "\n";
        out += "      }\n";
        out += "    }";
    }
    out += plan.engines.empty() ? "]" : "\n  ]";
    out += ",\n  \"heartbeat_seconds\": " +
           jsonDouble(plan.heartbeatSeconds);
    out += ",\n  \"jobs\": " + u64Token(plan.jobs);
    out += ",\n  \"records\": " + u64Token(plan.records);
    out += ",\n  \"schema\": \"";
    out += kSweepPlanSchema;
    out += "\"";
    out += ",\n  \"seed\": " + u64Token(plan.seed);
    out += ",\n  \"timing\": ";
    out += boolToken(plan.timing);
    out += ",\n  \"unit_granularity\": \"";
    out += unitGranularityName(plan.unitGranularity);
    out += "\"";
    out += ",\n  \"warmup_fraction\": " +
           jsonDouble(plan.warmupFraction);
    out += ",\n  \"warmup_records\": " + u64Token(plan.warmupRecords);
    out += ",\n  \"workloads\": [";
    for (std::size_t i = 0; i < plan.workloads.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    \"" + jsonEscape(plan.workloads[i]) + "\"";
    }
    out += plan.workloads.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

bool
parseSweepPlanJson(const std::string &text, SweepPlan &plan,
                   std::string *error)
{
    JsonParser parser(text);
    JsonValue root;
    if (!parser.parseValue(root))
        return parseFail(error, "bad JSON: " + parser.error);
    parser.skipWs();
    if (parser.p != parser.end)
        return parseFail(error, "trailing content after plan");
    if (root.kind != JsonValue::Kind::kObject)
        return parseFail(error, "plan must be a JSON object");

    // The schema tag is checked before any field, so a document of
    // another schema version is refused as such rather than by
    // whichever of its fields happens to come first.
    const JsonValue *schema = root.get("schema");
    if (!schema)
        return parseFail(error, "plan is missing the schema tag");
    if (schema->kind != JsonValue::Kind::kString ||
        schema->text != kSweepPlanSchema)
        return parseFail(error, "unsupported plan schema");

    SweepPlan out;
    for (const auto &kv : root.members) {
        const std::string &key = kv.first;
        const JsonValue &val = kv.second;
        if (key == "schema") {
            continue;
        } else if (key == "checkpoint_every") {
            if (!asU64(val, out.checkpointEvery))
                return parseFail(error, "bad checkpoint_every");
        } else if (key == "engines") {
            if (val.kind != JsonValue::Kind::kArray)
                return parseFail(error, "engines must be an array");
            for (const JsonValue &item : val.items) {
                PlanEngine engine;
                if (!parseEngine(item, engine, error))
                    return false;
                out.engines.push_back(std::move(engine));
            }
        } else if (key == "heartbeat_seconds") {
            if (!asDouble(val, out.heartbeatSeconds))
                return parseFail(error, "bad heartbeat_seconds");
        } else if (key == "jobs") {
            if (!asUnsigned(val, out.jobs))
                return parseFail(error, "bad jobs");
        } else if (key == "records") {
            if (!asU64(val, out.records))
                return parseFail(error, "bad records");
        } else if (key == "seed") {
            if (!asU64(val, out.seed))
                return parseFail(error, "bad seed");
        } else if (key == "timing") {
            if (!asBool(val, out.timing))
                return parseFail(error, "bad timing");
        } else if (key == "unit_granularity") {
            if (val.kind != JsonValue::Kind::kString ||
                !parseUnitGranularity(val.text,
                                      out.unitGranularity))
                return parseFail(error, "bad unit_granularity");
        } else if (key == "warmup_fraction") {
            if (!asDouble(val, out.warmupFraction))
                return parseFail(error, "bad warmup_fraction");
        } else if (key == "warmup_records") {
            if (!asU64(val, out.warmupRecords))
                return parseFail(error, "bad warmup_records");
        } else if (key == "workloads") {
            if (val.kind != JsonValue::Kind::kArray)
                return parseFail(error, "workloads must be an array");
            for (const JsonValue &item : val.items) {
                if (item.kind != JsonValue::Kind::kString)
                    return parseFail(error,
                                     "workloads must be strings");
                out.workloads.push_back(item.text);
            }
        } else {
            return parseFail(error,
                             "unknown plan field '" + key + "'");
        }
    }
    plan = std::move(out);
    return true;
}

ExperimentConfig
planExperimentConfig(const SweepPlan &plan)
{
    ExperimentConfig config;
    config.traceRecords = static_cast<std::size_t>(plan.records);
    config.seed = plan.seed;
    config.warmupFraction = plan.warmupFraction;
    config.warmupRecords =
        static_cast<std::size_t>(plan.warmupRecords);
    config.enableTiming = plan.timing;
    return config;
}

} // namespace stems
