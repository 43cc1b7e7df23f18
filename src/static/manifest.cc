#include "static/manifest.h"

#include <cmath>
#include <set>
#include <string_view>

namespace wasabi::static_analysis {

using obs::json::Value;

const char *
name(ManifestSchema schema)
{
    switch (schema) {
      case ManifestSchema::HookPlan: return "hook-plan";
      case ManifestSchema::Opt: return "wasabi-opt-manifest";
      case ManifestSchema::Range: return "wasabi-range-manifest";
    }
    return "?";
}

std::optional<ManifestSchema>
manifestSchema(const Value &doc, std::string *error)
{
    std::string what;
    if (!doc.isObject()) {
        what = "manifest is not a JSON object";
    } else if (const Value *s = doc.find("schema"); !s) {
        return ManifestSchema::HookPlan;
    } else if (!s->isString()) {
        what = "manifest \"schema\" is not a string";
    } else {
        for (ManifestSchema k : {ManifestSchema::Opt, ManifestSchema::Range}) {
            if (s->str == name(k))
                return k;
        }
        what = "unknown manifest schema \"" + obs::json::escape(s->str) +
               "\"";
    }
    if (error)
        *error = what;
    return std::nullopt;
}

bool
hasManifestSchema(const std::string &text, ManifestSchema schema)
{
    std::optional<Value> doc = obs::json::parse(text, nullptr);
    return doc && manifestSchema(*doc, nullptr) == schema;
}

// ----- reader --------------------------------------------------------

ManifestReader::ManifestReader(const Value &doc, ManifestSchema schema)
    : doc_(doc), read_(doc.object.size(), false)
{
    std::optional<ManifestSchema> actual = manifestSchema(doc, &error_);
    if (!actual)
        return;
    if (*actual != schema) {
        fail(std::string("expected a ") + name(schema) +
             " manifest, got a " + name(*actual) + " one");
        return;
    }
    std::set<std::string_view> keys;
    for (const auto &[key, value] : doc.object) {
        if (!keys.insert(key).second) {
            fail("duplicate manifest field \"" + key + "\"");
            return;
        }
    }
    field("schema"); // checked by manifestSchema() above
    if (!doc.find("version")) {
        fail("manifest lacks a \"version\" field");
        return;
    }
    uint32_t version = 0;
    u32("version", version);
    if (ok() && version != 1)
        fail("unsupported manifest version " + std::to_string(version));
}

void
ManifestReader::fail(const std::string &what)
{
    if (error_.empty())
        error_ = what;
}

const Value *
ManifestReader::field(const char *key)
{
    for (size_t i = 0; ok() && i < doc_.object.size(); ++i) {
        if (doc_.object[i].first == key) {
            read_[i] = true;
            return &doc_.object[i].second;
        }
    }
    return nullptr;
}

const Value *
ManifestReader::array(const char *key)
{
    const Value *v = field(key);
    if (v && !v->isArray()) {
        fail(std::string("manifest field \"") + key +
             "\" is not an array");
        return nullptr;
    }
    return v;
}

bool
ManifestReader::toU32(const char *key, const Value &v, uint32_t &out)
{
    const char *what = nullptr;
    if (!v.isNumber())
        what = "expected an integer";
    else if (std::signbit(v.number))
        what = "negative number";
    else if (v.number != std::floor(v.number))
        what = "non-integral number";
    else if (v.number > 4294967295.0)
        what = "number out of range";
    if (what) {
        fail(std::string(what) + " in manifest field \"" + key + "\"");
        return false;
    }
    out = static_cast<uint32_t>(v.number);
    return true;
}

void
ManifestReader::u32(const char *key, uint32_t &out)
{
    if (const Value *v = field(key))
        toU32(key, *v, out);
}

void
ManifestReader::strings(const char *key, std::vector<std::string> &out)
{
    const Value *list = array(key);
    for (size_t i = 0; list && i < list->array.size(); ++i) {
        if (!list->array[i].isString())
            return fail(std::string("expected a string in manifest "
                                    "field \"") +
                        key + "\"");
        out.push_back(list->array[i].str);
    }
}

bool
ManifestReader::readRow(const char *key, const Value &v, size_t width,
                        uint32_t *row)
{
    if (width == 1)
        return toU32(key, v, row[0]);
    if (!v.isArray() || v.array.size() != width) {
        fail("expected rows of " + std::to_string(width) +
             " integers in manifest field \"" + key + "\"");
        return false;
    }
    for (size_t k = 0; k < width; ++k) {
        if (!toU32(key, v.array[k], row[k]))
            return false;
    }
    return true;
}

bool
ManifestReader::done(std::string *error)
{
    for (size_t i = 0; ok() && i < read_.size(); ++i) {
        if (!read_[i])
            fail("unknown manifest field \"" + doc_.object[i].first +
                 "\"");
    }
    if (!ok() && error)
        *error = error_;
    return ok();
}

// ----- writer --------------------------------------------------------

ManifestWriter::ManifestWriter(ManifestSchema schema) : out_("{\n")
{
    if (schema != ManifestSchema::HookPlan)
        out_ += std::string("  \"schema\": \"") + name(schema) + "\",\n";
    out_ += "  \"version\": 1";
}

void
ManifestWriter::strings(const char *key,
                        const std::vector<std::string> &values)
{
    out_ += std::string(",\n  \"") + key + "\": [";
    for (size_t i = 0; i < values.size(); ++i)
        out_ += (i ? ", \"" : "\"") + obs::json::escape(values[i]) + "\"";
    out_ += "]";
}

void
ManifestWriter::rows(const char *key, size_t width,
                     const std::vector<uint32_t> &cols)
{
    out_ += std::string(",\n  \"") + key + "\": [";
    for (size_t r = 0; r * width < cols.size(); ++r) {
        out_ += r ? ", " : "";
        out_ += width > 1 ? "[" : "";
        for (size_t k = 0; k < width; ++k)
            out_ += (k ? ", " : "") + std::to_string(cols[r * width + k]);
        out_ += width > 1 ? "]" : "";
    }
    out_ += "]";
}

std::string
ManifestWriter::finish()
{
    return std::move(out_) + "\n}\n";
}

} // namespace wasabi::static_analysis
