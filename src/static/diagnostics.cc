#include "static/diagnostics.h"

#include <algorithm>

#include "core/control_stack.h"
#include "obs/json.h"

namespace wasabi::static_analysis {

const char *
name(Severity s)
{
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

size_t
Diagnostics::errorCount() const
{
    return static_cast<size_t>(
        std::count_if(all_.begin(), all_.end(), [](const Diagnostic &d) {
            return d.severity == Severity::Error;
        }));
}

bool
Diagnostics::hasCode(const std::string &code) const
{
    return std::any_of(all_.begin(), all_.end(),
                       [&code](const Diagnostic &d) {
                           return d.code == code;
                       });
}

void
Diagnostics::merge(const Diagnostics &other)
{
    all_.insert(all_.end(), other.all_.begin(), other.all_.end());
}

namespace {

/** Render an instruction index, mapping the sentinel to "entry". */
std::string
instrToString(uint32_t instr)
{
    if (instr == core::kFunctionEntry)
        return "entry";
    return std::to_string(instr);
}

} // namespace

std::string
toString(const Diagnostic &d)
{
    std::string out = name(d.severity);
    out += " ";
    out += d.code;
    if (d.func) {
        out += " (func " + std::to_string(*d.func);
        if (d.instr)
            out += ", instr " + instrToString(*d.instr);
        out += ")";
    }
    out += ": ";
    out += d.message;
    return out;
}

std::string
toString(const Diagnostics &ds)
{
    std::string out;
    for (const Diagnostic &d : ds.all()) {
        out += toString(d);
        out += "\n";
    }
    return out;
}

std::string
toJson(const Diagnostics &ds)
{
    std::string out = "[";
    bool first = true;
    for (const Diagnostic &d : ds.all()) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  {\"severity\": \"";
        out += name(d.severity);
        out += "\", \"code\": \"";
        out += obs::json::escape(d.code);
        out += "\"";
        if (d.func)
            out += ", \"func\": " + std::to_string(*d.func);
        if (d.instr) {
            // The function-entry sentinel is not a real index; emit -1.
            out += ", \"instr\": ";
            out += *d.instr == core::kFunctionEntry
                       ? std::string("-1")
                       : std::to_string(*d.instr);
        }
        out += ", \"message\": \"";
        out += obs::json::escape(d.message);
        out += "\"}";
    }
    out += first ? "]" : "\n]";
    return out;
}

} // namespace wasabi::static_analysis
