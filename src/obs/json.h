/**
 * @file
 * The project's one JSON reader and its one string escaper. The
 * reader is a minimal recursive-descent parser behind every JSON
 * input: claim manifests (static/manifest.h types them), `wasabi
 * serve` requests, and profile JSON (`wasabi profile --check=`, trace
 * checks in tests). Writers emit JSON by hand and quote every string
 * through escape(). Not a general-purpose JSON library: numbers are
 * doubles, duplicate object keys are kept (typed readers reject
 * them), and input size is bounded by the caller. \uXXXX escapes
 * decode to UTF-8, including surrogate pairs; lone or malformed
 * surrogates are rejected.
 */

#ifndef WASABI_OBS_JSON_H
#define WASABI_OBS_JSON_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wasabi::obs::json {

/** One parsed JSON value (a small tagged tree). */
struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<Value> array;
    /** Insertion-ordered key/value pairs. */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member of an object by key; nullptr if absent (or not an
     * object). */
    const Value *find(const std::string &key) const;

    /** Number rounded to uint64 (0 if not a number). */
    uint64_t asU64() const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected). Returns nullopt and fills @p error
 * (if non-null) on malformed input.
 */
std::optional<Value> parse(const std::string &text, std::string *error);

/**
 * @p s escaped for use inside a JSON string literal (without the
 * quotes): quote, backslash, newline, carriage return and tab get
 * their short escapes, other bytes below 0x20 become \u00XX, and
 * every other byte (UTF-8 included) passes through. parse() of the
 * quoted result gives back @p s.
 */
std::string escape(const std::string &s);

} // namespace wasabi::obs::json

#endif // WASABI_OBS_JSON_H
