/**
 * @file
 * The one codec for claim manifests, the JSON files `wasabi check
 * --manifest=` re-proves. Three kinds share one layout:
 *
 *  - hook plan (`instrument --optimize-hooks`): no "schema" key;
 *  - "wasabi-opt-manifest" (`wasabi opt`);
 *  - "wasabi-range-manifest" (`analyze --ranges`).
 *
 * Every kind is one JSON object with "version": 1 and fields that are
 * integers in [0, 2^32-1], arrays of strings, or arrays of
 * fixed-width integer rows. Text is parsed by obs::json; the typed
 * reader here walks the parsed document once, fail-closed: duplicate
 * keys, keys no reader asks for, wrong versions, wrong row widths,
 * negative or non-integral numbers are all errors.
 */

#ifndef WASABI_STATIC_MANIFEST_H
#define WASABI_STATIC_MANIFEST_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace wasabi::static_analysis {

enum class ManifestSchema { HookPlan, Opt, Range };

/** "hook-plan", "wasabi-opt-manifest" or "wasabi-range-manifest". */
const char *name(ManifestSchema schema);

/**
 * Which manifest kind @p doc is, from its top-level "schema" field
 * alone: absent means a hook plan (v1), "wasabi-opt-manifest" and
 * "wasabi-range-manifest" name the other two. Anything else, or a
 * document that is not an object, is an error (nullopt, @p error set
 * if non-null).
 */
std::optional<ManifestSchema> manifestSchema(const obs::json::Value &doc,
                                             std::string *error);

/** Does @p text parse as JSON whose manifestSchema() is @p schema? */
bool hasManifestSchema(const std::string &text, ManifestSchema schema);

/**
 * Typed reader over one parsed manifest. The constructor checks the
 * top level (an object of @p schema with distinct keys and
 * "version": 1); each field reader then checks its value. Absent
 * fields are left as they are. The first error sticks, and later
 * reads do nothing; done() reports it, or any field no reader asked
 * for.
 */
class ManifestReader {
  public:
    ManifestReader(const obs::json::Value &doc, ManifestSchema schema);

    /** Integer field @p key into @p out. */
    void u32(const char *key, uint32_t &out);

    /** String-array field @p key, appended to @p out. */
    void strings(const char *key, std::vector<std::string> &out);

    /**
     * Row-array field @p key: each element is a row of @p width
     * integers (a bare integer when @p width is 1), passed to @p fn
     * as `const uint32_t *`. At most kMaxWidth columns.
     */
    template <typename Fn>
    void
    rows(const char *key, size_t width, Fn &&fn)
    {
        assert(width >= 1 && width <= kMaxWidth);
        const obs::json::Value *list = array(key);
        uint32_t row[kMaxWidth] = {};
        for (size_t i = 0; list && i < list->array.size() && ok(); ++i) {
            if (readRow(key, list->array[i], width, row))
                fn(static_cast<const uint32_t *>(row));
        }
    }

    /** Record a semantic error found by the caller. */
    void fail(const std::string &what);

    bool ok() const { return error_.empty(); }

    /** True if every field was read without error; otherwise false
     * with @p error (if non-null) set. */
    bool done(std::string *error);

    static constexpr size_t kMaxWidth = 4;

  private:
    /** Field @p key, marked as read; nullptr if absent or failed. */
    const obs::json::Value *field(const char *key);
    /** Field @p key if it is an array; fails if it is anything else. */
    const obs::json::Value *array(const char *key);
    bool toU32(const char *key, const obs::json::Value &v, uint32_t &out);
    bool readRow(const char *key, const obs::json::Value &v, size_t width,
                 uint32_t *row);

    const obs::json::Value &doc_;
    std::vector<bool> read_; ///< per top-level key
    std::string error_;
};

/**
 * Writer for the shared layout: `{`, the schema (if any) and version
 * lines, then one `"key": [...]` line per field, `}`. Rows are
 * `[a, b, ...]` (a bare integer when one column wide), joined by ", ".
 */
class ManifestWriter {
  public:
    explicit ManifestWriter(ManifestSchema schema);

    void strings(const char *key, const std::vector<std::string> &values);

    /** Field @p key from @p cols, @p width columns per row. */
    void rows(const char *key, size_t width,
              const std::vector<uint32_t> &cols);

    std::string finish();

  private:
    std::string out_;
};

} // namespace wasabi::static_analysis

#endif // WASABI_STATIC_MANIFEST_H
