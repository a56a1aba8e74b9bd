/**
 * @file
 * Minimal JSON value, recursive-descent parser, emit helpers, and the
 * checked number readers (integerOf, finiteAt) every reader of outside
 * input goes through.
 *
 * Shared by the tools that read the repo's own machine-readable
 * artifacts (perfdiff over exp::Report files, fuzzcheck over corpus
 * repro files, phoenixd over its command lines) and by the writers
 * that produce them. The parser covers the JSON subset those writers
 * emit — no surrogate-pair escapes — and is not a general-purpose
 * JSON library.
 */

#ifndef PHOENIX_UTIL_JSON_H
#define PHOENIX_UTIL_JSON_H

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace phoenix::util {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object field lookup; nullptr when absent or not an object. */
    const JsonValue *field(const std::string &name) const;

    /** Dotted-path lookup, e.g. "plan_seconds.mean". */
    const JsonValue *path(const std::string &dotted) const;

    /** Field's number, or @p fallback when absent / not a number. */
    double numberAt(const std::string &dotted, double fallback = 0.0) const;

    /** Field's string, or @p fallback when absent / not a string. */
    std::string stringAt(const std::string &dotted,
                         const std::string &fallback = "") const;
};

/**
 * Parse @p text into @p out. Returns false on malformed input or
 * trailing garbage.
 */
bool parseJson(const std::string &text, JsonValue &out);

/** Escape and quote a string as a JSON literal. */
std::string jsonQuote(const std::string &text);

/** Shortest round-trippable JSON rendering of a double (inf/nan ->
 * null, since JSON has neither). */
std::string jsonNumber(double value);

/** @p value as a T when it is a finite, integral JSON number within
 * T's range; std::nullopt for anything else (a string, 0.5, 1e999,
 * 4294967296 for a uint32_t, -1 for an unsigned T, ...). */
template <typename T>
std::optional<T>
integerOf(const JsonValue &value)
{
    static_assert(std::is_integral_v<T>);
    constexpr int digits = std::numeric_limits<T>::digits;
    const double low = std::is_signed_v<T> ? -std::ldexp(1.0, digits) : 0.0;
    const double v = value.number;
    if (!value.isNumber() || !std::isfinite(v) || v != std::trunc(v) ||
        v < low || v >= std::ldexp(1.0, digits))
        return std::nullopt;
    return static_cast<T>(v);
}

/** Field @p key of @p object through integerOf(), or @p fallback when
 * the field is absent. */
template <typename T>
std::optional<T>
integerAt(const JsonValue &object, const std::string &key, T fallback)
{
    const JsonValue *value = object.field(key);
    return value ? integerOf<T>(*value) : std::optional<T>(fallback);
}

/** Field @p key of @p object when it is a finite JSON number,
 * @p fallback when the field is absent, std::nullopt for anything
 * else (a string, infinity from an overflowing literal such as 1e999,
 * ...). */
std::optional<double> finiteAt(const JsonValue &object,
                               const std::string &key, double fallback);

} // namespace phoenix::util

#endif // PHOENIX_UTIL_JSON_H
