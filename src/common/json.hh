/**
 * @file
 * Minimal JSON value, writer, and parser (no third-party deps).
 *
 * Backs the structured-results subsystem: every bench binary emits a
 * machine-readable record of its paper observables, and `vsmooth
 * verify` reads those records back and diffs them against checked-in
 * goldens. Objects preserve insertion order so emitted files are
 * stable and diffable; doubles round-trip exactly (%.17g), and
 * integer tokens round-trip as exact 64-bit integers — a uint64 cycle
 * count or histogram mass above 2^53 never loses low bits to a double
 * detour.
 */

#ifndef VSMOOTH_COMMON_JSON_HH
#define VSMOOTH_COMMON_JSON_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vsmooth {

/**
 * A JSON value: null, bool, number, string, array, or object.
 * Objects keep their members in insertion order.
 *
 * Numbers carry a kind: integer-constructed values (and parsed
 * integer tokens that fit) are stored as exact int64/uint64 and
 * serialize as integer tokens, so 64-bit counters survive a
 * write/parse round trip bit-for-bit. asNumber() still works on any
 * number (integers convert, possibly with the usual > 2^53 rounding);
 * the exact accessors recover the integer losslessly.
 */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(int i)
        : type_(Type::Number), numKind_(NumKind::Int),
          num_(static_cast<double>(i)), int_(i) {}
    Json(std::int64_t i)
        : type_(Type::Number), numKind_(NumKind::Int),
          num_(static_cast<double>(i)), int_(i) {}
    Json(std::uint64_t u)
        : type_(Type::Number), numKind_(NumKind::Uint),
          num_(static_cast<double>(u)), uint_(u) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    /** An empty array / object, for incremental building. */
    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Number stored as an exact non-negative 64-bit integer. */
    bool isUint() const
    {
        return type_ == Type::Number && numKind_ == NumKind::Uint;
    }
    /** Number stored as an exact signed 64-bit integer. */
    bool isInt() const
    {
        return type_ == Type::Number && numKind_ == NumKind::Int;
    }

    /** Typed accessors; panic on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /**
     * Exact uint64 of this number, when it has one: an integer-kind
     * value in range, or a double that is integral and exactly
     * representable (|d| <= 2^53). Returns false otherwise — never a
     * silently rounded value.
     */
    bool exactUint64(std::uint64_t *out) const;
    /** exactUint64 or panic — for values already validated. */
    std::uint64_t asUint64() const;

    /** Append to an array value (panics if not an array). */
    void push(Json v);
    /** Set (append or overwrite) an object member. */
    void set(std::string key, Json v);
    /** Member lookup; nullptr if absent or not an object. */
    const Json *find(std::string_view key) const;
    /** Member lookup; panics if absent. */
    const Json &at(std::string_view key) const;
    bool contains(std::string_view key) const { return find(key); }

    /** Serialize. `indent` > 0 pretty-prints with that step. */
    void write(std::ostream &os, int indent = 0) const;
    std::string dump(int indent = 0) const;

    /**
     * Deepest array/object nesting parse() accepts. The parser
     * recurses once per level, so without a cap one hostile line of
     * brackets would exhaust the stack; every file the repository
     * reads nests a handful of levels deep.
     */
    static constexpr int kMaxParseDepth = 256;

    /**
     * Parse a complete JSON document. On failure (including nesting
     * deeper than kMaxParseDepth) returns a Null value and, if `error`
     * is given, stores a human-readable message.
     */
    static Json parse(std::string_view text, std::string *error = nullptr);

  private:
    enum class NumKind { Double, Int, Uint };

    void writeValue(std::ostream &os, int indent, int depth) const;

    Type type_;
    NumKind numKind_ = NumKind::Double;
    bool bool_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    std::string str_;
    Array arr_;
    Object obj_;
};

} // namespace vsmooth

#endif // VSMOOTH_COMMON_JSON_HH
