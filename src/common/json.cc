#include "json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "logging.hh"

namespace vsmooth {

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        panic("Json: not a bool");
    return bool_;
}

double
Json::asNumber() const
{
    if (type_ != Type::Number)
        panic("Json: not a number");
    return num_;
}

bool
Json::exactUint64(std::uint64_t *out) const
{
    if (type_ != Type::Number)
        return false;
    switch (numKind_) {
      case NumKind::Uint:
        *out = uint_;
        return true;
      case NumKind::Int:
        if (int_ < 0)
            return false;
        *out = static_cast<std::uint64_t>(int_);
        return true;
      case NumKind::Double:
        // A double carries an exact integer only up to 2^53; beyond
        // that the low bits are already gone and no cast recovers
        // them.
        if (!(num_ >= 0.0) || num_ != std::floor(num_) ||
            num_ > 9007199254740992.0) {
            return false;
        }
        *out = static_cast<std::uint64_t>(num_);
        return true;
    }
    return false;
}

std::uint64_t
Json::asUint64() const
{
    std::uint64_t v = 0;
    if (!exactUint64(&v))
        panic("Json: number has no exact uint64 value");
    return v;
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        panic("Json: not a string");
    return str_;
}

const Json::Array &
Json::asArray() const
{
    if (type_ != Type::Array)
        panic("Json: not an array");
    return arr_;
}

const Json::Object &
Json::asObject() const
{
    if (type_ != Type::Object)
        panic("Json: not an object");
    return obj_;
}

void
Json::push(Json v)
{
    if (type_ != Type::Array)
        panic("Json::push on non-array");
    arr_.push_back(std::move(v));
}

void
Json::set(std::string key, Json v)
{
    if (type_ != Type::Object)
        panic("Json::set on non-object");
    for (auto &[k, old] : obj_) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    obj_.emplace_back(std::move(key), std::move(v));
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const Json &
Json::at(std::string_view key) const
{
    const Json *v = find(key);
    if (!v)
        panic("Json: missing key '%s'", std::string(key).c_str());
    return *v;
}

namespace {

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeNumber(std::ostream &os, double d)
{
    if (!std::isfinite(d)) {
        // JSON has no inf/nan; emit null (readers treat it as absent).
        os << "null";
        return;
    }
    // Integers print without exponent/decimals; everything else with
    // enough digits to round-trip a double exactly.
    if (d == std::floor(d) && std::abs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        os << buf;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    os << buf;
}

void
newlineIndent(std::ostream &os, int indent, int depth)
{
    if (indent <= 0)
        return;
    os << '\n';
    for (int i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
Json::writeValue(std::ostream &os, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        os << "null";
        break;
      case Type::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Type::Number:
        // Integer-kind numbers print all 64 bits exactly; the decimal
        // text matches what %.0f produced for the same values when
        // they fit a double, so pre-existing files stay byte-stable.
        if (numKind_ == NumKind::Uint) {
            char buf[24];
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(uint_));
            os << buf;
        } else if (numKind_ == NumKind::Int) {
            char buf[24];
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(int_));
            os << buf;
        } else {
            writeNumber(os, num_);
        }
        break;
      case Type::String:
        writeEscaped(os, str_);
        break;
      case Type::Array:
        os << '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                os << ',';
            if (indent > 0 && !arr_[i].isNumber())
                newlineIndent(os, indent, depth + 1);
            else if (indent > 0 && i)
                os << ' ';
            arr_[i].writeValue(os, indent, depth + 1);
        }
        os << ']';
        break;
      case Type::Object:
        os << '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            writeEscaped(os, obj_[i].first);
            os << (indent > 0 ? ": " : ":");
            obj_[i].second.writeValue(os, indent, depth + 1);
        }
        if (!obj_.empty())
            newlineIndent(os, indent, depth);
        os << '}';
        break;
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeValue(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

namespace {

/** Recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    Json
    parseDocument()
    {
        Json v = parseValue();
        if (failed_)
            return Json();
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON value");
            return Json();
        }
        return v;
    }

    bool failed() const { return failed_; }

  private:
    void
    fail(const std::string &msg)
    {
        if (!failed_ && error_)
            *error_ = msg + " at offset " + std::to_string(pos_);
        failed_ = true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view w)
    {
        if (text_.substr(pos_, w.size()) == w) {
            pos_ += w.size();
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return Json();
        }
        const char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == Json::kMaxParseDepth) {
                fail("nesting deeper than " +
                     std::to_string(Json::kMaxParseDepth) + " levels");
                return Json();
            }
            ++depth_;
            Json v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"')
            return Json(parseString());
        if (consumeWord("true"))
            return Json(true);
        if (consumeWord("false"))
            return Json(false);
        if (consumeWord("null"))
            return Json();
        return parseNumber();
    }

    std::string
    parseString()
    {
        std::string out;
        if (!consume('"')) {
            fail("expected string");
            return out;
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                        return out;
                    }
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            fail("bad \\u escape");
                            return out;
                        }
                    }
                    // Basic-multilingual-plane only; encode as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail("bad escape character");
                    return out;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return out;
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+')) {
            ++pos_;
        }
        const std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (tok.empty() || end != tok.c_str() + tok.size()) {
            fail("bad number '" + tok + "'");
            return Json();
        }
        // A pure integer token keeps its exact 64-bit value (counters
        // above 2^53 must not detour through a double). "-0" stays a
        // double so it round-trips as written, and tokens beyond the
        // 64-bit ranges fall back to the double approximation.
        if (tok.find_first_of(".eE") == std::string::npos) {
            errno = 0;
            if (tok[0] == '-') {
                const long long i = std::strtoll(tok.c_str(), &end, 10);
                if (errno == 0 && end == tok.c_str() + tok.size() &&
                    i != 0) {
                    return Json(static_cast<std::int64_t>(i));
                }
            } else {
                const unsigned long long u =
                    std::strtoull(tok.c_str(), &end, 10);
                if (errno == 0 && end == tok.c_str() + tok.size())
                    return Json(static_cast<std::uint64_t>(u));
            }
        }
        return Json(v);
    }

    Json
    parseArray()
    {
        Json arr = Json::array();
        consume('[');
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            arr.push(parseValue());
            if (failed_)
                return arr;
            skipWs();
            if (consume(']'))
                return arr;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return arr;
            }
        }
    }

    Json
    parseObject()
    {
        Json obj = Json::object();
        consume('{');
        skipWs();
        if (consume('}'))
            return obj;
        while (true) {
            skipWs();
            std::string key = parseString();
            if (failed_)
                return obj;
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after object key");
                return obj;
            }
            obj.set(std::move(key), parseValue());
            if (failed_)
                return obj;
            skipWs();
            if (consume('}'))
                return obj;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return obj;
            }
        }
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    bool failed_ = false;
};

} // namespace

Json
Json::parse(std::string_view text, std::string *error)
{
    Parser p(text, error);
    Json v = p.parseDocument();
    if (p.failed())
        return Json();
    return v;
}

} // namespace vsmooth
