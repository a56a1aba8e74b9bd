#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace phoenix::util {

const JsonValue *
JsonValue::field(const std::string &name) const
{
    for (const auto &[key, value] : fields) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

const JsonValue *
JsonValue::path(const std::string &dotted) const
{
    const JsonValue *node = this;
    size_t start = 0;
    while (node) {
        const size_t dot = dotted.find('.', start);
        const std::string key = dotted.substr(
            start, dot == std::string::npos ? dot : dot - start);
        node = node->field(key);
        if (dot == std::string::npos)
            return node;
        start = dot + 1;
    }
    return nullptr;
}

double
JsonValue::numberAt(const std::string &dotted, double fallback) const
{
    const JsonValue *node = path(dotted);
    return node && node->kind == Kind::Number ? node->number : fallback;
}

std::string
JsonValue::stringAt(const std::string &dotted,
                    const std::string &fallback) const
{
    const JsonValue *node = path(dotted);
    return node && node->kind == Kind::String ? node->text : fallback;
}

namespace {

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        pos_ = 0;
        if (!value(out))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{':
            return object(out);
        case '[':
            return array(out);
        case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.text);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        default:
            return number(out);
        }
    }

    bool
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipSpace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !string(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            JsonValue child;
            if (!value(child))
                return false;
            out.fields.emplace_back(std::move(key), std::move(child));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue child;
            if (!value(child))
                return false;
            out.items.push_back(std::move(child));
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char escape = text_[pos_++];
            switch (escape) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return false;
                const unsigned code = static_cast<unsigned>(std::strtoul(
                    text_.substr(pos_, 4).c_str(), nullptr, 16));
                pos_ += 4;
                // Our writers only escape control chars (< 0x20).
                out += static_cast<char>(code);
                break;
            }
            default:
                return false;
            }
        }
        return false;
    }

    bool
    number(JsonValue &out)
    {
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        out.number = std::strtod(begin, &end);
        if (end == begin)
            return false;
        out.kind = JsonValue::Kind::Number;
        pos_ += static_cast<size_t>(end - begin);
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out)
{
    return JsonParser(text).parse(out);
}

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null"; // JSON has no inf/nan
    char buffer[40];
    // max_digits10 guarantees the double round-trips exactly.
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::optional<double>
finiteAt(const JsonValue &object, const std::string &key, double fallback)
{
    const JsonValue *value = object.field(key);
    if (!value)
        return fallback;
    if (!value->isNumber() || !std::isfinite(value->number))
        return std::nullopt;
    return value->number;
}

} // namespace phoenix::util
