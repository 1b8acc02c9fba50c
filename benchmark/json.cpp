#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sldf::benchmark {

const Json* Json::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  if (const Json* v = find(key)) return *v;
  throw std::runtime_error("JSON: missing key '" + key + "'");
}

double Json::as_number() const {
  if (kind != Kind::Number)
    throw std::runtime_error("JSON: expected a number");
  return number;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json document() {
    Json v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  // Deep enough for any record this benchmark writes; bounds recursion on
  // hostile input.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      v.kind = Json::Kind::Object;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected a key");
        std::string key = string();
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') fail("expected ':'");
        ++pos_;
        v.members.emplace_back(std::move(key), value(depth + 1));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return v;
        }
        fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      v.kind = Json::Kind::Array;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.items.push_back(value(depth + 1));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return v;
        }
        fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      v.kind = Json::Kind::String;
      v.str = string();
      return v;
    }
    if (consume("true")) {
      v.kind = Json::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (consume("false")) {
      v.kind = Json::Kind::Bool;
      return v;
    }
    if (consume("null")) return v;
    return number();
  }

  std::string string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Records only escape control characters; anything wider is
          // kept as '?' rather than decoded into UTF-8.
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
    fail("unterminated string");
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("unexpected character");
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("malformed number");
    Json v;
    v.kind = Json::Kind::Number;
    v.number = d;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(const std::string& text) { return Parser(text).document(); }

Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    return parse_json(ss.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace sldf::benchmark
