// Value codecs and option rows: the one grammar of every `key = value` the
// scenario layer and the registries accept. A codec parses text into the
// type of the field that stores it, range-checked against that field so no
// value wraps or truncates on assignment, and renders it back so that
// parse(render(v)) == v; type() names the value in the generated docs.
// Scenario keys (core/scenario.cpp) are rows over these codecs, and so is
// every registry entry's option (topology params, traffic patterns,
// workload generators, workload runner keys): one Option row each.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cli.hpp"

namespace sldf::core {

/// String key/value map used for topology overrides and traffic options.
using KvMap = std::map<std::string, std::string>;

/// Documentation of one accepted option/override key of a registry entry.
struct OptionDoc {
  std::string key;   ///< Option name as written in configs, e.g. "g".
  std::string type;  ///< "int", "bool", "double", or an enum value list.
  std::string def;   ///< Rendered default value.
  std::string help;  ///< One-line meaning.
};

/// Throws std::invalid_argument "<what> expects <expects>, got '<value>'";
/// `what` names the key, e.g. "scenario key 'pkt_len'".
[[noreturn]] inline void reject(const std::string& what,
                                const std::string& expects,
                                const std::string& value) {
  throw std::invalid_argument(what + " expects " + expects + ", got '" +
                              value + "'");
}

inline std::string format_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ---- codecs: parse(what, text) validates and converts, throwing
// ---- std::invalid_argument that names `what` --------------------------

/// An integer in [lo, hi]; hi defaults to the field type's maximum, so a
/// value can never wrap or truncate on assignment. Unsigned fields (seeds,
/// cycle counts) parse without a sign over their full range.
template <typename T>
struct Int {
  T lo;
  T hi = std::numeric_limits<T>::max();
  T parse(const std::string& what, const std::string& v) const {
    std::conditional_t<std::is_signed_v<T>, long, std::uint64_t> x = 0;
    bool ok = false;
    if constexpr (std::is_signed_v<T>)
      ok = Cli::parse_long(v, x);
    else
      ok = Cli::parse_u64(v, x);
    if (!ok)
      reject(what, std::is_signed_v<T> ? "an integer" : "an unsigned integer",
             v);
    if (x < lo || x > hi)
      reject(what, "an integer in [" + render(lo) + ", " + render(hi) + "]",
             v);
    return static_cast<T>(x);
  }
  std::string render(T v) const { return std::to_string(v); }
  std::string type() const { return "int"; }
};

/// A count where `auto` (stored as 0) resolves to the usable cores.
template <typename T>
struct AutoCount {
  T parse(const std::string& what, const std::string& v) const {
    return v == "auto" ? T{0} : Int<T>{0}.parse(what, v);
  }
  std::string render(T v) const { return v == 0 ? "auto" : std::to_string(v); }
  std::string type() const { return "int|auto"; }
};

/// A number in [lo, hi], or (lo, hi] when `open_lo` (a size or a clock
/// must be > 0). NaN is never in range.
struct Num {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open_lo = false;
  double parse(const std::string& what, const std::string& v) const {
    double x = 0.0;
    if (!Cli::parse_double(v, x)) reject(what, "a number", v);
    if (!((open_lo ? x > lo : x >= lo) && x <= hi))
      reject(what,
             std::string("a number in ") + (open_lo ? "(" : "[") +
                 format_num(lo) + ", " + format_num(hi) + "]",
             v);
    return x;
  }
  std::string render(double v) const { return format_num(v); }
  std::string type() const { return "double"; }
};

/// Free text; `kind` is its doc type ("path" for a file name).
struct Str {
  const char* kind = "string";
  std::string parse(const std::string&, const std::string& v) const {
    return v;
  }
  std::string render(const std::string& v) const { return v; }
  std::string type() const { return kind; }
};

/// `0`/`1`, `true`/`false` (Cli::parse_bool's spellings); renders `0`/`1`.
struct Bool {
  bool parse(const std::string& what, const std::string& v) const {
    bool b = false;
    if (!Cli::parse_bool(v, b)) reject(what, "a boolean (0/1/true/false)", v);
    return b;
  }
  std::string render(bool v) const { return v ? "1" : "0"; }
  std::string type() const { return "bool"; }
};

/// One name of an enum, through the enum's own parse/to_string pair;
/// `names` is the accepted list as the docs show it.
template <typename E>
struct Enum {
  const char* names;
  E (*from)(const std::string&);  ///< Throws std::invalid_argument.
  const char* (*name)(E);
  E parse(const std::string& what, const std::string& v) const {
    try {
      return from(v);
    } catch (const std::invalid_argument&) {
      reject(what, names, v);
    }
  }
  std::string render(E v) const { return name(v); }
  std::string type() const { return names; }
};

/// A comma-separated list of `Elem` values; blank items are rejected.
template <typename Elem>
struct List {
  Elem elem;
  std::size_t min_items = 0;
  auto parse(const std::string& what, const std::string& v) const {
    std::vector<decltype(elem.parse(what, v))> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) {
      item = Cli::trim(item);
      if (item.empty()) reject(what, "comma-separated items, none blank", v);
      out.push_back(elem.parse(what, item));
    }
    if (out.size() < min_items) reject(what, "a comma-separated list", v);
    return out;
  }
  template <typename V>
  std::string render(const V& values) const {
    std::string out;
    for (const auto& x : values) {
      if (!out.empty()) out += ",";
      out += elem.render(x);
    }
    return out;
  }
  std::string type() const { return elem.type() + ",..."; }
};

/// A positive token width: `N`, or the fraction `N/D` of a flit per cycle.
struct Fraction {
  std::pair<int, int> parse(const std::string& what,
                            const std::string& v) const {
    const auto slash = v.find('/');
    long num = 0, den = 1;
    const bool ok = slash == std::string::npos
                        ? Cli::parse_long(v, num)
                        : Cli::parse_long(v.substr(0, slash), num) &&
                              Cli::parse_long(v.substr(slash + 1), den);
    constexpr long kMax = std::numeric_limits<int>::max();
    if (!ok || num < 1 || den < 1 || num > kMax || den > kMax)
      reject(what, "a positive width `N` or fraction `N/D`", v);
    return {static_cast<int>(num), static_cast<int>(den)};
  }
  template <typename W>
  std::string render(const W& width) const {
    const auto& [num, den] = width;
    return den == 1 ? std::to_string(num)
                    : std::to_string(num) + "/" + std::to_string(den);
  }
  std::string type() const { return "N|N/D"; }
};

// ---- option rows ----------------------------------------------------------

/// One option of a registry entry, its single declaration: the key, its
/// help line, and the codec between the text and the member of the entry's
/// options struct `S` that stores it. read_options() applies a key map
/// through an entry's rows; option_docs() documents them.
template <typename S>
struct Option {
  std::string key;
  std::string type;  ///< The codec's type().
  std::string help;
  /// Documented default when it is not the struct's (e.g. "(trace.seed)");
  /// nullptr renders the default struct's value.
  const char* def = nullptr;
  std::function<void(S&, const std::string& what, const std::string& value)>
      set;
  std::function<std::string(const S&)> render;
};

/// The row storing `key` in `member` (of S or of a base of S) via `codec`.
template <typename S, typename B, typename M, typename Codec>
Option<S> option(const char* key, M B::*member, Codec codec, const char* help,
                 const char* def = nullptr) {
  static_assert(std::is_base_of_v<B, S>);
  return {key, codec.type(), help, def,
          [member, codec](S& s, const std::string& what,
                          const std::string& value) {
            s.*member = codec.parse(what, value);
          },
          [member, codec](const S& s) { return codec.render(s.*member); }};
}

/// `s` with every key of `kv` applied through its row. A key no row
/// declares throws std::invalid_argument naming `context` — or, when
/// `rest` is given, is moved there for another reader.
template <typename S>
S read_options(const std::vector<Option<S>>& rows, S s, const KvMap& kv,
               const std::string& context, KvMap* rest = nullptr) {
  for (const auto& [key, value] : kv) {
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&](const Option<S>& r) {
                                    return r.key == key;
                                  });
    if (row != rows.end())
      row->set(s, context + ": option '" + key + "'", value);
    else if (rest)
      (*rest)[key] = value;
    else
      throw std::invalid_argument(context + ": unknown option '" + key +
                                  "'");
  }
  return s;
}

/// The rows' docs, each default rendered from `defaults`.
template <typename S>
std::vector<OptionDoc> option_docs(const std::vector<Option<S>>& rows,
                                   const S& defaults = {}) {
  std::vector<OptionDoc> out;
  out.reserve(rows.size());
  for (const Option<S>& r : rows)
    out.push_back({r.key, r.type, r.def ? r.def : r.render(defaults), r.help});
  return out;
}

}  // namespace sldf::core
