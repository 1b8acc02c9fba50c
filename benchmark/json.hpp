// Minimal JSON support for the benchmark: a value type with a strict
// parser (to read run records and BENCHMARK.json for --compare) and the two
// formatting helpers the record writer needs. The simulator itself has no
// JSON dependency, so this stays inside the benchmark package.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace sldf::benchmark {

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;                            ///< Array elements.
  std::vector<std::pair<std::string, Json>> members;  ///< Object, in order.

  /// Member `key` of an object; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Member `key`; throws std::runtime_error naming the key when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// The number; throws std::runtime_error when this is not a number.
  [[nodiscard]] double as_number() const;
};

/// Parses one JSON document (trailing whitespace only). Throws
/// std::runtime_error with the byte offset on malformed input.
Json parse_json(const std::string& text);
/// Reads and parses the file at `path`; throws std::runtime_error when it
/// cannot be read or parsed.
Json load_json(const std::string& path);

/// `s` as a quoted JSON string literal.
std::string json_quote(const std::string& s);
/// `v` with every significant digit (%.17g); non-finite values as null.
std::string json_number(double v);

}  // namespace sldf::benchmark
