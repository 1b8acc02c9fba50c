// Tiny command-line flag parser shared by the bench/example binaries.
// Supports `--flag`, `--key=value`, and `--key value` forms. Numeric
// getters reject malformed values with std::invalid_argument instead of
// silently truncating (bare strtol/strtod would accept "12abc" as 12).
// Repeated keys keep the last value but warn once per key on stderr (a
// silent last-wins hid typos like `--seed=1 ... --seed=2`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sldf {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def = "") const;
  /// Throw std::invalid_argument (naming the flag) on unparseable values.
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }
  /// All parsed --key[=value] entries, in sorted key order.
  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return kv_;
  }
  /// Keys present on the command line but absent from `known` (for
  /// unknown-flag warnings in drivers).
  [[nodiscard]] std::vector<std::string> unknown_keys(
      const std::vector<std::string>& known) const;
  /// Keys that appeared more than once (each was warned about once on
  /// stderr at parse time; the last value wins), in first-duplicate order.
  [[nodiscard]] const std::vector<std::string>& duplicate_keys() const {
    return duplicates_;
  }

  /// Strict whole-string numeric parses (leading/trailing spaces allowed,
  /// trailing garbage rejected). Return false on failure.
  static bool parse_long(const std::string& s, long& out);
  /// Digits only, over the full unsigned 64-bit range (no sign: strtoull
  /// would wrap `-1` to 2^64 - 1).
  static bool parse_u64(const std::string& s, std::uint64_t& out);
  static bool parse_double(const std::string& s, double& out);
  static bool parse_bool(const std::string& s, bool& out);
  /// Copy of `s` with leading/trailing whitespace removed.
  static std::string trim(const std::string& s);

 private:
  void set_kv(const std::string& key, std::string value);

  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  std::vector<std::string> duplicates_;
};

}  // namespace sldf
