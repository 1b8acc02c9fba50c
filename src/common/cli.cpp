#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace sldf {

std::string Cli::trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void Cli::set_kv(const std::string& key, std::string value) {
  const auto it = kv_.find(key);
  if (it == kv_.end()) {
    kv_.emplace(key, std::move(value));
    return;
  }
  // Last value wins, but never silently: warn once per duplicated key.
  if (std::find(duplicates_.begin(), duplicates_.end(), key) ==
      duplicates_.end()) {
    duplicates_.push_back(key);
    std::fprintf(stderr,
                 "%s: warning: flag --%s given more than once "
                 "(last value wins)\n",
                 program_.empty() ? "cli" : program_.c_str(), key.c_str());
  }
  it->second = std::move(value);
}

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set_kv(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      set_kv(arg, argv[++i]);
    } else {
      set_kv(arg, "");
    }
  }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

double Cli::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return def;
  double v = 0.0;
  if (!parse_double(it->second, v))
    throw std::invalid_argument("--" + key + ": expected a number, got '" +
                                it->second + "'");
  return v;
}

long Cli::get_int(const std::string& key, long def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return def;
  long v = 0;
  if (!parse_long(it->second, v))
    throw std::invalid_argument("--" + key + ": expected an integer, got '" +
                                it->second + "'");
  return v;
}

std::vector<std::string> Cli::unknown_keys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : kv_) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end())
      unknown.push_back(key);
  }
  return unknown;
}

bool Cli::parse_long(const std::string& s, long& out) {
  const std::string t = trim(s);
  if (t.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(t.c_str(), &end, 10);
  if (errno != 0 || end != t.c_str() + t.size()) return false;
  out = v;
  return true;
}

bool Cli::parse_u64(const std::string& s, std::uint64_t& out) {
  const std::string t = trim(s);
  if (t.empty() || !std::isdigit(static_cast<unsigned char>(t[0])))
    return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  if (errno != 0 || end != t.c_str() + t.size()) return false;
  out = v;
  return true;
}

bool Cli::parse_double(const std::string& s, double& out) {
  const std::string t = trim(s);
  if (t.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(t.c_str(), &end);
  if (errno != 0 || end != t.c_str() + t.size()) return false;
  out = v;
  return true;
}

bool Cli::parse_bool(const std::string& s, bool& out) {
  const std::string t = trim(s);
  if (t == "1" || t == "true" || t == "yes" || t == "on") {
    out = true;
    return true;
  }
  if (t == "0" || t == "false" || t == "no" || t == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace sldf
