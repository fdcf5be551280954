#include "ftsched/util/spec.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace ftsched {

namespace spec_detail {

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::uint64_t v = 0;
  bool ok = !value.empty() && value[0] != '-';
  if (ok) {
    try {
      std::size_t pos = 0;
      v = std::stoull(value, &pos);
      ok = pos == value.size();
    } catch (const std::logic_error&) {
      ok = false;
    }
  }
  if (!ok) {
    throw InvalidArgument("option '" + key +
                          "': expected a non-negative integer, got '" + value +
                          "'");
  }
  return v;
}

double parse_double(const std::string& key, const std::string& value) {
  // std::from_chars, not std::stod: stod honors the global C locale, so
  // under e.g. de_DE.UTF-8 (radix ',') a spec like "frac:f=0.5" would stop
  // parsing at the '.' and be rejected — spec strings must mean the same
  // thing on every machine of a sharded sweep.
  double v = 0.0;
  const char* first = value.data();
  const char* last = first + value.size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  bool ok = first != last;
  if (ok) {
    const auto result = std::from_chars(first, last, v);
    ok = result.ec == std::errc{} && result.ptr == last;
  }
  if (!ok) {
    throw InvalidArgument("option '" + key + "': expected a number, got '" +
                          value + "'");
  }
  return v;
}

std::string render_double(double value) {
  // std::to_chars, not ostringstream: the stream would render the radix of
  // an imbued locale ("0,5"), breaking to_string/parse round trips of
  // canonical specs.  to_chars also emits the *shortest* form that parses
  // back bit-identically.
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  // 32 bytes always fit the shortest round-trip form of a double.
  return std::string(buffer, result.ptr);
}

}  // namespace spec_detail

void split_spec_string(const std::string& spec, std::string& name,
                       std::string& option_text) {
  const auto colon = spec.find(':');
  name = spec.substr(0, colon);
  option_text =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
}

SpecOptions SpecOptions::parse(const std::string& text) {
  SpecOptions options;
  if (text.empty()) return options;
  if (text.back() == ',') {
    // getline would silently drop the empty trailing segment.
    throw InvalidArgument("malformed options '" + text + "' (trailing comma)");
  }
  std::istringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) {
      throw InvalidArgument("malformed options '" + text + "' (empty option)");
    }
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw InvalidArgument("malformed option '" + item +
                            "' (expected key=value)");
    }
    const std::string key = item.substr(0, eq);
    if (options.values_.find(key) != options.values_.end()) {
      throw InvalidArgument("duplicate option '" + key + "'");
    }
    options.values_[key] = item.substr(eq + 1);
  }
  return options;
}

bool SpecOptions::has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

void SpecOptions::set_default(const std::string& key,
                              const std::string& value) {
  values_.emplace(key, value);
}

void SpecOptions::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

const std::string& SpecOptions::get(const std::string& key) const {
  const auto it = values_.find(key);
  FTSCHED_REQUIRE(it != values_.end(), "missing option '" + key + "'");
  return it->second;
}

std::string SpecOptions::get(const std::string& key,
                             const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::size_t SpecOptions::get_size(const std::string& key,
                                  std::size_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return static_cast<std::size_t>(spec_detail::parse_u64(key, it->second));
}

std::uint64_t SpecOptions::get_u64(const std::string& key,
                                   std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return spec_detail::parse_u64(key, it->second);
}

double SpecOptions::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return spec_detail::parse_double(key, it->second);
}

bool SpecOptions::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false") return false;
  throw InvalidArgument("option '" + key + "': expected 0|1|false|true, got '" +
                        v + "'");
}

std::vector<std::string> SpecOptions::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::string SpecOptions::to_string() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const auto& [key, value] : values_) parts.push_back(key + "=" + value);
  return spec_detail::join(parts, ",");
}

}  // namespace ftsched
