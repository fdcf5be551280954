#include "ftsched/util/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "ftsched/util/error.hpp"
#include "ftsched/util/spec.hpp"

namespace ftsched {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  options_[name] = Option{default_value, help, /*is_flag=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{"0", help, /*is_flag=*/true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    FTSCHED_REQUIRE(arg.rfind("--", 0) == 0, "expected --option, got: " + arg);
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    FTSCHED_REQUIRE(it != options_.end(), "unknown option: --" + arg);
    if (it->second.is_flag) {
      FTSCHED_REQUIRE(!has_value, "flag --" + arg + " takes no value");
      values_[arg] = "1";
    } else {
      if (!has_value) {
        FTSCHED_REQUIRE(i + 1 < argc, "option --" + arg + " needs a value");
        value = argv[++i];
      }
      values_[arg] = value;
    }
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  const auto opt = options_.find(name);
  FTSCHED_REQUIRE(opt != options_.end(), "undeclared option: " + name);
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : opt->second.default_value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::int64_t out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || end != v.data() + v.size()) {
    throw InvalidArgument("option --" + name + " is not an integer: " + v);
  }
  return out;
}

std::uint64_t CliParser::get_count(const std::string& name,
                                   std::uint64_t max) const {
  const std::string v = get(name);
  std::uint64_t out = 0;
  // Unsigned from_chars takes no sign, so "-3" fails here rather than
  // wrapping to 2^64 - 3.
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec == std::errc::invalid_argument || end != v.data() + v.size()) {
    throw InvalidArgument("option --" + name +
                          " expects a non-negative integer, got '" + v + "'");
  }
  if (ec == std::errc::result_out_of_range || out > max) {
    throw InvalidArgument("option --" + name + " is out of range: " + v +
                          " (at most " + std::to_string(max) + ")");
  }
  return out;
}

double CliParser::get_double(const std::string& name) const {
  // The whole value, locale-free: "1.0x" is an error, not 1.0.
  return spec_detail::parse_double("--" + name, get(name));
}

bool CliParser::get_flag(const std::string& name) const {
  return get(name) == "1";
}

std::string CliParser::help() const {
  std::ostringstream os;
  os << description_ << "\n\noptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << " <value> (default: " << opt.default_value << ")";
    os << "\n      " << opt.help << '\n';
  }
  return os.str();
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return parsed;
}

}  // namespace ftsched
