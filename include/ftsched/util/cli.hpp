// Minimal command-line option parser for benches and examples.
//
// Supported syntax: `--name value`, `--name=value`, and boolean `--flag`.
// Unknown options raise InvalidArgument so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ftsched {

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Declares an option with a default value (all values parsed as strings).
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declares a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv; throws InvalidArgument on unknown/malformed options.
  /// Returns false if `--help` was requested (help text printed to stdout).
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// The whole value as a signed integer ("8x" and "" are errors).
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// The whole value as an unsigned integer of at most `max` — for counts
  /// and ports; a sign or a larger value is an error naming the option.
  [[nodiscard]] std::uint64_t get_count(
      const std::string& name, std::uint64_t max = UINT64_MAX) const;
  /// The whole value as a double, parsed independently of the C locale;
  /// trailing characters are an error naming the option.
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  [[nodiscard]] std::string help() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };
  std::string description_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
};

/// Reads an environment variable as integer, or `fallback` when unset/bad.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

}  // namespace ftsched
