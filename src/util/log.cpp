#include "ftsched/util/log.hpp"

#include <iostream>

namespace ftsched {

namespace {
const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() noexcept { return LogLevel::kWarn; }

namespace detail {
void log_emit(LogLevel level, const std::string& message) {
  std::cerr << "[ftsched:" << level_name(level) << "] " << message << '\n';
}
}  // namespace detail

}  // namespace ftsched
