// Leveled logging to stderr.
//
// Kept deliberately tiny: the experiment drivers print their results to
// stdout through TextTable; the log is for diagnostics only.
#pragma once

#include <sstream>
#include <string>

namespace ftsched {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// The threshold, kWarn: messages below it are dropped.
[[nodiscard]] LogLevel log_level() noexcept;

namespace detail {
void log_emit(LogLevel level, const std::string& message);
}

}  // namespace ftsched

#define FTSCHED_LOG(level, expr)                                  \
  do {                                                            \
    if (static_cast<int>(level) >=                                \
        static_cast<int>(::ftsched::log_level())) {               \
      std::ostringstream ftsched_log_os;                          \
      ftsched_log_os << expr;                                     \
      ::ftsched::detail::log_emit(level, ftsched_log_os.str());   \
    }                                                             \
  } while (false)

#define FTSCHED_DEBUG(expr) FTSCHED_LOG(::ftsched::LogLevel::kDebug, expr)
#define FTSCHED_INFO(expr) FTSCHED_LOG(::ftsched::LogLevel::kInfo, expr)
#define FTSCHED_WARN(expr) FTSCHED_LOG(::ftsched::LogLevel::kWarn, expr)
#define FTSCHED_ERROR(expr) FTSCHED_LOG(::ftsched::LogLevel::kError, expr)
