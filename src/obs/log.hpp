// Leveled stderr logger for the service-side components (daemon and
// checkpoint writer).
//
// Format (one write() per line, so concurrent processes interleave at line
// granularity):
//
//   2026-08-08T14:03:12.481Z info  laec-serve: listening on /tmp/laec.sock
//
// The threshold comes from the LAEC_LOG environment variable
// (debug|info|warn|error|off; default info), read once on first use;
// set_log_threshold overrides it programmatically (tests, --verbose flags).
#pragma once

#include <optional>
#include <string_view>

namespace laec::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Parse "debug"/"info"/"warn"/"error"/"off" (nullopt on anything else).
[[nodiscard]] std::optional<LogLevel> log_level_from_string(
    std::string_view s);

[[nodiscard]] std::string_view log_level_name(LogLevel level);

/// Current threshold: messages below it are dropped.
[[nodiscard]] LogLevel log_threshold();
void set_log_threshold(LogLevel level);

[[nodiscard]] inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(log_threshold());
}

/// Emit one line to stderr: UTC timestamp, level, component, message.
/// Formatting cost is paid only when the level passes the threshold.
void log(LogLevel level, std::string_view component, std::string_view msg);

inline void log_debug(std::string_view component, std::string_view msg) {
  log(LogLevel::kDebug, component, msg);
}
inline void log_info(std::string_view component, std::string_view msg) {
  log(LogLevel::kInfo, component, msg);
}
inline void log_warn(std::string_view component, std::string_view msg) {
  log(LogLevel::kWarn, component, msg);
}
inline void log_error(std::string_view component, std::string_view msg) {
  log(LogLevel::kError, component, msg);
}

}  // namespace laec::obs
