#include "obs/log.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

namespace laec::obs {
namespace {

LogLevel threshold_from_env() {
  const char* env = std::getenv("LAEC_LOG");
  if (env != nullptr) {
    if (auto lvl = log_level_from_string(env)) return *lvl;
  }
  return LogLevel::kInfo;
}

std::atomic<int>& threshold_slot() {
  static std::atomic<int> slot{static_cast<int>(threshold_from_env())};
  return slot;
}

}  // namespace

std::optional<LogLevel> log_level_from_string(std::string_view s) {
  if (s == "debug") return LogLevel::kDebug;
  if (s == "info") return LogLevel::kInfo;
  if (s == "warn") return LogLevel::kWarn;
  if (s == "error") return LogLevel::kError;
  if (s == "off") return LogLevel::kOff;
  return std::nullopt;
}

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

LogLevel log_threshold() {
  return static_cast<LogLevel>(
      threshold_slot().load(std::memory_order_relaxed));
}

void set_log_threshold(LogLevel level) {
  threshold_slot().store(static_cast<int>(level), std::memory_order_relaxed);
}

void log(LogLevel level, std::string_view component, std::string_view msg) {
  if (!log_enabled(level) || level == LogLevel::kOff) return;

  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);

  char stamp[80];
  std::snprintf(stamp, sizeof(stamp), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));

  std::string line;
  line.reserve(48 + component.size() + msg.size());
  line += stamp;
  line += ' ';
  line += log_level_name(level);
  line.append(6 - log_level_name(level).size(), ' ');  // pad to column
  line.append(component.data(), component.size());
  line += ": ";
  line.append(msg.data(), msg.size());
  line += '\n';
  // One write() so concurrent writers interleave per line, not per
  // character (stdio buffering would not guarantee that on stderr).
  (void)!::write(STDERR_FILENO, line.data(), line.size());
}

}  // namespace laec::obs
