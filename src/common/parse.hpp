// Strict text-to-number parsers for the command-line front ends (laec_cli
// and the bench drivers): the whole string must be the number, so
// "0.7junk", a signed "-1" for an unsigned flag or "1e3" for a count is an
// error, never a silently different value.
#pragma once

#include <charconv>
#include <exception>
#include <optional>
#include <string>

namespace laec {

/// Parse a double consuming the WHOLE string. nullopt on any failure.
[[nodiscard]] inline std::optional<double> parse_double_strict(
    const std::string& s) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Parse an unsigned T: the whole string must be decimal digits (no sign,
/// no "1e3", no whitespace) and the value must fit T. nullopt on any
/// failure.
template <typename T>
[[nodiscard]] std::optional<T> parse_uint_strict(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace laec
