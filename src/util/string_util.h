#ifndef SHOAL_UTIL_STRING_UTIL_H_
#define SHOAL_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace shoal::util {

// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> Split(std::string_view text, char delim);

// Splits on runs of ASCII whitespace; no empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

// ASCII lower-casing.
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Parses all of `text` as a base-10 unsigned integer: one or more ASCII
// digits and nothing else (no sign, whitespace or trailing bytes), and no
// value above T's maximum. Returns false, with *value untouched,
// otherwise.
template <typename T>
bool ParseUnsigned(std::string_view text, T* value) {
  static_assert(std::is_unsigned_v<T>);
  const char* end = text.data() + text.size();
  T parsed = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  *value = parsed;
  return true;
}

// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Renders a double with `digits` significant decimal places, no trailing
// noise ("0.3", "1.25").
std::string FormatDouble(double value, int digits = 4);

// "1234567" -> "1,234,567" (for human-readable bench output).
std::string FormatWithCommas(uint64_t value);

}  // namespace shoal::util

#endif  // SHOAL_UTIL_STRING_UTIL_H_
