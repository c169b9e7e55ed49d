#include "util/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace stgcheck {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) tokens.emplace_back(text.substr(start, i - start));
  }
  return tokens;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool names_equal_dashed(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] == '-' ? '_' : a[i];
    const char cb = b[i] == '-' ? '_' : b[i];
    if (ca != cb) return false;
  }
  return true;
}

std::string with_commas(unsigned long long value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

std::string format_count(double value) {
  if (!std::isfinite(value)) return "inf";
  if (value < 1e15) {
    return with_commas(static_cast<unsigned long long>(std::llround(value)));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", value);
  return buf;
}

}  // namespace stgcheck
