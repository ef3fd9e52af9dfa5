#include "core/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace ftsynth {

namespace {

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

}  // namespace

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(trim(text.substr(start)));
      break;
    }
    parts.emplace_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::string concat(std::span<const std::string_view> parts) {
  std::size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out += part;
  return out;
}

bool iequals(std::string_view text, std::string_view other) noexcept {
  if (text.size() != other.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) !=
        std::tolower(static_cast<unsigned char>(other[i])))
      return false;
  }
  return true;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string escape_quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string escape_xml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string format_double(double value) {
  // Shortest %g form that still round-trips through strtod.
  char buffer[64];
  for (int precision = 12; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

bool is_identifier(std::string_view name) noexcept {
  if (name.empty()) return false;
  auto head = static_cast<unsigned char>(name.front());
  if (!std::isalpha(head) && name.front() != '_') return false;
  for (char c : name.substr(1)) {
    auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '_') return false;
  }
  return true;
}

}  // namespace ftsynth
