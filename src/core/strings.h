// Small string utilities shared across ftsynth modules. Everything operates
// on std::string_view where possible and allocates only where a new string is
// genuinely produced.

#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ftsynth {

/// Removes ASCII whitespace from both ends.
std::string_view trim(std::string_view text) noexcept;

/// Splits `text` on `separator`, trimming each piece; empty pieces are kept.
std::vector<std::string> split(std::string_view text, char separator);

/// Joins `parts` with `separator` ("a", "b" -> "a<sep>b").
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// The concatenation of `parts`, allocated once at its final size.
std::string concat(std::span<const std::string_view> parts);
inline std::string concat(std::initializer_list<std::string_view> parts) {
  return concat(std::span(parts.begin(), parts.size()));
}

/// True if `text` equals `other` ignoring ASCII case.
bool iequals(std::string_view text, std::string_view other) noexcept;

/// Lower-cases ASCII characters.
std::string to_lower(std::string_view text);

/// Escapes ", \ and control characters for embedding in quoted strings
/// (used by the .mdl writer and the JSON/XML exporters).
std::string escape_quoted(std::string_view text);

/// Escapes &, <, >, " for XML attribute/text content.
std::string escape_xml(std::string_view text);

/// Formats a double compactly ("1e-06", "0.25") for reports and exporters;
/// round-trips through strtod.
std::string format_double(double value);

/// True when `name` is a valid ftsynth identifier:
/// [A-Za-z_][A-Za-z0-9_]*  (block, port, malfunction names).
bool is_identifier(std::string_view name) noexcept;

}  // namespace ftsynth
