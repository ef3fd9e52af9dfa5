// Error handling for ftsynth.
//
// Following the C++ Core Guidelines (I.10, E.2) the library signals failure
// to perform a required task with exceptions. All ftsynth exceptions derive
// from ftsynth::Error, which carries an error category so callers can
// distinguish user-input problems (bad model file, malformed expression)
// from internal invariant violations.

#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ftsynth {

/// Broad classification of an Error, so tools wrapping the library can map
/// failures onto exit codes / diagnostics without string matching.
enum class ErrorKind {
  /// Malformed input: model file syntax, expression syntax, bad parameters.
  kParse,
  /// Structurally invalid model: dangling connection, duplicate name,
  /// type mismatch between connected ports.
  kModel,
  /// A requested entity does not exist (port, block, failure class, ...).
  kLookup,
  /// The synthesis or analysis hit an unsupported or inconsistent situation.
  kAnalysis,
  /// Internal invariant violation -- a bug in ftsynth itself.
  kInternal,
};

/// Human-readable name of an ErrorKind ("parse", "model", ...).
std::string_view to_string(ErrorKind kind) noexcept;

/// Base exception for all ftsynth failures.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message);

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// Thrown by the .mdl and expression parsers; carries a source location.
class ParseError : public Error {
 public:
  ParseError(const std::string& message, int line, int column);

  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Throws Error{kind} with `message`. Out of line, so the checks below
/// inline to a compare and a branch; a call site whose message is a
/// concatenation writes `if (!condition) fail(kind, a + b)` so the message
/// is built only on failure.
[[noreturn]] void fail(ErrorKind kind, std::string_view message);

/// Throws Error{kind} with `message` unless `condition` holds. Taking a
/// view, a literal message costs nothing on the passing path.
inline void require(bool condition, ErrorKind kind, std::string_view message) {
  if (!condition) [[unlikely]] fail(kind, message);
}

/// require() specialised for internal invariants (ErrorKind::kInternal).
inline void check_internal(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] fail(ErrorKind::kInternal, message);
}

}  // namespace ftsynth
