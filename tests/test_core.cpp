// Unit tests for the core utilities: strings, symbols, text tables, errors.

#include <gtest/gtest.h>

#include <thread>

#include "core/error.h"
#include "core/strings.h"
#include "core/symbol.h"
#include "core/text_table.h"

namespace ftsynth {
namespace {

// -- strings --------------------------------------------------------------------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("a"), "a");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, SplitKeepsEmptyPiecesAndTrims) {
  EXPECT_EQ(split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(Strings, JoinIsInverseOfSplitForCleanInput) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ", "), "one");
}

TEST(Strings, CaseInsensitiveEquality) {
  EXPECT_TRUE(iequals("AND", "and"));
  EXPECT_TRUE(iequals("Or", "oR"));
  EXPECT_FALSE(iequals("AND", "AN"));
  EXPECT_FALSE(iequals("AND", "ANT"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, EscapeQuoted) {
  EXPECT_EQ(escape_quoted("plain"), "plain");
  EXPECT_EQ(escape_quoted("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_quoted("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_quoted("a\nb\tc"), "a\\nb\\tc");
}

TEST(Strings, EscapeXml) {
  EXPECT_EQ(escape_xml("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
}

TEST(Strings, FormatDoubleRoundTrips) {
  for (double value : {1e-7, 0.25, 3.0, 6.4999e-6, 1.0 / 3.0}) {
    EXPECT_DOUBLE_EQ(std::stod(format_double(value)), value);
  }
}

TEST(Strings, IdentifierValidation) {
  EXPECT_TRUE(is_identifier("abc"));
  EXPECT_TRUE(is_identifier("_a1"));
  EXPECT_TRUE(is_identifier("A_b_2"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_FALSE(is_identifier("a b"));
}

// -- symbol ---------------------------------------------------------------------

TEST(Symbol, InterningGivesPointerEquality) {
  Symbol a("hello");
  Symbol b(std::string("hel") + "lo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.view().data(), b.view().data());  // same interned storage
}

TEST(Symbol, DistinctStringsDiffer) {
  EXPECT_NE(Symbol("a"), Symbol("b"));
  EXPECT_NE(Symbol("a"), Symbol("A"));
}

TEST(Symbol, NullSymbolIsEmpty) {
  Symbol none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.view(), "");
  EXPECT_NE(none, Symbol(""));  // interned empty string is a distinct value
  EXPECT_TRUE(Symbol("").empty());
}

TEST(Symbol, OrdersByContentNotPointer) {
  EXPECT_LT(Symbol("abc"), Symbol("abd"));
  EXPECT_LT(Symbol("ab"), Symbol("abc"));
}

TEST(Symbol, HashMatchesEquality) {
  EXPECT_EQ(Symbol("x").hash(), Symbol("x").hash());
  std::hash<Symbol> hasher;
  EXPECT_EQ(hasher(Symbol("y")), Symbol("y").hash());
}

TEST(Symbol, ConcurrentInterningIsSafe) {
  std::vector<std::thread> threads;
  std::vector<Symbol> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&results, i] {
      for (int j = 0; j < 1000; ++j)
        results[static_cast<std::size_t>(i)] =
            Symbol("shared_" + std::to_string(j % 10));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], results[0]);
  }
}

// -- text table -----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"A", "Name"});
  table.add_row({"1", "x"});
  table.add_row({"22", "longer"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| A  | Name   |"), std::string::npos);
  EXPECT_NE(out.find("| 22 | longer |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, RejectsMismatchedRows) {
  TextTable table({"A", "B"});
  EXPECT_THROW(table.add_row({"only one"}), Error);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), Error);
}

// -- error ----------------------------------------------------------------------

TEST(ErrorTest, CarriesKindAndMessage) {
  Error error(ErrorKind::kModel, "bad wiring");
  EXPECT_EQ(error.kind(), ErrorKind::kModel);
  EXPECT_NE(std::string(error.what()).find("bad wiring"), std::string::npos);
  EXPECT_NE(std::string(error.what()).find("model"), std::string::npos);
}

TEST(ErrorTest, ParseErrorCarriesLocation) {
  ParseError error("oops", 3, 14);
  EXPECT_EQ(error.kind(), ErrorKind::kParse);
  EXPECT_EQ(error.line(), 3);
  EXPECT_EQ(error.column(), 14);
  EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos);
}

TEST(ErrorTest, RequireThrowsOnlyWhenFalse) {
  EXPECT_NO_THROW(require(true, ErrorKind::kLookup, "unused"));
  EXPECT_THROW(require(false, ErrorKind::kLookup, "missing"), Error);
  try {
    require(false, ErrorKind::kAnalysis, "x");
  } catch (const Error& error) {
    EXPECT_EQ(error.kind(), ErrorKind::kAnalysis);
  }
}

TEST(Core, RequireAndCheckInternalKeepKindAndMessage) {
  auto thrown = [](auto&& action) -> std::pair<ErrorKind, std::string> {
    try {
      action();
    } catch (const Error& error) {
      return {error.kind(), error.what()};
    }
    ADD_FAILURE() << "no Error thrown";
    return {ErrorKind::kInternal, ""};
  };
  const std::string name = "pedal";
  using Thrown = std::pair<ErrorKind, std::string>;

  // A literal message.
  EXPECT_EQ(thrown([] { require(false, ErrorKind::kLookup, "no such port"); }),
            (Thrown{ErrorKind::kLookup, "[lookup] no such port"}));
  EXPECT_EQ(thrown([] { check_internal(false, "BDD variable out of range"); }),
            (Thrown{ErrorKind::kInternal,
                    "[internal] BDD variable out of range"}));
  // A std::string temporary.
  EXPECT_EQ(thrown([&] {
              require(false, ErrorKind::kModel,
                      "duplicate port '" + name + "'");
            }),
            (Thrown{ErrorKind::kModel, "[model] duplicate port 'pedal'"}));
  EXPECT_EQ(thrown([&] { check_internal(false, "missing " + name); }),
            (Thrown{ErrorKind::kInternal, "[internal] missing pedal"}));
  // The explicit form hot call sites use.
  EXPECT_EQ(thrown([&] {
              fail(ErrorKind::kAnalysis, "component '" + name + "' failed");
            }),
            (Thrown{ErrorKind::kAnalysis,
                    "[analysis] component 'pedal' failed"}));
  EXPECT_EQ(thrown([] { fail(ErrorKind::kParse, std::string_view("bad")); }),
            (Thrown{ErrorKind::kParse, "[parse] bad"}));
  // A passing check evaluates nothing but its condition.
  EXPECT_NO_THROW(require(true, ErrorKind::kLookup, "unused " + name));
  EXPECT_NO_THROW(check_internal(true, "unused"));
}

}  // namespace
}  // namespace ftsynth
