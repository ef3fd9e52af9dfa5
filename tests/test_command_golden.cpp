// Golden byte-identity corpus for the command surface.
//
// Every command runs through the CLI driver over a fixed model corpus:
// the committed examples/*.mdl (bound_frontier.mdl excepted -- it is the
// bound engine's workload, covered by test_bound), the BBW and fuel case
// studies written out as .mdl files, and every Open-PSA document in
// tests/openpsa/. The analysing commands run under both the micsup and
// the zbdd engine, and `analyse` once more with --verbose. The exit code,
// stdout and log of each case fold into one FNV-1a digest per line of
// tests/golden/command_digests.txt, so any change to what either model
// front-end prints -- results, diagnostics, exit codes or the --verbose
// stat blocks -- shows up as a named case.
//
// On a mismatch the computed corpus is written to
// command_digests.actual.txt in the test's working directory; copy it over
// the committed file only when an output change is intended.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "casestudy/fuel.h"
#include "casestudy/setta.h"
#include "mdl/writer.h"
#include "tools/cli.h"

namespace ftsynth {
namespace {

struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;
  void feed(std::string_view bytes) {
    for (unsigned char c : bytes) {
      state ^= c;
      state *= 1099511628211ull;
    }
    state ^= 0xff;  // field separator
    state *= 1099511628211ull;
  }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(state));
    return out;
  }
};

struct CorpusModel {
  std::string name;
  std::string path;
  bool openpsa = false;
};

/// Replaces every occurrence of `path` with `name`, so digests do not
/// depend on where the checkout or the temporary directory lives.
std::string anonymise(std::string text, const std::string& path,
                      const std::string& name) {
  for (std::size_t at = text.find(path); at != std::string::npos;
       at = text.find(path, at + name.size())) {
    text.replace(at, path.size(), name);
  }
  return text;
}

std::vector<CorpusModel> corpus() {
  std::vector<CorpusModel> models;
  for (const char* file : {"adversarial_product.mdl",
                           "adversarial_product_small.mdl",
                           "adversarial_voters.mdl", "duplex.mdl"}) {
    models.push_back(
        {file, std::string(FTSYNTH_EXAMPLES_DIR) + "/" + file, false});
  }
  const std::string dir = testing::TempDir();
  models.push_back({"bbw.mdl", dir + "/command_golden_bbw.mdl", false});
  write_mdl_file(setta::build_bbw(), models.back().path);
  models.push_back({"fuel.mdl", dir + "/command_golden_fuel.mdl", false});
  write_mdl_file(fuel::build_fuel_system(), models.back().path);
  std::vector<std::string> documents;
  for (const auto& entry :
       std::filesystem::directory_iterator(FTSYNTH_OPENPSA_CORPUS_DIR)) {
    if (entry.path().extension() == ".xml")
      documents.push_back(entry.path().filename().string());
  }
  std::sort(documents.begin(), documents.end());
  for (const std::string& file : documents) {
    models.push_back(
        {file, std::string(FTSYNTH_OPENPSA_CORPUS_DIR) + "/" + file, true});
  }
  return models;
}

/// The argument lists run against one model (the model path is argv[1];
/// `{}` stands for it). Runs fan out over two workers -- output is
/// byte-identical for every --jobs -- except --verbose, which is pinned
/// serially.
std::vector<std::vector<std::string>> commands(const CorpusModel& model) {
  std::vector<std::vector<std::string>> runs = {
      {"info"},
      {"validate"},
      {"synthesise", "--format", "text"},
      {"synthesise", "--format", "xml"},
      {"synthesise", "--format", "openpsa"},
      {"sensitivity"},
  };
  for (const char* engine : {"micsup", "zbdd"}) {
    for (const char* command : {"analyse", "report", "fmea"})
      runs.push_back({command, "--engine", engine});
    runs.push_back({"analyse", "--engine", engine, "--verbose"});
  }
  if (model.openpsa) {
    runs.push_back({"audit"});
    runs.push_back({"diff", "--against", "{}"});
  }
  return runs;
}

std::string corpus_digests() {
  std::string lines;
  for (const CorpusModel& model : corpus()) {
    for (const std::vector<std::string>& run : commands(model)) {
      std::vector<std::string> args = {run.front(), model.path};
      std::string label = model.name + " " + run.front();
      for (std::size_t i = 1; i < run.size(); ++i) {
        args.push_back(run[i] == "{}" ? model.path : run[i]);
        label += " " + (run[i] == "{}" ? model.name : run[i]);
      }
      const bool verbose = run.back() == "--verbose";
      args.push_back("--jobs");
      args.push_back(verbose ? "1" : "2");
      std::ostringstream out;
      std::ostringstream err;
      const int rc = cli::run(args, out, err);
      Fnv1a hash;
      hash.feed(std::to_string(rc));
      hash.feed(anonymise(out.str(), model.path, model.name));
      hash.feed(anonymise(err.str(), model.path, model.name));
      lines += label + " " + hash.hex() + "\n";
    }
  }
  return lines;
}

TEST(CommandGolden, EveryCommandIsByteIdentical) {
  const std::string actual = corpus_digests();
  std::ifstream file(std::string(FTSYNTH_GOLDEN_DIR) + "/command_digests.txt");
  ASSERT_TRUE(file.good()) << "missing tests/golden/command_digests.txt";
  std::ostringstream expected;
  expected << file.rdbuf();
  if (actual == expected.str()) return;
  std::ofstream("command_digests.actual.txt") << actual;
  std::istringstream got(actual);
  std::istringstream want(expected.str());
  std::string got_line;
  std::string want_line;
  while (std::getline(want, want_line)) {
    if (!std::getline(got, got_line)) got_line.clear();
    EXPECT_EQ(got_line, want_line)
        << "(full corpus written to command_digests.actual.txt)";
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "extra case: " << got_line;
}

}  // namespace
}  // namespace ftsynth
