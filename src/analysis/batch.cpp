#include "analysis/batch.h"

#include <limits>

#include "core/parallel.h"
#include "core/thread_pool.h"

namespace ftsynth {

BatchResult analyse_batch(const Model& model,
                          const std::vector<Deviation>& tops,
                          const BatchOptions& options, ThreadPool* pool) {
  BatchResult result;
  result.items.reserve(tops.size());
  for (const Deviation& top : tops) {
    BatchItem item;
    item.top = top;
    result.items.push_back(std::move(item));
  }

  const bool degraded = options.synthesis.sink != nullptr;
  parallel_for(pool, result.items.size(), [&](std::size_t index) {
    BatchItem& item = result.items[index];
    // Uncapped private sink: the shared cap is applied at merge time, so
    // a capped shared sink still ends up with exactly the serial content.
    DiagnosticSink local(std::numeric_limits<std::size_t>::max());
    SynthesisOptions synthesis = options.synthesis;
    if (degraded) synthesis.sink = &local;
    try {
      Synthesiser synthesiser(model, synthesis);
      item.tree.emplace(synthesiser.synthesise(item.top));
      if (options.analyse)
        item.analysis.emplace(analyse_tree(*item.tree, options.analysis));
    } catch (...) {
      item.error = std::current_exception();
    }
    item.diagnostics = local.diagnostics();
  });
  return result;
}

BatchResult analyse_trees(std::vector<FaultTree> trees,
                          const std::vector<std::string>& labels,
                          const BatchOptions& options, ThreadPool* pool) {
  BatchResult result;
  result.items.reserve(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    BatchItem item;
    item.label = i < labels.size() ? labels[i] : trees[i].name();
    item.tree.emplace(std::move(trees[i]));
    result.items.push_back(std::move(item));
  }

  if (!options.analyse) return result;

  parallel_for(pool, result.items.size(), [&](std::size_t index) {
    BatchItem& item = result.items[index];
    try {
      item.analysis.emplace(analyse_tree(*item.tree, options.analysis));
    } catch (...) {
      item.error = std::current_exception();
    }
  });
  return result;
}

void merge_diagnostics(const BatchResult& result, DiagnosticSink& sink) {
  for (const BatchItem& item : result.items) {
    for (const Diagnostic& diagnostic : item.diagnostics)
      sink.report(diagnostic);
  }
}

}  // namespace ftsynth
