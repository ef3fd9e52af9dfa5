#include "analysis/batch.h"

#include <limits>
#include <optional>

#include "analysis/cache.h"
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

  // One cone cache for the whole run: trees of one model share large
  // cones, so each is analysed once no matter how many items contain it.
  std::optional<ConeCache> batch_cones;
  ConeCache* cones = options.analysis.cut_sets.cone_cache;
  if (cones == nullptr && options.analyse && options.share_cones) {
    batch_cones.emplace(cone_keyspace(options.analysis.cut_sets));
    cones = &*batch_cones;
  }

  const bool degraded = options.synthesis.sink != nullptr;
  parallel_for(pool, result.items.size(), [&](std::size_t index) {
    BatchItem& item = result.items[index];
    // Uncapped private sink: the shared cap is applied at merge time, so
    // a capped shared sink still ends up with exactly the serial content.
    DiagnosticSink local(std::numeric_limits<std::size_t>::max());
    SynthesisOptions synthesis = options.synthesis;
    if (degraded) synthesis.sink = &local;
    AnalysisOptions analysis = options.analysis;
    analysis.cut_sets.cone_cache = cones;
    try {
      Synthesiser synthesiser(model, synthesis);
      item.tree.emplace(synthesiser.synthesise(item.top));
      if (options.analyse)
        item.analysis.emplace(analyse_tree(*item.tree, analysis));
    } catch (...) {
      item.error = std::current_exception();
    }
    item.diagnostics = local.diagnostics();
  });
  if (cones != nullptr) result.cache_stats = cones->stats();
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

  std::optional<ConeCache> batch_cones;
  ConeCache* cones = options.analysis.cut_sets.cone_cache;
  if (cones == nullptr && options.share_cones) {
    batch_cones.emplace(cone_keyspace(options.analysis.cut_sets));
    cones = &*batch_cones;
  }

  parallel_for(pool, result.items.size(), [&](std::size_t index) {
    BatchItem& item = result.items[index];
    AnalysisOptions analysis = options.analysis;
    analysis.cut_sets.cone_cache = cones;
    try {
      item.analysis.emplace(analyse_tree(*item.tree, analysis));
    } catch (...) {
      item.error = std::current_exception();
    }
  });
  if (cones != nullptr) result.cache_stats = cones->stats();
  return result;
}

void merge_diagnostics(const BatchResult& result, DiagnosticSink& sink) {
  for (const BatchItem& item : result.items) {
    for (const Diagnostic& diagnostic : item.diagnostics)
      sink.report(diagnostic);
  }
}

}  // namespace ftsynth
