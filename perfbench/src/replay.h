// The traced replay: runs one batch through the same layers the facade
// (OptimizeAndExecuteBatch / MqoSession::Run) chains, calling each layer's
// public entry point in the facade's order, with a span around every call:
//
//   batch
//   ├─ parser.parse          ParseQuery per statement
//   ├─ stats.analyze         TableStatsRegistry::Get per table read (the
//   │                        first touch analyzes)
//   ├─ lqdag.insert          Memo::InsertBatch
//   ├─ lqdag.expand          ExpandMemo
//   ├─ optimizer.setup       BatchOptimizer + MaterializationProblem
//   ├─ mqo.greedy            RunMarginalGreedy
//   ├─ optimizer.plan_render BatchOptimizer::Plan + PlanToString
//   └─ vexec.execute         ExecuteConsolidatedResult
//
// Spans live in memory (SpanLog) and are written once, as Chrome trace JSON,
// when the run ends. The replay keeps its own statistics registry, feedback
// map and segment cache, so it reaches its answers independently of the
// facade run it is compared against.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mqo/facade.h"
#include "workloads.h"

namespace perfbench {

/// Spans recorded around layer calls: name, start, end, parent, batch id.
class SpanLog {
 public:
  int Begin(const char* name, int parent, uint64_t batch);
  void End(int id);
  double DurationMs(int id) const;
  /// Writes every span as a Chrome trace_event "X" event.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t batch;
  };
  std::vector<Span> spans_;
};

/// What one replayed batch did, per layer. Times are span self times in ms
/// (every layer span is a leaf, so self time = duration).
struct LayerSample {
  double parse_ms = 0, analyze_ms = 0, insert_ms = 0, expand_ms = 0;
  double setup_ms = 0, greedy_ms = 0, render_ms = 0, execute_ms = 0;
  double segment_compute_ms = 0;  ///< Part of execute_ms (executor-reported).
  double layers_ms = 0;           ///< Sum of the layer spans.
  double overhead_ms = 0;         ///< Batch span self time: tracing + glue.
  double classes = 0, ops = 0, shareable = 0, materialized = 0;
  double function_evals = 0;
  double plan_searches = 0, costings = 0;
  double rows_out = 0;
  mqo::MatStoreStats store;       ///< The run's own segment store.
};

struct ReplayOutcome {
  mqo::MqoResult mqo;
  std::vector<mqo::NamedRows> results;
  LayerSample sample;
};

class Replay {
 public:
  Replay(const Workload* workload, const mqo::MqoOptions& options,
         SpanLog* log);

  /// Starts a round: a session workload gets a fresh statistics registry,
  /// feedback map and segment cache, as a fresh MqoSession would; the other
  /// workloads keep one registry for the whole run, as the facade run does.
  void StartRound();
  /// Mirrors MqoSession::InvalidateTable.
  void InvalidateTable(const std::string& table);

  mqo::Result<ReplayOutcome> RunBatch(uint64_t batch_id, const Step& step);

  /// The replay's segment cache (null unless the workload is a session).
  const mqo::SharedSegmentCache* cache() const { return cache_.get(); }

 private:
  const Workload* workload_;
  mqo::MqoOptions options_;
  SpanLog* log_;
  mqo::AnalyzeOptions analyze_;
  mqo::TableStatsRegistry registry_;
  mqo::CardinalityFeedback feedback_;
  std::unique_ptr<mqo::SharedSegmentCache> cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
