#include "replay.h"

#include <fstream>
#include <set>

#include "mqo/materialization_problem.h"
#include "obs/clock.h"
#include "physical/plan.h"

namespace perfbench {

int SpanLog::Begin(const char* name, int parent, uint64_t batch) {
  spans_.push_back(Span{name, mqo::MonotonicNanos(), 0, parent, batch});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) { spans_[id].end_ns = mqo::MonotonicNanos(); }

double SpanLog::DurationMs(int id) const {
  return mqo::NanosToMillis(spans_[id].end_ns - spans_[id].start_ns);
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << (s.start_ns - origin) / 1000.0
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"batch\":" << s.batch << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Replay::Replay(const Workload* workload, const mqo::MqoOptions& options,
               SpanLog* log)
    : workload_(workload), options_(options), log_(log) {
  analyze_.num_threads = options_.exec.num_threads;
  registry_.Reset(&workload_->data, analyze_);
}

void Replay::StartRound() {
  if (!workload_->session) return;
  registry_.Reset(&workload_->data, analyze_);
  feedback_.clear();
  mqo::MatStoreOptions cache_options = options_.exec.mat_store();
  cache_options.budget_bytes = options_.shared_cache_budget_bytes;
  cache_options.obs = nullptr;
  cache_ = std::make_unique<mqo::SharedSegmentCache>(cache_options);
}

void Replay::InvalidateTable(const std::string& table) {
  registry_.Invalidate(table);
  if (cache_) cache_->InvalidateTable(table);
}

mqo::Result<ReplayOutcome> Replay::RunBatch(uint64_t batch_id,
                                            const Step& step) {
  ReplayOutcome out;
  LayerSample& s = out.sample;
  const int root = log_->Begin("batch", -1, batch_id);
  // Times one layer call as a child span of the batch; returns its ms.
  auto layer = [&](const char* name, auto&& call) {
    const int id = log_->Begin(name, root, batch_id);
    call();
    log_->End(id);
    const double ms = log_->DurationMs(id);
    s.layers_ms += ms;
    return ms;
  };

  std::vector<mqo::LogicalExprPtr> queries;
  mqo::Status status;
  s.parse_ms = layer("parser.parse", [&] {
    for (const auto& sql : step.sql) {
      auto parsed = mqo::ParseQuery(sql, workload_->catalog);
      if (!parsed.ok()) {
        status = parsed.status();
        return;
      }
      queries.push_back(parsed.ValueOrDie());
    }
  });
  if (!status.ok()) return status;

  // Collected statistics: the first Get of a table (per run, or per session
  // round and after each invalidation) analyzes it.
  s.analyze_ms = layer("stats.analyze", [&] {
    std::set<std::string> tables;
    for (const auto& spec : step.specs) {
      tables.insert(spec.tables.begin(), spec.tables.end());
    }
    for (const auto& t : tables) (void)registry_.Get(t);
  });

  mqo::Memo memo(&workload_->catalog);
  s.insert_ms = layer("lqdag.insert", [&] { memo.InsertBatch(queries); });
  mqo::Result<mqo::ExpansionStats> expanded = mqo::ExpansionStats{};
  s.expand_ms = layer("lqdag.expand", [&] {
    expanded = mqo::ExpandMemo(&memo, options_.expansion);
  });
  if (!expanded.ok()) return expanded.status();
  s.classes = expanded.ValueOrDie().classes_after;
  s.ops = expanded.ValueOrDie().ops_after;

  // The facade's optimizer configuration, resolved the same way.
  mqo::CardinalityFeedback feedback_snapshot = feedback_;
  mqo::BatchOptimizerOptions optimizer_options;
  optimizer_options.stats.mode = mqo::ResolveStatsMode(options_.stats_mode);
  optimizer_options.stats.table_stats = &registry_;
  optimizer_options.stats.feedback =
      workload_->session ? &feedback_snapshot : nullptr;
  optimizer_options.num_threads =
      options_.exec.num_threads > 1 ? options_.exec.num_threads : 0;
  if (cache_) optimizer_options.cached_fingerprints = cache_->FingerprintSnapshot();
  std::unique_ptr<mqo::BatchOptimizer> optimizer;
  std::unique_ptr<mqo::MaterializationProblem> problem;
  s.setup_ms = layer("optimizer.setup", [&] {
    optimizer = std::make_unique<mqo::BatchOptimizer>(
        &memo, mqo::CostModel(options_.cost_params), optimizer_options);
    problem = std::make_unique<mqo::MaterializationProblem>(optimizer.get());
  });
  s.shareable = problem->universe_size() +
                static_cast<double>(problem->admission_refused().size());
  s.greedy_ms = layer("mqo.greedy", [&] {
    out.mqo = mqo::RunMarginalGreedy(problem.get(), options_.marginal_options);
  });
  s.materialized = out.mqo.num_materialized;
  s.function_evals = static_cast<double>(out.mqo.function_evals);
  mqo::ConsolidatedPlan plan;
  s.render_ms = layer("optimizer.plan_render", [&] {
    plan = optimizer->Plan(out.mqo.materialized);
    // Rendered as the facade renders MqoOutcome's plan strings.
    std::string rendered = mqo::PlanToString(plan.root_plan);
    for (const auto& m : plan.materialized) {
      rendered += mqo::PlanToString(m.compute_plan);
    }
  });
  s.plan_searches = static_cast<double>(optimizer->num_optimizations());
  s.costings = static_cast<double>(optimizer->num_costings());

  mqo::ExecOptions exec = options_.exec;
  exec.shared_cache = cache_.get();
  exec.obs = nullptr;
  mqo::Result<mqo::ExecResult> executed = mqo::ExecResult{};
  s.execute_ms = layer("vexec.execute", [&] {
    executed = mqo::ExecuteConsolidatedResult(options_.backend, &memo,
                                              &workload_->data, plan, exec);
  });
  log_->End(root);
  if (!executed.ok()) return executed.status();
  mqo::ExecResult& result = executed.ValueOrDie();
  for (const auto& seg : result.segments) s.segment_compute_ms += seg.compute_ms;
  for (const auto& r : result.results) s.rows_out += r.rows.size();
  s.store = result.store_stats;
  s.overhead_ms = log_->DurationMs(root) - s.layers_ms;
  if (workload_->session) feedback_.MergeFrom(result.feedback);
  out.results = std::move(result.results);
  return out;
}

}  // namespace perfbench
