// End-to-end benchmark of the MQO pipeline: SQL batch in, consolidated plan
// executed, answers out — driven through the public facade by one
// closed-loop client.
//
//   mqo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--describe <version>]
//
// A run builds the workload from the seed, warms up with one untimed round,
// then repeats whole rounds (the workload's fixed step sequence) until
// --seconds have passed and at least 10 rounds were timed. Every answer is
// then checked against the benchmark's own evaluator (reference.h), and the
// last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": <batches>, "failed": <batches>,
//    "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}
//
// --trace 0 reports the end-to-end metrics of the untraced facade; --trace 1
// additionally replays every batch layer by layer (replay.h) and reports
// per-layer metrics instead. See perfbench/README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "mqo/facade.h"
#include "obs/clock.h"
#include "reference.h"
#include "replay.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

/// Every batch position is timed at least this often, however short
/// --seconds is.
constexpr int kMinRounds = 10;
/// Most queries of the first batch the row-interpreter cross-check runs.
constexpr size_t kCrossCheckQueries = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = "perfbench/out";
  std::string describe = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--describe") {
      args->describe = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// The program reads MQO_* variables for knobs left unset; the benchmark
/// sets every knob explicitly and also clears the variables, so no
/// environment can change what it measures.
void ClearMqoEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MQO_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

mqo::MqoOptions MakeOptions(const Workload& w, const std::string& spill_dir) {
  mqo::MqoOptions o;
  o.algorithm = mqo::MqoOptions::Algorithm::kMarginalGreedy;
  o.marginal_options = mqo::MarginalGreedyMqoOptions{};
  o.expansion = mqo::ExpansionOptions{};
  o.backend = mqo::ExecBackend::kVector;
  o.exec.num_threads = w.threads;
  o.exec.morsel_rows = mqo::kAdaptiveMorselRows;
  o.exec.mat_budget_bytes = 0;
  o.exec.mat_spill_dir = spill_dir;
  o.exec.bloom_filters = true;
  o.exec.zone_maps = 1;
  o.exec.numeric_compression = 1;
  o.mat_budget_bytes = 0;
  o.stats_mode = mqo::StatsMode::kCollected;
  o.obs = mqo::ObsOptions{};
  o.shared_segment_cache = w.session;
  o.shared_cache_budget_bytes = w.cache_budget_bytes;
  return o;
}

void PrintConfig(const Args& args, const Workload& w, const mqo::MqoOptions& o) {
  std::printf(
      "# perfbench %s workload=%s seed=%llu seconds=%g trace=%d\n"
      "# config backend=%s threads=%d zone_maps=%d numeric_compression=%d "
      "bloom_filters=%d stats_mode=%s algorithm=marginal_greedy "
      "decomposition=canonical lazy=%d mat_budget_bytes=%zu "
      "shared_segment_cache=%d shared_cache_budget_bytes=%zu obs=off "
      "rows_per_table=%d domain_cap=%d batches_per_round=%d "
      "queries_per_round=%d\n",
      args.describe.c_str(), w.name.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      mqo::ExecBackendToString(o.backend), o.exec.num_threads,
      o.exec.zone_maps_enabled() ? 1 : 0,
      o.exec.numeric_compression_enabled() ? 1 : 0, o.exec.bloom_filters ? 1 : 0,
      mqo::StatsModeToString(mqo::ResolveStatsMode(o.stats_mode)),
      o.marginal_options.lazy ? 1 : 0, o.exec.mat_budget_bytes,
      o.shared_segment_cache ? 1 : 0, o.shared_cache_budget_bytes, w.rows,
      w.domain_cap, w.batches_per_round(), w.queries_per_round());
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

struct BatchRecord {
  size_t step = 0;
  bool ok = false;
  std::string error;
  std::vector<BagDigest> digests;  ///< One per query; empty when !ok.
  bool digest_error = false;       ///< A result lacked an expected column.
};

/// Everything the timed rounds observed.
struct Recorder {
  std::vector<BatchRecord> batches;
  std::vector<double> latency_ms;
  double benefit_sum = 0;  ///< volcano_cost − total_cost, summed.
  int64_t queries = 0;
  // Traced runs only.
  std::vector<LayerSample> layers;
  std::vector<double> facade_ms;
  int replay_mismatches = 0;
  double cache_lookups = 0, cache_hits = 0, cache_stale = 0, cache_inserts = 0;
  double cache_invalidated = 0;
  double cache_bytes_sum = 0;
  double cache_evictions = 0, cache_spill_bytes = 0, cache_reload_bytes = 0;
  double minor_faults = 0;

  /// The fastest timing of every batch position of the round, over all the
  /// timed rounds (position order).
  std::vector<double> BestPerPosition() const {
    std::map<size_t, double> best;
    for (size_t i = 0; i < batches.size(); ++i) {
      auto [it, fresh] = best.emplace(batches[i].step, latency_ms[i]);
      if (!fresh) it->second = std::min(it->second, latency_ms[i]);
    }
    std::vector<double> out;
    for (const auto& [step, ms] : best) out.push_back(ms);
    return out;
  }

  /// The cost of every batch position (position order): the run's level
  /// times the position's relative cost. The relative cost is the median,
  /// over the timed rounds, of the position's time divided by its round's
  /// median batch time; the level scales the relative costs so that their
  /// median equals the median of BestPerPosition(). The median position
  /// thus costs exactly the per-position best median, while the upper
  /// positions are not read off single best timings: a position whose
  /// repetitions all missed the host's fast phases would lift a percentile
  /// of the bests, but hardly moves a median of ratios taken within rounds.
  std::vector<double> CostPerPosition(size_t per_round) const {
    const std::vector<double> best = BestPerPosition();
    std::vector<std::vector<double>> relative(per_round);
    for (size_t start = 0; start + per_round <= latency_ms.size();
         start += per_round) {
      const std::vector<double> round(latency_ms.begin() + start,
                                      latency_ms.begin() + start + per_round);
      const double median = Percentile(round, 0.5);
      for (size_t p = 0; p < per_round; ++p) {
        relative[p].push_back(round[p] / median);
      }
    }
    std::vector<double> cost;
    for (const auto& r : relative) cost.push_back(Percentile(r, 0.5));
    const double level = Percentile(best, 0.5) / Percentile(cost, 0.5);
    for (double& c : cost) c *= level;
    return cost;
  }
};

bool DigestAll(const Step& step, const std::vector<mqo::NamedRows>& results,
               std::vector<BagDigest>* out) {
  out->clear();
  if (results.size() != step.specs.size()) return false;
  for (size_t q = 0; q < results.size(); ++q) {
    BagDigest d;
    if (!DigestResult(step.specs[q], results[q], &d)) return false;
    out->push_back(d);
  }
  return true;
}

long MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Runs rounds of a workload through the facade (and, traced, the replay).
class Runner {
 public:
  Runner(Workload* w, const mqo::MqoOptions& options, Replay* replay)
      : w_(w), options_(options), replay_(replay) {
    if (!w_->session) {
      // One-shot batches share the run's statistics registry, analyzed
      // during set-up (a session analyzes into its own, once per round).
      mqo::AnalyzeOptions analyze;
      analyze.num_threads = options_.exec.num_threads;
      registry_.Reset(&w_->data, analyze);
      options_.table_stats = &registry_;
    }
  }

  /// One round. Returns the wall time spent outside answer digesting: the
  /// round's share of the timed window (a traced run's window includes the
  /// replay).
  double RunRound(Recorder* rec) {
    const int64_t start = mqo::MonotonicNanos();
    int64_t digest_ns = 0;
    if (w_->session) {
      w_->data.AddTable(w_->write_table, w_->write_table_original);
      session_ = std::make_unique<mqo::MqoSession>(&w_->catalog, &w_->data,
                                                   options_);
    }
    if (replay_ != nullptr) replay_->StartRound();
    for (size_t i = 0; i < w_->steps.size(); ++i) {
      const Step& step = w_->steps[i];
      if (step.write) {
        mqo::ColumnStore table =
            AppendSlice(*w_->data.GetTable(w_->write_table).ValueOrDie(),
                        w_->slices[step.append_slice]);
        w_->data.AddTable(w_->write_table, std::move(table));
        session_->InvalidateTable(w_->write_table);
        if (replay_ != nullptr) replay_->InvalidateTable(w_->write_table);
        continue;
      }
      const int64_t t0 = mqo::MonotonicNanos();
      auto outcome = w_->session
                         ? session_->Run(step.sql)
                         : mqo::OptimizeAndExecuteSqlBatch(w_->catalog, step.sql,
                                                           w_->data, options_);
      const double ms = mqo::NanosToMillis(mqo::MonotonicNanos() - t0);
      if (rec != nullptr) Record(i, step, outcome, ms, rec, &digest_ns);
    }
    if (rec != nullptr && replay_ != nullptr && replay_->cache() != nullptr) {
      const mqo::SegmentCacheStats cs = replay_->cache()->stats();
      const mqo::MatStoreStats ss = replay_->cache()->store_stats();
      rec->cache_lookups += cs.lookups;
      rec->cache_hits += cs.hits;
      rec->cache_stale += cs.stale_misses;
      rec->cache_invalidated += cs.invalidated_segments;
      rec->cache_inserts += cs.inserts;
      rec->cache_evictions += ss.evictions;
      rec->cache_spill_bytes += ss.bytes_spilled;
      rec->cache_reload_bytes += ss.bytes_reloaded;
    }
    session_.reset();
    return mqo::NanosToMillis(mqo::MonotonicNanos() - start - digest_ns);
  }

 private:
  void Record(size_t index, const Step& step,
              const mqo::Result<mqo::MqoExecutionOutcome>& outcome, double ms,
              Recorder* rec, int64_t* digest_ns) {
    BatchRecord b;
    b.step = index;
    b.ok = outcome.ok();
    rec->latency_ms.push_back(ms);
    rec->queries += static_cast<int64_t>(step.sql.size());
    if (!b.ok) {
      b.error = outcome.status().ToString();
      rec->batches.push_back(std::move(b));
      return;
    }
    const mqo::MqoExecutionOutcome& out = outcome.ValueOrDie();
    rec->benefit_sum += out.optimization.result.benefit;
    const int64_t d0 = mqo::MonotonicNanos();
    b.digest_error = !DigestAll(step, out.results, &b.digests);
    *digest_ns += mqo::MonotonicNanos() - d0;
    if (replay_ != nullptr) {
      rec->facade_ms.push_back(ms);
      CompareReplay(step, out, b, rec);
    }
    rec->batches.push_back(std::move(b));
  }

  /// Replays the batch layer by layer and checks that it reaches the facade
  /// run's plan choices and answers.
  void CompareReplay(const Step& step, const mqo::MqoExecutionOutcome& facade,
                     const BatchRecord& b, Recorder* rec) {
    const long faults = MinorFaults();
    auto replayed = replay_->RunBatch(++batch_id_, step);
    rec->minor_faults += static_cast<double>(MinorFaults() - faults);
    if (!replayed.ok()) {
      std::printf("# replay failed at step %zu: %s\n", b.step,
                  replayed.status().ToString().c_str());
      ++rec->replay_mismatches;
      return;
    }
    const ReplayOutcome& r = replayed.ValueOrDie();
    const mqo::MqoResult& f = facade.optimization.result;
    std::vector<BagDigest> digests;
    const bool same = r.mqo.materialized == f.materialized &&
                      r.mqo.benefit == f.benefit &&
                      r.mqo.optimizations == f.optimizations &&
                      r.mqo.function_evals == f.function_evals &&
                      DigestAll(step, r.results, &digests) &&
                      digests == b.digests;
    if (!same) {
      std::printf("# replay differs from facade at step %zu\n", b.step);
      ++rec->replay_mismatches;
    }
    rec->layers.push_back(r.sample);
    if (replay_->cache() != nullptr) {
      rec->cache_bytes_sum += replay_->cache()->bytes_used();
    }
  }

  Workload* w_;
  mqo::TableStatsRegistry registry_;
  mqo::MqoOptions options_;
  Replay* replay_;
  std::unique_ptr<mqo::MqoSession> session_;
  uint64_t batch_id_ = 0;
};

struct CheckResult {
  int64_t failed = 0;
  bool correct = true;
};

/// Compares every recorded answer with the reference evaluator's. Failures
/// of known-fault batches are counted; any other failure makes the run
/// incorrect.
CheckResult CheckAnswers(const Workload& w, const Recorder& rec) {
  std::vector<std::string> tables = w.catalog.TableNames();
  const RefDb db = RefDb::Decode(w.data, tables);
  std::map<std::pair<size_t, size_t>, RefAnswer> refs;  // (step, query)
  CheckResult check;
  int reported = 0;
  auto report = [&](const BatchRecord& b, const std::string& what) {
    if (reported++ < 5) std::printf("# step %zu: %s\n", b.step, what.c_str());
  };
  for (const BatchRecord& b : rec.batches) {
    const Step& step = w.steps[b.step];
    bool mismatch = !b.ok || b.digest_error;
    if (!b.ok) report(b, "batch failed: " + b.error);
    if (b.digest_error) report(b, "result columns differ from the query's");
    for (size_t q = 0; !mismatch && q < step.specs.size(); ++q) {
      auto key = std::make_pair(b.step, q);
      auto it = refs.find(key);
      if (it == refs.end()) {
        it = refs.emplace(key, Evaluate(step.specs[q], db, step.row_limits)).first;
      }
      const RefAnswer& ref = it->second;
      if (!ref.error.empty()) {
        report(b, ref.error + ": " + step.sql[q]);
        check.correct = false;
        mismatch = true;
      } else if (b.digests[q] != ref.digest) {
        if (!step.known_fault) {
          report(b, "wrong answer (" + std::to_string(b.digests[q].rows) +
                        " rows, expected " + std::to_string(ref.digest.rows) +
                        "): " + step.sql[q]);
        }
        mismatch = true;
      }
    }
    if (mismatch) {
      ++check.failed;
      if (!step.known_fault || !b.ok || b.digest_error) check.correct = false;
    }
  }
  return check;
}

/// Two independent implementations vouch for the reference: on a small
/// dataset, the evaluator must agree with the program's row interpreter on
/// the workload's queries (every distinct query of its first batch and of
/// the near-literal batches).
bool CrossCheckRowInterpreter(const std::string& name, uint64_t seed,
                              int* compared) {
  const Workload small = MakeWorkload(name, seed, /*small=*/true);
  const RefDb db = RefDb::Decode(small.data, small.catalog.TableNames());
  std::vector<std::pair<const QuerySpec*, std::string>> picked;
  for (size_t i = 0; i < small.steps.size(); ++i) {
    const Step& s = small.steps[i];
    const bool pair_step =
        s.known_fault || (i + 1 < small.steps.size() && small.steps[i + 1].known_fault);
    if (s.write || (i > 0 && !pair_step)) continue;
    for (size_t q = 0; q < s.specs.size(); ++q) {
      const bool seen = std::any_of(picked.begin(), picked.end(),
                                    [&](const auto& p) { return p.second == s.sql[q]; });
      if (!seen && (pair_step || picked.size() < kCrossCheckQueries)) {
        picked.emplace_back(&s.specs[q], s.sql[q]);
      }
    }
  }
  mqo::MqoOptions row;
  row.backend = mqo::ExecBackend::kRow;
  row.stats_mode = mqo::StatsMode::kCatalogGuess;
  row.exec.zone_maps = 1;
  row.exec.numeric_compression = 1;
  bool ok = true;
  *compared = 0;
  for (const auto& [spec, sql] : picked) {
    const RefAnswer ref = Evaluate(*spec, db);
    if (!ref.error.empty()) continue;  // tiny tables can leave a query empty
    auto out = mqo::OptimizeAndExecuteSqlBatch(small.catalog, {sql}, small.data, row);
    BagDigest d;
    if (!out.ok() || !DigestResult(*spec, out.ValueOrDie().results[0], &d) ||
        d != ref.digest) {
      std::printf("# row interpreter disagrees with the evaluator: %s\n",
                  sql.c_str());
      ok = false;
    }
    ++*compared;
  }
  return ok && *compared > 0;
}

void PrintMetric(bool* first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", *first ? "" : ", ",
              name, value, unit);
  *first = false;
}

int Run(const Args& args, std::chrono::steady_clock::time_point process_start) {
  Workload w = MakeWorkload(args.workload, args.seed);
  std::filesystem::create_directories(args.out_dir);
  const std::string spill_dir =
      args.out_dir + "/spill-" + std::to_string(::getpid());
  const mqo::MqoOptions options = MakeOptions(w, spill_dir);
  PrintConfig(args, w, options);

  SpanLog spans;
  std::unique_ptr<Replay> replay;
  if (args.trace != 0) replay = std::make_unique<Replay>(&w, options, &spans);
  Runner runner(&w, options, replay.get());

  runner.RunRound(nullptr);  // warm-up: caches, worker pool, allocator
  const double setup_s = Seconds(process_start);

  Recorder rec;
  double window_ms = 0;
  int rounds = 0;
  while (window_ms < args.seconds * 1000.0 || rounds < kMinRounds) {
    window_ms += runner.RunRound(&rec);
    ++rounds;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  CheckResult check = CheckAnswers(w, rec);
  int compared = 0;
  if (!CrossCheckRowInterpreter(args.workload, args.seed, &compared)) {
    check.correct = false;
  }
  if (rec.replay_mismatches > 0) check.correct = false;
  if (args.trace != 0) {
    const std::string path = args.out_dir + "/trace-" + w.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (!spans.WriteChromeJson(path)) {
      std::printf("# could not write %s\n", path.c_str());
      check.correct = false;
    }
  }
  const int64_t attempted = static_cast<int64_t>(rec.batches.size());
  const std::vector<double> best = rec.BestPerPosition();
  const std::vector<double> cost =
      rec.CostPerPosition(static_cast<size_t>(w.batches_per_round()));
  std::printf("# rounds=%d batches=%lld failed=%lld window_s=%.3f "
              "row_interpreter_queries=%d\n"
              "# all timed batches: p50_ms=%.3f p90_ms=%.3f mean_ms=%.3f "
              "window_queries_per_s=%.1f\n"
              "# per-position best: p90_ms=%.3f queries_per_s=%.1f\n",
              rounds, static_cast<long long>(attempted),
              static_cast<long long>(check.failed), window_ms / 1000.0, compared,
              Percentile(rec.latency_ms, 0.5), Percentile(rec.latency_ms, 0.9),
              Mean(rec.latency_ms), rec.queries / (window_ms / 1000.0),
              Percentile(best, 0.9),
              w.queries_per_round() / (Sum(best) / 1000.0));

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              check.correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(check.failed));
  bool first = true;
  const double n = static_cast<double>(attempted);
  if (args.trace == 0) {
    PrintMetric(&first, "setup_s", setup_s, "s");
    // Latency and throughput of the round's batch sequence, each batch
    // position at its cost over the run's rounds (see README: host drift).
    // The median of the costs is the median of the per-position bests.
    PrintMetric(&first, "batch_p50_ms", Percentile(cost, 0.5), "ms");
    PrintMetric(&first, "batch_p90_ms", Percentile(cost, 0.9), "ms");
    PrintMetric(&first, "queries_per_s",
                w.queries_per_round() / (Sum(cost) / 1000.0), "queries/s");
    PrintMetric(&first, "mqo_benefit", rec.benefit_sum / n, "est_ms/batch");
    PrintMetric(&first, "peak_rss_mb", peak_rss_mb, "MB");
  } else {
    auto mean = [&](double LayerSample::*field) {
      double sum = 0;
      for (const auto& s : rec.layers) sum += s.*field;
      return rec.layers.empty() ? 0.0 : sum / rec.layers.size();
    };
    auto store_mean = [&](int64_t mqo::MatStoreStats::*field) {
      double sum = 0;
      for (const auto& s : rec.layers) sum += static_cast<double>(s.store.*field);
      return rec.layers.empty() ? 0.0 : sum / rec.layers.size();
    };
    auto store_bytes = [&](size_t mqo::MatStoreStats::*field) {
      double sum = 0;
      for (const auto& s : rec.layers) sum += static_cast<double>(s.store.*field);
      return sum;
    };
    PrintMetric(&first, "parser.parse_ms", mean(&LayerSample::parse_ms), "ms");
    PrintMetric(&first, "stats.analyze_ms", mean(&LayerSample::analyze_ms), "ms");
    PrintMetric(&first, "lqdag.insert_ms", mean(&LayerSample::insert_ms), "ms");
    PrintMetric(&first, "lqdag.expand_ms", mean(&LayerSample::expand_ms), "ms");
    PrintMetric(&first, "lqdag.classes", mean(&LayerSample::classes), "count");
    PrintMetric(&first, "lqdag.ops", mean(&LayerSample::ops), "count");
    PrintMetric(&first, "optimizer.setup_ms", mean(&LayerSample::setup_ms), "ms");
    PrintMetric(&first, "mqo.greedy_ms", mean(&LayerSample::greedy_ms), "ms");
    PrintMetric(&first, "mqo.function_evals", mean(&LayerSample::function_evals),
                "count");
    PrintMetric(&first, "mqo.shareable", mean(&LayerSample::shareable), "count");
    PrintMetric(&first, "mqo.materialized", mean(&LayerSample::materialized),
                "count");
    PrintMetric(&first, "optimizer.plan_searches",
                mean(&LayerSample::plan_searches), "count");
    PrintMetric(&first, "optimizer.costings", mean(&LayerSample::costings), "count");
    PrintMetric(&first, "optimizer.plan_render_ms", mean(&LayerSample::render_ms),
                "ms");
    PrintMetric(&first, "mqo.facade_other_ms",
                Mean(rec.facade_ms) - mean(&LayerSample::layers_ms), "ms");
    PrintMetric(&first, "vexec.execute_ms", mean(&LayerSample::execute_ms), "ms");
    PrintMetric(&first, "vexec.segment_compute_ms",
                mean(&LayerSample::segment_compute_ms), "ms");
    PrintMetric(&first, "vexec.rows_out", mean(&LayerSample::rows_out), "count");
    PrintMetric(&first, "storage.store_gets", store_mean(&mqo::MatStoreStats::gets),
                "count");
    PrintMetric(&first, "storage.store_hits", store_mean(&mqo::MatStoreStats::hits),
                "count");
    PrintMetric(&first, "storage.evictions",
                (store_mean(&mqo::MatStoreStats::evictions) * n + rec.cache_evictions) / n,
                "count");
    PrintMetric(&first, "storage.spill_bytes",
                (store_bytes(&mqo::MatStoreStats::bytes_spilled) + rec.cache_spill_bytes) / n,
                "bytes");
    PrintMetric(&first, "storage.reload_bytes",
                (store_bytes(&mqo::MatStoreStats::bytes_reloaded) + rec.cache_reload_bytes) / n,
                "bytes");
    PrintMetric(&first, "storage.cache_lookups", rec.cache_lookups / n, "count");
    PrintMetric(&first, "storage.cache_hits", rec.cache_hits / n, "count");
    PrintMetric(&first, "storage.cache_hit_ratio",
                rec.cache_lookups > 0 ? rec.cache_hits / rec.cache_lookups : 0.0,
                "ratio");
    PrintMetric(&first, "storage.cache_stale_misses", rec.cache_stale / n, "count");
    PrintMetric(&first, "storage.cache_inserts", rec.cache_inserts / n, "count");
    PrintMetric(&first, "storage.cache_invalidated", rec.cache_invalidated / n,
                "count");
    PrintMetric(&first, "storage.cache_bytes", rec.cache_bytes_sum / n, "bytes");
    PrintMetric(&first, "process.minor_faults", rec.minor_faults / n, "count");
    PrintMetric(&first, "trace.overhead_ms", mean(&LayerSample::overhead_ms), "ms");
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  perfbench::ClearMqoEnvironment();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mqo_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--describe <version>]\n");
    return 2;
  }
  try {
    return perfbench::Run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mqo_perfbench: %s\n", e.what());
    return 1;
  }
}
