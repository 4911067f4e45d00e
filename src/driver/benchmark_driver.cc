#include "driver/benchmark_driver.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/logging.h"
#include "query/sql.h"
#include "workflow/resolve.h"

namespace idebench::driver {

using query::QuerySpec;
using workflow::Interaction;
using workflow::Workflow;

namespace {

/// Round-robin time slice of the multi-session scheduler (virtual
/// micros).  Coarse enough that slicing overhead stays negligible, fine
/// enough that 64 sessions interleave visibly within one time
/// requirement.  Single-session runs use quantum 0 (seed-exact turns).
constexpr Micros kMultiSessionQuantum = 100'000;

/// Collects the final pushed update of every query of one session.
class FinalsSink : public session::ResultSink {
 public:
  void OnUpdate(const session::ProgressiveUpdate& update) override {
    if (update.final_update) finals_[update.query_id] = update;
  }

  const session::ProgressiveUpdate* Final(int64_t query_id) const {
    auto it = finals_.find(query_id);
    return it == finals_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<int64_t, session::ProgressiveUpdate> finals_;
};

/// Space-separated binning kinds, e.g. "quantitative quantitative".
std::string BinningTypeLabel(const QuerySpec& spec) {
  std::string out;
  for (size_t i = 0; i < spec.bins.size(); ++i) {
    if (i > 0) out += " ";
    out += spec.bins[i].mode == query::BinningMode::kNominal ? "nominal"
                                                             : "quantitative";
  }
  return out;
}

std::string AggTypeLabel(const QuerySpec& spec) {
  std::string out;
  for (size_t i = 0; i < spec.aggregates.size(); ++i) {
    if (i > 0) out += " ";
    out += query::AggregateTypeName(spec.aggregates[i].type);
  }
  return out;
}

}  // namespace

BenchmarkDriver::BenchmarkDriver(
    Settings settings, engines::Engine* engine,
    std::shared_ptr<const storage::Catalog> catalog)
    : settings_(std::move(settings)),
      engine_(engine),
      catalog_(std::move(catalog)),
      // The oracle inherits the configured execution parallelism; its
      // answers are thread-count independent (morsel path), so this only
      // affects cold-start wall-clock time.
      oracle_(std::make_shared<GroundTruthOracle>(catalog_,
                                                  settings_.threads)) {}

BenchmarkDriver::BenchmarkDriver(
    Settings settings, engines::Engine* engine,
    std::shared_ptr<const storage::Catalog> catalog,
    std::shared_ptr<GroundTruthOracle> oracle)
    : settings_(std::move(settings)),
      engine_(engine),
      catalog_(std::move(catalog)),
      oracle_(std::move(oracle)) {}

Result<Micros> BenchmarkDriver::PrepareEngine() {
  IDB_ASSIGN_OR_RETURN(prep_time_, engine_->Prepare(catalog_));
  return prep_time_;
}

Status BenchmarkDriver::ResolveQuery(query::QuerySpec* spec) const {
  return workflow::ResolveQueryAgainst(*catalog_, spec);
}

Status BenchmarkDriver::WarmGroundTruth(
    const std::vector<Workflow>& workflows) {
  // Dry-run the dashboard graphs to enumerate every query the workflows
  // will trigger; graph application is engine-independent and cheap next
  // to the full scans the oracle runs.
  std::vector<query::QuerySpec> specs;
  for (const Workflow& wf : workflows) {
    IDB_RETURN_NOT_OK(workflow::ForEachInteraction(
        *catalog_, wf,
        [&](const Interaction&, int64_t, std::vector<query::QuerySpec>& s) {
          for (query::QuerySpec& spec : s) specs.push_back(std::move(spec));
          return Status::OK();
        }));
  }
  return oracle_->Warm(specs);
}

Result<QueryRecord> BenchmarkDriver::MakeRecord(
    const session::SubmittedQuery& sq, const session::ProgressiveUpdate& fin,
    const Workflow& wf, int64_t interaction_id, int concurrency,
    Micros start_time, Micros end_time, int session_id) {
  const query::QueryResult& result = fin.result;
  const bool tr_violated = !result.available;
  IDB_ASSIGN_OR_RETURN(const query::QueryResult* truth, oracle_->Get(sq.spec));

  QueryRecord record;
  record.id = next_query_id_++;
  record.interaction_id = interaction_id;
  record.viz_name = sq.spec.viz_name;
  record.driver_name = engine_->name();
  record.data_size = settings_.data_size_label;
  record.think_time = settings_.think_time;
  record.time_requirement = settings_.time_requirement;
  record.workflow = wf.name;
  record.workflow_type = workflow::WorkflowTypeName(wf.type);
  record.start_time = start_time;
  record.end_time = end_time;
  record.bin_dims = static_cast<int>(sq.spec.bins.size());
  record.binning_type = BinningTypeLabel(sq.spec);
  record.agg_type = AggTypeLabel(sq.spec);
  record.num_concurrent = concurrency;
  record.session = session_id;
  record.sql = query::GenerateSql(sq.spec, *catalog_);
  record.progress = result.progress;
  record.metrics = metrics::Evaluate(result, *truth, tr_violated);
  return record;
}

Status BenchmarkDriver::RunWorkflow(const Workflow& wf,
                                    std::vector<QueryRecord>* records) {
  // One exploration session per workflow on a single-session manager in
  // seed-parity mode: quantum 0 (run-to-entitlement turns) keeps results
  // and records bit-identical to the pre-session driver (see the
  // seed-parity note in session.h).
  session::SessionManagerOptions mopts;
  mopts.time_requirement = settings_.time_requirement;
  mopts.contention_penalty = settings_.concurrency_penalty;
  mopts.quantum = 0;
  mopts.push_partials = false;  // the driver consumes final updates only
  mopts.confidence_level = settings_.confidence_level;
  // The sink must outlive the manager: an error-path unwind destroys the
  // manager, whose implicit close touches the registered sinks.
  FinalsSink sink;
  session::SessionManager manager(mopts, engine_, catalog_);
  IDB_ASSIGN_OR_RETURN(session::ExplorationSession * sess,
                       manager.CreateSession(&sink));

  // Default deterministic time source; SetClock can substitute a
  // WallClock to pace the workflow in real time.
  VirtualClock internal_clock;
  Clock* clock = external_clock_ != nullptr
                     ? external_clock_
                     : static_cast<Clock*>(&internal_clock);
  const Micros workflow_epoch = clock->Now();

  for (size_t i = 0; i < wf.interactions.size(); ++i) {
    IDB_ASSIGN_OR_RETURN(std::vector<session::SubmittedQuery> submitted,
                         sess->SubmitInteraction(wf.interactions[i]));
    // All queries of one interaction run concurrently under the
    // scheduler; each completes or is cancelled at its deadline.
    IDB_RETURN_NOT_OK(manager.RunUntilIdle());

    const int concurrency = static_cast<int>(submitted.size());
    const Micros now = clock->Now() - workflow_epoch;
    for (const session::SubmittedQuery& sq : submitted) {
      const session::ProgressiveUpdate* fin = sink.Final(sq.query_id);
      if (fin == nullptr) {
        return Status::Unknown("no final update for submitted query");
      }
      // Legacy timing: completed queries end after their consumed
      // compute; overdue (and unsupported) ones occupy the full budget.
      const Micros end =
          now + (fin->completed ? std::min(fin->consumed, fin->budget)
                                : fin->budget);
      IDB_ASSIGN_OR_RETURN(
          QueryRecord record,
          MakeRecord(sq, *fin, wf, static_cast<int64_t>(i), concurrency, now,
                     end, /*session_id=*/0));
      records->push_back(std::move(record));
    }

    // Think time separates consecutive interactions; speculative engines
    // may spend it.  A wall clock actually sleeps here.
    sess->Think(settings_.think_time);
    clock->Advance(settings_.think_time);
  }

  return manager.CloseSession(sess);
}

Result<std::vector<QueryRecord>> BenchmarkDriver::RunWorkflowsConcurrent(
    const std::vector<Workflow>& workflows) {
  const int sessions = std::max(
      1, std::min<int>(settings_.sessions,
                       static_cast<int>(workflows.size())));

  session::SessionManagerOptions mopts;
  mopts.time_requirement = settings_.time_requirement;
  mopts.contention_penalty = settings_.concurrency_penalty;
  mopts.quantum = kMultiSessionQuantum;
  mopts.push_partials = false;  // the driver consumes final updates only
  mopts.confidence_level = settings_.confidence_level;

  /// One concurrent user: a session replaying its share of the workflow
  /// suite, one interaction at a time, with think time between them.
  struct SessionRun {
    session::ExplorationSession* sess = nullptr;
    FinalsSink sink;
    std::vector<const Workflow*> queue;  // round-robin share of the suite
    size_t wf = 0;                       // current workflow in `queue`
    size_t inter = 0;                    // next interaction in it
    Micros ready_at = 0;                 // next submission time (idle only)
    bool busy = false;                   // a batch awaits final updates
    std::vector<session::SubmittedQuery> batch;
    const Workflow* batch_wf = nullptr;
    int64_t batch_interaction = 0;
    Micros batch_start = 0;
    std::vector<QueryRecord> records;
  };

  // The runs (and their sinks) must outlive the manager: an error-path
  // unwind destroys the manager, whose implicit close touches the
  // registered sinks.
  std::vector<SessionRun> runs(static_cast<size_t>(sessions));
  session::SessionManager manager(mopts, engine_, catalog_);
  for (size_t i = 0; i < workflows.size(); ++i) {
    runs[i % runs.size()].queue.push_back(&workflows[i]);
  }
  for (SessionRun& r : runs) {
    IDB_ASSIGN_OR_RETURN(r.sess, manager.CreateSession(&r.sink));
  }

  const Micros kNever = std::numeric_limits<Micros>::max();
  auto has_more = [](const SessionRun& r) { return r.wf < r.queue.size(); };

  // Resolves every busy session whose batch has all its final updates:
  // builds records, grants think time, and computes the next ready time.
  auto resolve_batches = [&]() -> Status {
    for (SessionRun& r : runs) {
      if (!r.busy) continue;
      Micros last_final = r.batch_start;
      bool complete = true;
      for (const session::SubmittedQuery& sq : r.batch) {
        const session::ProgressiveUpdate* fin = r.sink.Final(sq.query_id);
        if (fin == nullptr) {
          complete = false;
          break;
        }
        last_final = std::max(last_final, fin->virtual_time);
      }
      if (!complete) continue;
      const int concurrency = static_cast<int>(r.batch.size());
      const int session_id = static_cast<int>(r.sess->id());
      for (const session::SubmittedQuery& sq : r.batch) {
        const session::ProgressiveUpdate* fin = r.sink.Final(sq.query_id);
        // Scheduler-timeline timing: interactions occupy real virtual
        // time here (unlike the instant single-session clock), so start
        // is the admission time and end the finalization time — exactly
        // submit + TR for deadline cancellations.
        IDB_ASSIGN_OR_RETURN(
            QueryRecord record,
            MakeRecord(sq, *fin, *r.batch_wf, r.batch_interaction,
                       concurrency, r.batch_start, fin->virtual_time,
                       session_id));
        r.records.push_back(std::move(record));
      }
      r.batch.clear();
      r.busy = false;
      r.sess->Think(settings_.think_time);
      r.ready_at =
          std::max(last_final, manager.VirtualNow()) + settings_.think_time;
    }
    return Status::OK();
  };

  while (true) {
    // Submit for every idle session whose ready time has arrived; loop
    // until quiescent (instantly-resolved batches may re-ready sessions).
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (SessionRun& r : runs) {
        if (r.busy || !has_more(r) || r.ready_at > manager.VirtualNow()) {
          continue;
        }
        const Workflow& wf = *r.queue[r.wf];
        if (r.inter >= wf.interactions.size()) {
          // Workflow boundary: the user starts a fresh exploration on an
          // empty dashboard (the per-workflow graph reset of the
          // sequential driver, scoped to this session).
          r.sess->ResetDashboard();
          r.inter = 0;
          ++r.wf;
          progressed = true;
          continue;
        }
        const int64_t interaction_id = static_cast<int64_t>(r.inter);
        IDB_ASSIGN_OR_RETURN(
            std::vector<session::SubmittedQuery> submitted,
            r.sess->SubmitInteraction(wf.interactions[r.inter]));
        ++r.inter;  // the boundary branch above handles workflow wrap
        if (submitted.empty()) {
          // No queries triggered (e.g. a discard): think and move on.
          r.sess->Think(settings_.think_time);
          r.ready_at = manager.VirtualNow() + settings_.think_time;
          progressed = true;
          continue;
        }
        r.batch = std::move(submitted);
        r.batch_wf = &wf;
        r.batch_interaction = interaction_id;
        r.batch_start = manager.VirtualNow();
        r.busy = true;
        progressed = true;
      }
      IDB_RETURN_NOT_OK(resolve_batches());
    }

    bool any_work = false;
    Micros next_ready = kNever;
    for (const SessionRun& r : runs) {
      if (r.busy) {
        any_work = true;
      } else if (has_more(r)) {
        any_work = true;
        next_ready = std::min(next_ready, r.ready_at);
      }
    }
    if (!any_work) break;

    if (manager.HasLive()) {
      // Run until the next finalization (a session may become ready) or
      // the next submission time, whichever comes first.
      IDB_ASSIGN_OR_RETURN(int finalized, manager.StepUntilEvent(next_ready));
      (void)finalized;
      IDB_RETURN_NOT_OK(resolve_batches());
    } else {
      // Nothing executing: skip the idle gap to the next submission.
      IDB_CHECK(next_ready != kNever);
      IDB_RETURN_NOT_OK(manager.AdvanceTo(next_ready));
    }
  }

  std::vector<QueryRecord> records;
  for (SessionRun& r : runs) {
    for (QueryRecord& record : r.records) records.push_back(std::move(record));
  }
  for (SessionRun& r : runs) {
    IDB_RETURN_NOT_OK(manager.CloseSession(r.sess));
  }
  scheduler_stats_ = manager.stats();
  return records;
}

Result<std::vector<QueryRecord>> BenchmarkDriver::RunWorkflows(
    const std::vector<Workflow>& workflows) {
  // Cold-start bottleneck: the oracle's per-query full scans.  With
  // physical parallelism configured, compute them across queries up
  // front (ROADMAP: "parallelize ground-truth warm-up across queries");
  // the per-query answers are identical either way.
  if (settings_.threads != 1) {
    IDB_RETURN_NOT_OK(WarmGroundTruth(workflows));
  }
  if (settings_.sessions > 1) {
    return RunWorkflowsConcurrent(workflows);
  }
  std::vector<QueryRecord> records;
  for (const Workflow& wf : workflows) {
    IDB_RETURN_NOT_OK(RunWorkflow(wf, &records));
  }
  return records;
}

}  // namespace idebench::driver
