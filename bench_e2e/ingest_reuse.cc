/// \file ingest_reuse.cc
/// Workload `ingest_reuse`: writes beside reads, in process.
///
/// One `SessionManager` (quantum 100 ms, the driver's multi-session
/// value) serves 4 concurrent sessions, in twelve rounds, on a blocking
/// engine (1 thread, reuse cache on) over a 100k-row baseline.  A durable
/// `Ingestor` (WAL sync policy `every_commit`, in the run's work
/// directory) receives 400 tail batches of 500 rows through
/// `SessionManager::EnqueueAppend`, each published as an epoch, every
/// 250 ms of virtual time, so the table triples while it is read.
/// Sessions replay sequential and n-to-one workflows, whose interactions
/// refine earlier queries, so the reuse cache serves refinements while
/// ingest extends its snapshots.
///
/// Set-up (`setup_s`, every rep: ingest mutates the catalog): baseline
/// build, workflow generation, engine create + prepare, Ingestor + WAL
/// creation.  Timed phase: the session replay with interleaved ingest,
/// until idle, in steps of one round of sessions; `run_s` sums each
/// round's median time over the reps.  Gates: every tail batch is
/// applied; the update
/// transcript digest repeats in every rep; `Ingestor::Recover` over a
/// freshly built baseline reaches the live watermark and epoch history;
/// overshoot 0.  A traced run also measures the share of `run_s` that
/// ingest causes: the tail applied alone, and the replay with no ingest.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/dataset.h"
#include "engines/registry.h"
#include "ingest/ingest.h"
#include "net/protocol.h"
#include "session/session.h"
#include "workflow/generator.h"

namespace bench_e2e {

namespace {

using idebench::Micros;

constexpr int64_t kBaselineRows = 100'000;
constexpr int64_t kNominalRows = 100'000'000;
/// Tail batches publish every 250 ms of virtual time.  The schedule
/// (100 s) spans most of a replay (159-184 s over seeds 51-60), so most
/// queries run beside publishes, and ends well before the shortest one,
/// so every seed ingests all of it (a gate checks).  With a published
/// batch per query or so, ingest causes most of `run_s` (README.md).
constexpr int64_t kBatchRows = 500;
constexpr int64_t kBatches = 400;
constexpr int64_t kTailRows = kBatches * kBatchRows;
constexpr Micros kPublishEvery = 250'000;
/// Four concurrent sessions; twelve rounds of them replay 48 workflows, so
/// a run samples more of the generator's mix than one round would.
constexpr int kSessions = 4;
constexpr int kRounds = 12;
constexpr int kInteractions = 30;  // generated, then cut at:
constexpr int64_t kQueriesPerWorkflow = 8;
constexpr Micros kQuantum = 100'000;
constexpr Micros kTimeRequirement = 3'000'000;
constexpr Micros kThinkTime = 1'000'000;
const idebench::ingest::WalOptions kWal{idebench::ingest::WalSync::kEveryCommit,
                                        8};

std::shared_ptr<idebench::storage::Catalog> BuildRows(uint64_t seed,
                                                      int64_t rows) {
  idebench::core::DatasetConfig config;
  config.nominal_rows = kNominalRows;
  config.actual_rows = rows;
  config.seed = seed;
  return Unwrap(idebench::core::BuildFlightsCatalog(config), "datagen");
}

/// Hashes every pushed update in push order and counts terminals.
class TranscriptSink : public idebench::session::ResultSink {
 public:
  explicit TranscriptSink(uint64_t* hash) : hash_(hash) {}
  void OnUpdate(const idebench::session::ProgressiveUpdate& u) override {
    std::string line = std::to_string(u.session_id) + "/" +
                       std::to_string(u.query_id) + "/" +
                       std::to_string(u.interaction_id) + "/" + u.viz_name +
                       (u.final_update ? "/F" : "/P") +
                       (u.completed ? "C" : "") + (u.cancelled ? "X" : "") +
                       (u.failed ? "!" : "") + "/" +
                       std::to_string(u.virtual_time) + "/" +
                       idebench::net::QueryResultToJson(u.result).Dump();
    HashInto(line, hash_);
    if (u.final_update) ++finals;
    if (u.failed) ++failed;
  }
  int64_t finals = 0;
  int64_t failed = 0;

 private:
  uint64_t* hash_;
};

struct Rep {
  std::shared_ptr<idebench::storage::Catalog> catalog;
  std::vector<idebench::workflow::Workflow> workflows;
  std::unique_ptr<EngineTap> engine;
  std::unique_ptr<idebench::ingest::Ingestor> ingestor;
  int64_t queries = 0;  // per replay of the workflows
};

Rep MakeRep(uint64_t seed, const std::string& wal_dir,
            EngineCounters* counters) {
  Rep rep;
  {
    ScopedSpan span("datagen", "build");
    rep.catalog = BuildRows(kDataSeed, kBaselineRows);
  }
  {
    ScopedSpan span("workflow", "generate");
    idebench::workflow::GeneratorConfig config;
    config.min_interactions = kInteractions;
    config.max_interactions = kInteractions;
    idebench::workflow::WorkflowGenerator generator(rep.catalog->fact_table(),
                                                    config, seed);
    for (int w = 0; w < kSessions * kRounds; ++w) {
      const auto type = w % 2 == 0 ? idebench::workflow::WorkflowType::kSequential
                                   : idebench::workflow::WorkflowType::kNToOne;
      rep.workflows.push_back(Unwrap(
          generator.Generate(type, "workflow_" + std::to_string(w)),
          "workflow generation"));
      rep.queries += TrimToQueries(*rep.catalog, kQueriesPerWorkflow,
                                   &rep.workflows.back());
    }
  }
  {
    ScopedSpan span("engines", "prepare");
    rep.engine = std::make_unique<EngineTap>(
        Unwrap(idebench::engines::CreateEngine("blocking", seed, /*threads=*/1,
                                               /*reuse_cache=*/true, kSessions),
               "engine create"),
        counters, 0);
    Check(rep.engine->Prepare(rep.catalog).status(), "engine prepare");
  }
  ScopedSpan span("ingest", "create");
  std::filesystem::remove_all(wal_dir);
  rep.ingestor = Unwrap(
      idebench::ingest::Ingestor::CreateDurable(
          rep.catalog, kBaselineRows + kTailRows, wal_dir, kWal),
      "ingestor create");
  return rep;
}

/// What one replay of the rep's sessions produced.
struct ReplayResult {
  double wall_s = 0;
  uint64_t hash = kHashSeed;
  int64_t finals = 0;
  int64_t failed = 0;
  idebench::session::SchedulerStats sched;
  idebench::session::IngestChannelStats ingest;
};

/// Replays the rep's workflows, four sessions at a time, until idle,
/// each round timed as one step of `steps`.  With `tail`, every batch is
/// enqueued for append + publish at its virtual instant; without it, the
/// sessions only read.
ReplayResult Replay(Rep* rep,
                    const std::vector<idebench::ingest::RowBatch>* tail,
                    RepSteps* steps) {
  ReplayResult r;
  std::vector<std::unique_ptr<TranscriptSink>> sinks;  // outlive the manager
  idebench::session::SessionManagerOptions mopts;
  mopts.time_requirement = kTimeRequirement;
  mopts.quantum = kQuantum;
  idebench::session::SessionManager manager(mopts, rep->engine.get(),
                                            rep->catalog);
  if (tail != nullptr) {
    manager.AttachIngest(rep->ingestor.get());
    for (size_t b = 0; b < tail->size(); ++b) {
      Check(manager.EnqueueAppend((*tail)[b],
                                  kPublishEvery * static_cast<Micros>(b + 1),
                                  /*publish=*/true),
            "enqueue append");
    }
  }
  const int64_t begin = NowNs();
  {
    ScopedSpan root("bench", "run");
    ScopedSpan step("session", "step");
    for (int round = 0; round < kRounds; ++round) {
      steps->Step([&] {
        std::vector<idebench::session::SessionReplay> runs;
        for (int s = 0; s < kSessions; ++s) {
          sinks.push_back(std::make_unique<TranscriptSink>(&r.hash));
          runs.push_back(
              {Unwrap(manager.CreateSession(sinks.back().get()),
                      "create session"),
               &rep->workflows[static_cast<size_t>(round * kSessions + s)]});
        }
        Check(idebench::session::ReplaySessionsToCompletion(&manager, runs,
                                                            kThinkTime),
              "session replay");
        for (const auto& run : runs) {
          Check(manager.CloseSession(run.session), "close session");
        }
      });
    }
  }
  r.wall_s = static_cast<double>(NowNs() - begin) * 1e-9;
  for (const auto& sink : sinks) {
    r.finals += sink->finals;
    r.failed += sink->failed;
  }
  r.sched = manager.stats();
  r.ingest = manager.ingest_stats();
  return r;
}

}  // namespace

RunOutput RunIngestReuse(const RunOptions& options) {
  RunOutput out;
  const std::string wal_dir = options.work_dir + "/wal";

  // The tail rows are run-wide input: rendered to text batches once.
  std::vector<idebench::ingest::RowBatch> tail;
  {
    auto source = BuildRows(kDataSeed + 1, kTailRows);
    for (int64_t b = 0; b < kTailRows; b += kBatchRows) {
      tail.push_back(idebench::ingest::BatchFromTable(*source->fact_table(), b,
                                                      b + kBatchRows));
    }
  }

  Tracer tracer(1 << 19);
  std::vector<double> setup_s;
  // Not scaled by a HostProbe: the loop tracks CPU-bound work, and this
  // workload's time follows its fsyncs and table scans instead; in ten
  // runs, scaling widened the spread of run_s from 0.057 to 0.086.
  RepSteps untraced(nullptr), traced_steps(nullptr);
  EngineCounters traced;
  std::string digest;
  int reps = 0, traced_reps = 0;
  int64_t watermark = 0, finals = 0;
  std::vector<int64_t> epochs;
  auto& v = out.values;
  const int64_t loop_begin = NowNs();
  const auto spent = [&] {
    return static_cast<double>(NowNs() - loop_begin) * 1e-9;
  };
  while (reps < 2 || spent() < options.seconds) {
    const bool trace_rep = options.trace && reps % 2 == 1;
    if (trace_rep) SetActiveTracer(&tracer);
    EngineCounters counters;
    const int64_t setup_begin = NowNs();
    Rep rep = MakeRep(options.seed, wal_dir, &counters);
    setup_s.push_back(static_cast<double>(NowNs() - setup_begin) * 1e-9);
    RepSteps& steps = trace_rep ? traced_steps : untraced;
    const ReplayResult r = Replay(&rep, &tail, &steps);
    SetActiveTracer(nullptr);

    finals = r.finals;
    v["workflow.queries"] = static_cast<double>(rep.queries);
    out.attempted += r.finals + r.ingest.batches_applied +
                     r.ingest.append_failures;
    out.failed += r.failed + r.ingest.append_failures +
                  r.ingest.publish_failures;
    out.Gate(r.sched.max_deadline_overshoot == 0,
             "scheduler deadline overshoot is 0");
    out.Gate(r.ingest.batches_applied == kBatches,
             "every tail batch is applied during the replay");
    const std::string rep_digest = HexDigest(r.hash);
    if (digest.empty()) digest = rep_digest;
    out.Gate(rep_digest == digest, "update transcript digest repeats across reps");
    watermark = rep.ingestor->visible_rows();
    epochs = rep.ingestor->table().epoch_boundaries();

    v["session.updates_pushed"] = static_cast<double>(r.sched.updates_pushed);
    v["session.partials_pushed"] = static_cast<double>(r.sched.partial_updates);
    v["session.max_overshoot_us"] =
        static_cast<double>(r.sched.max_deadline_overshoot);
    v["ingest.rows_applied"] = static_cast<double>(r.ingest.rows_applied);
    v["ingest.publishes"] = static_cast<double>(r.ingest.publishes);
    v["ingest.append_failures"] = static_cast<double>(r.ingest.append_failures);
    const auto& wal = rep.ingestor->wal()->stats();
    v["wal.syncs"] = static_cast<double>(wal.syncs);
    v["wal.bytes_logged"] = static_cast<double>(wal.bytes_logged);
    v["wal.bytes_per_row"] =
        r.ingest.rows_applied > 0
            ? static_cast<double>(wal.bytes_logged) /
                  static_cast<double>(r.ingest.rows_applied)
            : 0.0;
    const auto reuse = rep.engine->reuse_cache_stats();
    const int64_t hits = reuse.equal_hits + reuse.refinement_hits;
    const int64_t lookups = hits + reuse.misses;
    v["exec.reuse_lookups"] = static_cast<double>(lookups);
    v["exec.reuse_hits"] = static_cast<double>(hits);
    v["exec.reuse_hit_rate"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0;
    v["exec.reuse_rows_served"] = static_cast<double>(reuse.rows_served);
    v["exec.reuse_evictions"] = static_cast<double>(reuse.evictions);

    out.Gate(steps.EndRep(counters),
             "every rep runs the same steps and queries");
    if (trace_rep) {
      Accumulate(counters, &traced);
      ++traced_reps;
    }
    ++reps;
  }

  v["peak_rss_mb"] = PeakRssMb();  // before the recovery check

  // Recovery: replay the last rep's WAL over a freshly built baseline.
  {
    auto fresh = BuildRows(kDataSeed, kBaselineRows);
    idebench::ingest::RecoverInfo info;
    const int64_t begin = NowNs();
    auto recovered = Unwrap(idebench::ingest::Ingestor::Recover(
                                fresh, kBaselineRows + kTailRows, wal_dir, kWal,
                                &info),
                            "recover");
    v["ingest.recover_s"] = static_cast<double>(NowNs() - begin) * 1e-9;
    out.Gate(recovered->visible_rows() == watermark,
             "recovery reaches the live watermark");
    out.Gate(recovered->table().epoch_boundaries() == epochs,
             "recovery reproduces the live epoch history");
    out.detail.Set("recovered_watermark", info.watermark);
    out.detail.Set("recovered_epochs", info.epochs_replayed);
  }

  if (options.trace) {
    // The ingest/WAL work of one rep on its own: every tail batch
    // appended and published over a fresh baseline, with no queries.
    EngineCounters unused;
    Rep rep = MakeRep(options.seed, wal_dir, &unused);
    int64_t begin = NowNs();
    for (const auto& batch : tail) {
      Check(rep.ingestor->Append(batch), "append");
      Check(rep.ingestor->Publish().status(), "publish");
    }
    v["ingest.apply_s"] = static_cast<double>(NowNs() - begin) * 1e-9;
    // The same replay with no ingest: what ingest adds to run_s, its
    // WAL, delta maintenance and epoch-extended scans together.
    Rep reads_only = MakeRep(options.seed, wal_dir, &unused);
    RepSteps unused_steps(nullptr);
    const double without =
        Replay(&reads_only, nullptr, &unused_steps).wall_s;
    v["ingest.reads_only_run_s"] = without;
    v["ingest.run_share"] = 1.0 - without / untraced.raw_run_s();
    v["ingest.apply_share"] = v["ingest.apply_s"] / untraced.raw_run_s();
  }

  v["setup_s"] = Median(setup_s);
  untraced.Report(finals, &out);
  v["datagen.rows"] = static_cast<double>(kBaselineRows);
  v["bench.queries"] = static_cast<double>(finals);
  if (options.trace) {
    ReportTrace(tracer, traced, traced_reps,
                options.work_dir + "/spans-ingest_reuse.csv", &out);
    const auto totals = tracer.Totals();
    auto step = totals.find("session.step");
    if (step != totals.end()) {
      v["session.self_s"] =
          static_cast<double>(step->second.self_ns) * 1e-9 / traced_reps;
    }
    v["trace.traced_run_s"] = traced_steps.raw_run_s();
    v["trace.untraced_run_s"] = untraced.raw_run_s();
    v["trace.overhead"] = v["trace.traced_run_s"] / v["trace.untraced_run_s"];
  }
  out.detail.Set("digest", digest);
  out.detail.Set("reps", static_cast<int64_t>(reps));
  out.detail.Set("untraced_reps", static_cast<int64_t>(untraced.reps()));
  out.detail.Set("traced_reps", static_cast<int64_t>(traced_reps));
  out.detail.Set("wal_sync", "every_commit");
  out.detail.Set("live_watermark", watermark);
  out.detail.Set("live_epochs", static_cast<int64_t>(epochs.size()));
  return out;
}

}  // namespace bench_e2e
