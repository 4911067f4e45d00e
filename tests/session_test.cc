/// \file session_test.cc
/// Unit tests of the session serving API (session/session.h): push
/// delivery, deadline-exact cancellation, round-robin fairness under a
/// contention penalty, idempotent client cancellation, multi-session
/// bookkeeping, scheduler telemetry and sink-declined partials.

#include "session/session.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engines/blocking_engine.h"
#include "engines/online_engine.h"
#include "engines/progressive_engine.h"
#include "engines/registry.h"
#include "tests/test_util.h"
#include "tests/workflow_harness.h"
#include "workflow/interaction.h"

namespace idebench::session {
namespace {

using engines::BlockingEngine;
using engines::BlockingEngineConfig;
using engines::ProgressiveEngine;
using engines::ProgressiveEngineConfig;
using workflow::Interaction;

query::VizSpec MakeGroupViz(const std::string& name) {
  query::VizSpec v;
  v.name = name;
  v.source = "tiny";
  query::BinDimension d;
  d.column = "group";
  d.mode = query::BinningMode::kNominal;
  v.bins.push_back(d);
  query::AggregateSpec a;
  a.type = query::AggregateType::kCount;
  v.aggregates.push_back(a);
  return v;
}

/// Sink recording every update in arrival order.
class RecordingSink : public ResultSink {
 public:
  void OnUpdate(const ProgressiveUpdate& update) override {
    updates.push_back(update);
  }

  std::vector<ProgressiveUpdate> finals() const {
    std::vector<ProgressiveUpdate> out;
    for (const ProgressiveUpdate& u : updates) {
      if (u.final_update) out.push_back(u);
    }
    return out;
  }

  std::vector<ProgressiveUpdate> updates;
};

std::shared_ptr<storage::Catalog> Catalog(int64_t nominal) {
  auto catalog = testutil::MakeTinyCatalog();
  catalog->set_nominal_rows(nominal);
  return catalog;
}

TEST(SessionTest, PartialUpdatesStreamThenFinalCompletes) {
  // Progressive engine on a workload sized so several quanta pass before
  // the walk completes: partial updates must stream with monotonically
  // growing row counts, then exactly one final, completed update.
  ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 100'000.0;  // 0.1 s per row; 8 rows = 0.8 s
  ProgressiveEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 2'000'000;
  options.quantum = 200'000;  // 2 rows per slice
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->size(), 1u);
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].completed);
  EXPECT_FALSE(finals[0].cancelled);
  EXPECT_TRUE(finals[0].result.available);
  EXPECT_EQ(finals[0].result.rows_processed, 8);
  EXPECT_EQ(finals[0].query_id, (*submitted)[0].query_id);

  // Partials streamed before the final, rows monotonically increasing.
  int64_t last_rows = 0;
  int partials = 0;
  for (const ProgressiveUpdate& u : sink.updates) {
    if (u.final_update) break;
    EXPECT_TRUE(u.result.available);
    EXPECT_GT(u.result.rows_processed, last_rows);
    last_rows = u.result.rows_processed;
    ++partials;
  }
  EXPECT_GE(partials, 2);
  EXPECT_EQ(manager.stats().partial_updates, partials);
}

TEST(SessionTest, OverdueQueryCancelledExactlyAtDeadline) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;  // 1 B nominal: never finishes
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.quantum = 64'000;  // deliberately not a divisor of the TR
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].cancelled);
  EXPECT_FALSE(finals[0].completed);
  EXPECT_FALSE(finals[0].result.available);  // blocking: nothing mid-scan
  // Cancelled exactly at the time requirement, never past it.
  EXPECT_EQ(finals[0].virtual_time, 1'000'000);
  const SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.deadline_cancelled, 1);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);
}

TEST(SessionTest, ContentionPenaltyShrinksAdmittedBudgets) {
  BlockingEngineConfig config;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.contention_penalty = 1.0;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a;
  RecordingSink sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());

  // Session A admits one query alone: full budget.
  auto qa = (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v")));
  ASSERT_TRUE(qa.ok());
  // Session B admits while A is live: n = 2 -> budget halves.
  auto qb = (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("w")));
  ASSERT_TRUE(qb.ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  ASSERT_EQ(sink_a.finals().size(), 1u);
  ASSERT_EQ(sink_b.finals().size(), 1u);
  EXPECT_EQ(sink_a.finals()[0].budget, 1'000'000);
  EXPECT_EQ(sink_b.finals()[0].budget, 500'000);
}

TEST(SessionTest, ClientCancelIsIdempotentAndPushesFinal) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 10'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_TRUE(submitted.ok());
  const int64_t qid = (*submitted)[0].query_id;

  ASSERT_TRUE((*sess)->Cancel(qid).ok());
  EXPECT_TRUE((*sess)->Cancel(qid).ok());      // second cancel: no-op
  EXPECT_TRUE((*sess)->Cancel(99'999).ok());   // unknown id: no-op
  EXPECT_EQ((*sess)->live_queries(), 0);

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].cancelled);
  EXPECT_EQ(manager.stats().client_cancelled, 1);
  EXPECT_FALSE(manager.HasLive());
}

TEST(SessionTest, CloseSessionCancelsItsLiveQueriesOnly) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10'000.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 10'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a;
  RecordingSink sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("va")))
          .ok());
  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("vb")))
          .ok());

  ASSERT_TRUE(manager.CloseSession(*a).ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  EXPECT_TRUE(sink_a.finals()[0].cancelled);
  EXPECT_TRUE(sink_b.finals().empty());  // B untouched
  EXPECT_TRUE(manager.HasLive());
  EXPECT_EQ((*b)->live_queries(), 1);
}

TEST(SessionTest, LinkAndSelectionPropagateThroughSessionGraph) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")))
          .ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v1")))
          .ok());
  // The LinkVizs convenience wraps a link interaction: the target
  // re-queries.
  auto linked = (*sess)->LinkVizs("v0", "v1");
  ASSERT_TRUE(linked.ok());
  ASSERT_EQ(linked->size(), 1u);
  EXPECT_EQ((*linked)[0].spec.viz_name, "v1");

  // A selection on v0 propagates its filter to v1's query.
  expr::FilterExpr selection;
  expr::Predicate p;
  p.column = "flag";
  p.op = expr::CompareOp::kEq;
  p.value = 1.0;
  selection.And(p);
  auto brushed =
      (*sess)->SubmitInteraction(Interaction::SetSelection("v0", selection));
  ASSERT_TRUE(brushed.ok());
  ASSERT_EQ(brushed->size(), 1u);
  EXPECT_EQ((*brushed)[0].spec.viz_name, "v1");
  EXPECT_EQ((*brushed)[0].spec.filter.predicates().size(), 1u);
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  // All four queries completed on the tiny catalog; the brushed count
  // totals the 4 flag==1 rows.
  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 4u);
  EXPECT_TRUE(finals[3].completed);
  EXPECT_NEAR(finals[3].result.TotalEstimate(), 4.0, 1e-9);

  // DiscardViz drops the dashboard node: selections stop propagating.
  ASSERT_TRUE((*sess)->DiscardViz("v1").ok());
  auto after =
      (*sess)->SubmitInteraction(Interaction::SetSelection("v0", selection));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

TEST(SessionTest, UnsupportedQueriesReportedAsFinalUpdates) {
  // The online engine without fallback rejects AVG queries.
  engines::OnlineEngineConfig config;
  config.enable_fallback = false;
  engines::OnlineEngine online(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(online.Prepare(catalog).ok());

  SessionManagerOptions options;
  SessionManager manager(options, &online, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());

  query::VizSpec avg_viz = MakeGroupViz("v0");
  avg_viz.aggregates[0].type = query::AggregateType::kAvg;
  avg_viz.aggregates[0].column = "value";
  auto submitted =
      (*sess)->SubmitInteraction(Interaction::CreateViz(avg_viz));
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted->size(), 1u);
  EXPECT_TRUE((*submitted)[0].unsupported);
  EXPECT_FALSE(manager.HasLive());

  const auto finals = sink.finals();
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_TRUE(finals[0].unsupported);
  EXPECT_TRUE(finals[0].final_update);
  EXPECT_FALSE(finals[0].result.available);
  EXPECT_EQ(manager.stats().unsupported, 1);
}

TEST(SessionTest, RoundRobinInterleavesSessionsWithinASlice) {
  // Two sessions, each a never-finishing scan; with a finite quantum the
  // scheduler must advance both queries in lockstep (fair division), not
  // run one to its deadline first.
  BlockingEngineConfig config;
  config.scan_ns_per_row = 1'000.0;  // 1 us per actual row
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(8'000'000);  // scan cost 8 s >> TR
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.quantum = 100'000;
  options.push_partials = false;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a;
  RecordingSink sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("va")))
          .ok());
  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("vb")))
          .ok());

  // After half the TR, both queries must have consumed equal compute.
  ASSERT_TRUE(manager.AdvanceTo(500'000).ok());
  ASSERT_TRUE(manager.HasLive());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  ASSERT_EQ(sink_b.finals().size(), 1u);
  // Both ran their full (equal) entitlement and were cancelled together.
  EXPECT_EQ(sink_a.finals()[0].consumed, sink_b.finals()[0].consumed);
  EXPECT_EQ(sink_a.finals()[0].virtual_time, 1'000'000);
  EXPECT_EQ(sink_b.finals()[0].virtual_time, 1'000'000);
  EXPECT_EQ(manager.stats().max_deadline_overshoot, 0);
}

TEST(SessionTest, StatsCountersAddUp) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")))
          .ok());
  ASSERT_TRUE(
      (*sess)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v1")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());

  const SchedulerStats stats = manager.stats();
  EXPECT_EQ(stats.sessions_opened, 1);
  EXPECT_EQ(stats.queries_submitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.deadline_cancelled, 0);
  EXPECT_EQ(stats.client_cancelled, 0);
  EXPECT_EQ(stats.unsupported, 0);
  EXPECT_EQ(stats.max_deadline_overshoot, 0);
  EXPECT_EQ(stats.virtual_now, manager.VirtualNow());
}

TEST(SessionTest, CloseIsIdempotentAndSubmitAfterCloseFailsCleanly) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManager manager({}, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  ExplorationSession* session = *sess;
  EXPECT_FALSE(session->closed());

  ASSERT_TRUE(manager.CloseSession(session).ok());
  EXPECT_TRUE(session->closed());
  // Double close is a no-op, and the handle stays dereferenceable.
  EXPECT_TRUE(manager.CloseSession(session).ok());

  // Submitting on a closed session fails with a clean status instead of
  // touching freed memory.
  auto submitted =
      session->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  // Cancelling through a closed session is still the usual no-op.
  EXPECT_TRUE(session->Cancel(0).ok());
  EXPECT_EQ(manager.stats().queries_submitted, 0);
}

TEST(SessionTest, ClosingOneSessionLeavesOthersServing) {
  BlockingEngineConfig config;
  config.scan_ns_per_row = 10.0;
  config.query_overhead_us = 0;
  BlockingEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManager manager({}, &engine, catalog);
  RecordingSink sink_a, sink_b;
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Close A with a live query: its query cancels, B keeps serving
  // (the engine-wide WorkflowEnd only fires at the *last* close).
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("va"))).ok());
  ASSERT_TRUE(manager.CloseSession(*a).ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  EXPECT_TRUE(sink_a.finals()[0].cancelled);

  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("vb"))).ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_b.finals().size(), 1u);
  EXPECT_TRUE(sink_b.finals()[0].completed);
  ASSERT_TRUE(manager.CloseSession(*b).ok());
  EXPECT_EQ(manager.stats().completed, 1);
  EXPECT_EQ(manager.stats().client_cancelled, 1);
}

TEST(SessionTest, VizNamespacingShieldsReuseSnapshotsAcrossSessions) {
  // Regression: two sessions sharing one engine both call their chart
  // "viz_0".  Engine-facing names are session-qualified ("s0/viz_0" vs
  // "s1/viz_0"), so when B discards *its* viz_0 the engine must not drop
  // A's reuse snapshots.  Before namespacing, B's discard of the raw
  // name wiped A's cache entries and A's identical resubmission missed.
  ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 100'000.0;  // completes within the TR
  config.reuse_cache = true;
  // Semantic reuse would serve A's resubmission from the engine's own
  // sample state before the cross-interaction cache is consulted; turn
  // it off so every submission cold-starts through the cache lookup.
  config.enable_reuse = false;
  config.expected_sessions = 2;
  ProgressiveEngine engine(config);
  auto catalog = Catalog(1'000'000);
  ASSERT_TRUE(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 2'000'000;
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink_a, sink_b;
  // Both sessions open before any query: WorkflowStart (which clears the
  // cache) fires only when serving starts.
  auto a = manager.CreateSession(&sink_a);
  auto b = manager.CreateSession(&sink_b);
  ASSERT_TRUE(a.ok() && b.ok());

  // A completes viz_0: the engine snapshots it under owner "s0/viz_0".
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("viz_0")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_a.finals().size(), 1u);
  EXPECT_TRUE(sink_a.finals()[0].completed);
  // Client-facing updates carry the raw name, not the qualified one.
  EXPECT_EQ(sink_a.finals()[0].viz_name, "viz_0");
  ASSERT_GT(engine.reuse_cache_stats().entries, 0);

  // B runs the same chart under the same raw name, then discards it.
  ASSERT_TRUE(
      (*b)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("viz_0")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  ASSERT_EQ(sink_b.finals().size(), 1u);
  EXPECT_EQ(sink_b.finals()[0].viz_name, "viz_0");
  ASSERT_TRUE((*b)->DiscardViz("viz_0").ok());

  // A resubmits the identical spec: its snapshot must have survived B's
  // discard, so the lookup is an equal hit.
  const auto mid = engine.reuse_cache_stats();
  (*a)->ResetDashboard();
  ASSERT_TRUE(
      (*a)->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("viz_0")))
          .ok());
  ASSERT_TRUE(manager.RunUntilIdle().ok());
  const auto after = engine.reuse_cache_stats();
  EXPECT_GT(after.equal_hits, mid.equal_hits);
  EXPECT_EQ(after.misses, mid.misses);
}

TEST(SessionTest, BudgetScaleShrinksEntitlementDeadlineUnchanged) {
  // Graceful degradation hook: a scaled submission answers from a
  // smaller sample (less virtual work granted) but keeps the same
  // deadline, so a degraded query still terminates on time.
  ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 1'000'000.0;  // never finishes 8 rows in TR
  auto catalog = Catalog(1'000'000);

  SessionManagerOptions options;
  options.time_requirement = 2'000'000;

  auto run = [&](double budget_scale) {
    ProgressiveEngine engine(config);
    EXPECT_TRUE(engine.Prepare(catalog).ok());
    SessionManager manager(options, &engine, catalog);
    RecordingSink sink;
    auto sess = manager.CreateSession(&sink);
    EXPECT_TRUE(sess.ok());
    auto submitted = (*sess)->SubmitInteraction(
        Interaction::CreateViz(MakeGroupViz("v0")), budget_scale);
    EXPECT_TRUE(submitted.ok());
    EXPECT_TRUE(manager.RunUntilIdle().ok());
    EXPECT_EQ(sink.finals().size(), 1u);
    return sink.finals()[0];
  };

  const ProgressiveUpdate full = run(1.0);
  const ProgressiveUpdate degraded = run(0.5);
  // Half the entitlement: half the rows sampled, same deadline.
  EXPECT_EQ(degraded.budget, full.budget / 2);
  EXPECT_LT(degraded.consumed, full.consumed);
  EXPECT_LE(degraded.virtual_time, full.virtual_time);
  EXPECT_GT(degraded.result.rows_processed, 0);
  EXPECT_LT(degraded.result.rows_processed, full.result.rows_processed);
  // budget_scale outside (0, 1] is a client error, reported eagerly.
  ProgressiveEngine engine(config);
  ASSERT_TRUE(engine.Prepare(catalog).ok());
  SessionManager manager(options, &engine, catalog);
  RecordingSink sink;
  auto sess = manager.CreateSession(&sink);
  ASSERT_TRUE(sess.ok());
  EXPECT_FALSE(
      (*sess)
          ->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")), 0.0)
          .ok());
  EXPECT_FALSE(
      (*sess)
          ->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")), 1.5)
          .ok());
}

/// Forwards to `inner` and counts PollResult calls.
class PollCountingEngine : public engines::Engine {
 public:
  explicit PollCountingEngine(engines::Engine* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  Result<Micros> Prepare(
      std::shared_ptr<const storage::Catalog> catalog) override {
    return inner_->Prepare(std::move(catalog));
  }
  Result<engines::QueryHandle> Submit(const query::QuerySpec& spec) override {
    return inner_->Submit(spec);
  }
  Micros RunFor(engines::QueryHandle handle, Micros budget) override {
    return inner_->RunFor(handle, budget);
  }
  bool IsDone(engines::QueryHandle handle) const override {
    return inner_->IsDone(handle);
  }
  Result<query::QueryResult> PollResult(engines::QueryHandle handle) override {
    ++polls;
    return inner_->PollResult(handle);
  }
  void Cancel(engines::QueryHandle handle) override { inner_->Cancel(handle); }
  void LinkVizs(const std::string& from, const std::string& to) override {
    inner_->LinkVizs(from, to);
  }
  void DiscardViz(const std::string& viz) override { inner_->DiscardViz(viz); }
  void OnThink(Micros duration) override { inner_->OnThink(duration); }
  void WorkflowStart() override { inner_->WorkflowStart(); }
  void WorkflowEnd() override { inner_->WorkflowEnd(); }

  int64_t polls = 0;

 private:
  engines::Engine* inner_;
};

/// Records every update and declines every partial.
class DecliningSink : public RecordingSink {
 public:
  bool WantsPartial(int64_t query_id, Micros virtual_time) override {
    (void)query_id;
    (void)virtual_time;
    ++asked;
    return false;
  }

  int64_t asked = 0;
};

struct DeclineRun {
  std::vector<ProgressiveUpdate> finals;  // both sessions, in push order
  int64_t polls = 0;
  SchedulerStats stats;
};

/// Two sessions, three distinct progressive queries (no semantic reuse
/// between them) admitted together under a contention penalty: the
/// first completes, the other two run to their deadline.  Both sessions
/// use `sink`.
DeclineRun RunThreeQueries(RecordingSink* sink) {
  query::VizSpec by_flag = MakeGroupViz("v1");
  by_flag.bins[0].column = "flag";
  query::VizSpec avg_by_group = MakeGroupViz("v0");
  avg_by_group.aggregates[0].type = query::AggregateType::kAvg;
  avg_by_group.aggregates[0].column = "value";

  ProgressiveEngineConfig config;
  config.query_overhead_us = 0;
  config.restart_overhead_us = 0;
  config.sample_us_per_row = 100'000.0;  // 8 rows = 0.8 s
  ProgressiveEngine progressive(config);
  PollCountingEngine engine(&progressive);
  auto catalog = Catalog(1'000'000);
  IDB_CHECK(engine.Prepare(catalog).ok());

  SessionManagerOptions options;
  options.time_requirement = 1'000'000;
  options.contention_penalty = 1.0;  // budgets 1, 1/2 and 1/3 of the TR
  options.quantum = 100'000;
  SessionManager manager(options, &engine, catalog);
  auto first = manager.CreateSession(sink);
  auto second = manager.CreateSession(sink);
  IDB_CHECK(first.ok() && second.ok());
  IDB_CHECK((*first)
                ->SubmitInteraction(Interaction::CreateViz(MakeGroupViz("v0")))
                .ok());
  IDB_CHECK(
      (*first)->SubmitInteraction(Interaction::CreateViz(by_flag)).ok());
  IDB_CHECK(
      (*second)->SubmitInteraction(Interaction::CreateViz(avg_by_group)).ok());
  IDB_CHECK(manager.RunUntilIdle().ok());

  DeclineRun run;
  run.finals = sink->finals();
  run.polls = engine.polls;
  run.stats = manager.stats();
  return run;
}

TEST(SessionTest, DecliningSinkSkipsEnginePoll) {
  RecordingSink accepting;
  const DeclineRun want = RunThreeQueries(&accepting);
  DecliningSink declining;
  const DeclineRun got = RunThreeQueries(&declining);

  // The accepting run polls for its partials; the declining one polls
  // once per final and never pushes a partial.
  ASSERT_EQ(want.finals.size(), 3u);
  EXPECT_GT(want.stats.partial_updates, 0);
  EXPECT_EQ(want.stats.partials_declined, 0);
  EXPECT_GT(want.polls, static_cast<int64_t>(want.finals.size()));
  EXPECT_EQ(got.polls, static_cast<int64_t>(got.finals.size()));
  EXPECT_EQ(got.stats.partial_updates, 0);
  EXPECT_GT(got.stats.partials_declined, 0);
  EXPECT_EQ(got.stats.partials_declined, declining.asked);
  EXPECT_EQ(declining.updates.size(), got.finals.size());

  // Declining changes what is computed, never the answers.
  EXPECT_EQ(want.stats.completed, 1);
  EXPECT_EQ(want.stats.deadline_cancelled, 2);
  ASSERT_EQ(got.finals.size(), want.finals.size());
  for (size_t i = 0; i < want.finals.size(); ++i) {
    const ProgressiveUpdate& a = want.finals[i];
    const ProgressiveUpdate& b = got.finals[i];
    const std::string label = "final " + std::to_string(i);
    EXPECT_EQ(a.session_id, b.session_id) << label;
    EXPECT_EQ(a.query_id, b.query_id) << label;
    EXPECT_EQ(a.virtual_time, b.virtual_time) << label;
    EXPECT_EQ(a.consumed, b.consumed) << label;
    EXPECT_EQ(a.budget, b.budget) << label;
    EXPECT_EQ(a.completed, b.completed) << label;
    EXPECT_EQ(a.cancelled, b.cancelled) << label;
    EXPECT_EQ(a.progress, b.progress) << label;
    testharness::ExpectResultsBitIdentical(a.result, b.result, label);
  }
}

}  // namespace
}  // namespace idebench::session
