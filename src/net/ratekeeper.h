#ifndef IDEBENCH_NET_RATEKEEPER_H_
#define IDEBENCH_NET_RATEKEEPER_H_

/// \file ratekeeper.h
/// Overload defense for the serving front-end, modeled on FoundationDB's
/// Ratekeeper/TagThrottle split: per-tenant *tag throttling* keeps one
/// noisy dashboard from monopolizing admission, a global *admission
/// budget* bounds concurrent live queries, and between "healthy" and
/// "full" the keeper *degrades gracefully* — shrinking per-query sample
/// budgets and stretching the update cadence — so quality gives way
/// before availability does.  The contract the chaos/overload tests pin
/// down:
///
///   throttle -> degrade -> reject, in that order, and every refusal is
///   an explicit decision the server turns into a rejection frame —
///   never a silent drop.
///
/// The ladder, as a function of live queries L (and scheduler backlog B
/// in wall-pacing mode):
///
///   L <  soft_live_limit                 admit, level 0, full budget
///   soft <= L < hard_live_limit          admit, level 1..degrade_levels:
///                                        budget scaled linearly down to
///                                        min_budget_scale, update cadence
///                                        stretched 2^level
///   L >= hard_live_limit (or B >= backlog_reject)
///                                        reject with retry_after
///
/// Determinism: the keeper never reads a clock — `now` is always passed
/// in — so it works identically under the virtual-clock test/chaos
/// harness and the wall-clock event loop.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/clock.h"

namespace idebench::net {

struct RatekeeperOptions {
  /// Live-query count where degradation starts.
  int soft_live_limit = 32;
  /// Live-query count where admission stops (reject).
  int hard_live_limit = 64;
  /// Degradation steps between soft and hard.
  int degrade_levels = 3;
  /// Budget multiplier at the deepest degradation level; level k scales
  /// budgets by 1 - (1 - min) * k / degrade_levels.
  double min_budget_scale = 0.25;
  /// Partial-update cadence floor at level k: interval << (k - 1), 0 at
  /// level 0.  `net::Server` streams at most one partial per
  /// max(scheduler quantum, this floor) of virtual time per query.
  Micros degraded_update_interval = 50'000;  // 50ms at level 1

  /// Per-tenant tag throttle: a token bucket admitting `tenant_rate`
  /// interactions per second sustained with `tenant_burst` of burst.
  /// <= 0 disables tenant throttling.
  double tenant_rate = 100.0;
  double tenant_burst = 20.0;

  /// Wall-pacing backlog (wall time minus scheduler virtual time): adds
  /// one degradation level per `backlog_degrade`, rejects outright at
  /// `backlog_reject` (the scheduler is too far behind real time for an
  /// admission to meet any deadline).  <= 0 disables the signal.
  Micros backlog_degrade = 500'000;
  Micros backlog_reject = 5'000'000;

  /// Retry hint attached to over-capacity rejections.
  Micros reject_retry_after = 250'000;
};

/// Millisecond retry hint for the wire: rounds `retry_after` *up* so a
/// positive sub-millisecond throttle never serializes as "retry now"
/// (0ms) — a client honoring that literally would hammer the keeper in a
/// busy loop.  0 stays 0 (no hint).
inline int64_t RetryAfterMillis(Micros retry_after) {
  if (retry_after <= 0) return 0;
  return (retry_after + 999) / 1000;
}

enum class AdmitAction : uint8_t {
  kAdmit = 0,
  kThrottle = 1,  // per-tenant rate exceeded; retry after `retry_after`
  kReject = 2,    // global capacity exhausted; retry after `retry_after`
};

/// One admission verdict.
struct AdmitDecision {
  AdmitAction action = AdmitAction::kAdmit;
  int degrade_level = 0;
  double budget_scale = 1.0;    // multiplier for per-query sample budgets
  Micros update_interval = 0;   // min gap between streamed partials
  Micros retry_after = 0;       // for kThrottle / kReject
  const char* reason = "";      // stable wire string ("", "tenant_throttled",
                                // "over_capacity", "backlogged")

  bool admitted() const { return action == AdmitAction::kAdmit; }
};

struct RatekeeperStats {
  int64_t admitted = 0;    // interactions admitted
  int64_t degraded = 0;    // admitted at level > 0
  int64_t throttled = 0;   // tenant-throttle refusals
  int64_t rejected = 0;    // capacity/backlog refusals
  int max_level_seen = 0;
  double min_budget_scale_granted = 1.0;
  int64_t live = 0;        // live queries currently tracked
  int64_t peak_live = 0;
  int64_t ingest_admitted = 0;  // append batches admitted
  int64_t ingest_shed = 0;      // append batches shed under load
};

class Ratekeeper {
 public:
  explicit Ratekeeper(RatekeeperOptions options);

  /// Decides admission of one interaction from `tenant` at time `now`
  /// (monotonic micros; virtual or wall — the keeper does not care).
  /// `backlog` is the scheduler's lag behind `now` (0 in virtual mode).
  /// Counting: an admitted decision is recorded immediately; the caller
  /// reports the resulting live queries via OnAdmitted/OnFinalized.
  AdmitDecision Admit(const std::string& tenant, Micros now,
                      Micros backlog = 0);

  /// Decides admission of one ingest append batch.  Ingest is the
  /// lowest-priority traffic class: it is shed at *any* degradation
  /// level (the first rung where queries merely lose sample budget),
  /// so under load ingest backs off strictly before query quality
  /// does — fresh data is worthless if the dashboards reading it
  /// stall.  Shed decisions carry reason "ingest_shed" and the
  /// standard retry hint.
  AdmitDecision AdmitIngest(Micros backlog = 0);

  /// Live-query accounting: `n` queries entered / left the scheduler.
  void OnAdmitted(int n);
  void OnFinalized(int n);

  int64_t live() const { return live_; }
  const RatekeeperOptions& options() const { return options_; }
  RatekeeperStats stats() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    Micros last_refill = 0;
    bool initialized = false;
  };

  /// Degradation level for the current load; degrade_levels + 1 encodes
  /// "beyond hard limit" (reject).
  int LevelFor(Micros backlog) const;

  RatekeeperOptions options_;
  int64_t live_ = 0;
  std::unordered_map<std::string, Bucket> buckets_;
  RatekeeperStats stats_;
};

}  // namespace idebench::net

#endif  // IDEBENCH_NET_RATEKEEPER_H_
