// Policy knobs for automated statistics management (§6). Mechanisms
// (MNSA, MNSA/D, Shrinking Set, drop-list, update counters) live in their
// own modules; this header gathers the DBA-facing policy choices that
// drive them inside AutoStatsManager.
#ifndef AUTOSTATS_CORE_POLICY_H_
#define AUTOSTATS_CORE_POLICY_H_

#include "core/aging.h"
#include "core/drop_list.h"
#include "core/mnsa.h"
#include "stats/stats_catalog.h"

namespace autostats {

enum class CreationMode {
  // Never create statistics (the "no statistics" floor).
  kNone,
  // The SQL Server 7.0 auto-statistics baseline (§2, §6): create every
  // syntactically relevant single-column statistic for each incoming
  // query, unconditionally.
  kSqlServer7,
  // MNSA per incoming query (§4): the aggressive on-the-fly policy with
  // sensitivity-pruned creation.
  kMnsaOnTheFly,
  // MNSA/D per incoming query (§5.1): additionally detects non-essential
  // statistics as they are created.
  kMnsaDOnTheFly,
  // The conservative policy (§6): queries run against whatever statistics
  // exist; every `periodic_interval` statements an off-line pass runs
  // MNSA over the recorded window and (optionally) Shrinking Set to
  // eliminate non-essential statistics.
  kPeriodicOffline,
};

const char* CreationModeName(CreationMode mode);

struct ManagerPolicy {
  CreationMode mode = CreationMode::kMnsaDOnTheFly;
  MnsaConfig mnsa;

  // kPeriodicOffline: statements per off-line tuning pass, and whether the
  // pass runs Shrinking Set after MNSA.
  int periodic_interval = 50;
  bool periodic_shrink = true;

  // Update triggering (row-modification counters, §6).
  UpdateTriggerPolicy update_trigger;

  // SQL Server 7.0 drop rule: physically drop a statistic updated more
  // than this many times. With `drop_only_drop_listed` (our improvement
  // (c) of §2) the rule applies only to drop-listed statistics.
  int max_updates_before_drop = 4;
  bool drop_only_drop_listed = true;

  // Aging (§6); disabled by default.
  bool enable_aging = false;
  AgingPolicy aging;

  // With a CatalogDurability attached (AutoStatsManager::AttachDurability),
  // publish a full snapshot and reset the journal every this many
  // processed statements. 0 journals every statement but never snapshots
  // (recovery then replays the whole journal). Ignored when no durability
  // is attached.
  int durability_checkpoint_every = 0;

  // Bounded retry + backoff for transient faults in the manager's own
  // fallible steps (the aging cost probe and DML application). Builds use
  // the catalog's retry policy; MNSA probes use mnsa.probe_retry.
  RetryPolicy retry;

  // Physical deletion of drop-listed statistics.
  DropListPolicy drop_list;
};

}  // namespace autostats

#endif  // AUTOSTATS_CORE_POLICY_H_
