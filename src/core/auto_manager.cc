#include "core/auto_manager.h"

#include "common/check.h"
#include "common/fault.h"
#include "core/mnsa_d.h"
#include "core/shrinking_set.h"
#include "executor/dml_exec.h"
#include "obs/trace.h"
#include "query/dml.h"
#include "stats/durability.h"

namespace autostats {

AutoStatsManager::AutoStatsManager(Database* db, StatsCatalog* catalog,
                                   const Optimizer* optimizer,
                                   ManagerPolicy policy)
    : db_(db),
      catalog_(catalog),
      optimizer_(optimizer),
      executor_(db, optimizer->cost_model()),
      policy_(std::move(policy)) {
  AUTOSTATS_CHECK(db != nullptr && catalog != nullptr &&
                  optimizer != nullptr);
}

AutoStatsManager::Outcome AutoStatsManager::Process(
    const Statement& statement) {
  catalog_->Tick();
  trace_.Add(statement);
  // The statement anchor every later lifecycle event joins against: its
  // `clock` equals the tick just advanced, so stats_explain can say
  // "created while processing query X".
  if (obs::TraceActive()) {
    if (statement.kind == Statement::Kind::kQuery) {
      obs::TraceEvent("stmt")
          .Str("kind", "query")
          .Str("name", statement.query.name());
    } else {
      obs::TraceEvent("stmt")
          .Str("kind", "dml")
          .Str("op", DmlKindName(statement.dml.kind))
          .Int("table", statement.dml.table);
    }
  }
  Outcome outcome = statement.kind == Statement::Kind::kQuery
                        ? ProcessQuery(statement.query)
                        : ProcessDml(statement.dml);
  if (durability_ != nullptr && !durability_->crashed()) {
    // One journal record per processed statement: the LSN sequence
    // numbers statements one-for-one, which is what makes post-crash
    // resume exactly-once (resume at statement index last_lsn). A failed
    // write degrades the statement; it never aborts serving.
    if (!durability_->CommitStatement().ok()) {
      ++outcome.durability_failures;
      outcome.degraded = true;
    } else if (policy_.durability_checkpoint_every > 0 &&
               ++statements_since_checkpoint_ >=
                   policy_.durability_checkpoint_every) {
      if (durability_->Checkpoint().ok()) {
        statements_since_checkpoint_ = 0;
      } else {
        ++outcome.durability_failures;
        outcome.degraded = true;
      }
    }
  }
  return outcome;
}

AutoStatsManager::Outcome AutoStatsManager::ProcessQuery(const Query& query) {
  Outcome outcome;
  outcome.was_query = true;
  // Catalog-level failure counters accumulate across statements; deltas
  // around this statement catch builds_failed from every creation path,
  // including the swallowing CreateStatistic used by kSqlServer7.
  const StatsFailureCounters before = catalog_->failure_counters();
  // The plan the query is served with; MNSA may hand back its last one.
  OptimizeResult plan;

  switch (policy_.mode) {
    case CreationMode::kNone:
      break;
    case CreationMode::kSqlServer7: {
      // The auto-statistics baseline: every syntactically relevant column
      // gets a single-column statistic, unconditionally.
      for (const ColumnRef& c : query.RelevantColumns()) {
        const bool existed = catalog_->HasActive(MakeStatKey({c}));
        outcome.creation_cost += catalog_->CreateStatistic({c});
        if (!existed) ++outcome.stats_created;
      }
      break;
    }
    case CreationMode::kMnsaOnTheFly:
    case CreationMode::kMnsaDOnTheFly: {
      MnsaConfig config = policy_.mnsa;
      config.drop_detection = policy_.mode == CreationMode::kMnsaDOnTheFly;
      if (policy_.enable_aging) {
        // Estimate the query's cost once so expensive queries bypass the
        // damper, then veto re-creation of freshly dropped statistics.
        const Result<OptimizeResult> cost_probe =
            optimizer_->TryOptimizeWithRetry(query, StatsView(catalog_), {},
                                             policy_.retry,
                                             &outcome.probes_aborted);
        if (cost_probe.ok()) {
          ++outcome.optimizer_calls;
          const double query_cost = cost_probe->cost;
          config.creation_filter =
              [this, query_cost](const std::vector<ColumnRef>& columns) {
                return !IsDampened(*catalog_, MakeStatKey(columns),
                                   policy_.aging, query_cost);
              };
        } else {
          // Fail OPEN: without a cost estimate the damper is skipped
          // entirely, so an expensive query is never starved of statistics
          // by a fault in its own cost probe.
          outcome.degraded = true;
        }
      }
      const MnsaResult r =
          RunMnsa(*optimizer_, catalog_, query, config, &plan);
      outcome.creation_cost += r.creation_cost;
      outcome.optimizer_calls += r.optimizer_calls;
      outcome.stats_created += static_cast<int64_t>(r.created.size());
      outcome.stats_dropped += static_cast<int64_t>(r.dropped.size());
      outcome.probes_aborted += r.probes_aborted;
      outcome.degraded = outcome.degraded || r.degraded;
      break;
    }
    case CreationMode::kPeriodicOffline: {
      pending_window_.AddQuery(query);
      if (++statements_since_pass_ >= policy_.periodic_interval) {
        RunOfflinePass(&outcome);
      }
      break;
    }
  }

  // Serving is unconditional and infallible: whatever happened above, the
  // query is optimized against the statistics that exist right now —
  // possibly magic numbers or stale histograms, never an error. This is
  // the bottom rung of the degradation ladder. A plan MNSA handed back was
  // made against exactly these statistics (stats_version has not moved),
  // so it is the result Optimize would return and is served as is; it
  // still counts as the serving optimizer call.
  if (!plan.plan.valid()) {
    plan = optimizer_->Optimize(query, StatsView(catalog_));
  }
  ++outcome.optimizer_calls;
  outcome.exec_cost = executor_.Execute(query, plan.plan).work_units;

  const StatsFailureCounters& after = catalog_->failure_counters();
  outcome.builds_failed += after.builds_failed - before.builds_failed;
  outcome.build_retries += after.build_retries - before.build_retries;
  if (after.builds_failed != before.builds_failed ||
      after.stale_fallbacks != before.stale_fallbacks) {
    outcome.degraded = true;
  }
  return outcome;
}

AutoStatsManager::Outcome AutoStatsManager::ProcessDml(
    const DmlStatement& dml) {
  Outcome outcome;
  const StatsFailureCounters before = catalog_->failure_counters();
  // The `dml.apply` gate fires before any row is touched, so re-attempting
  // the statement is safe (same seed, same effect). A persistent failure
  // skips the statement — the data, and so the counters, are unchanged.
  size_t modified = 0;
  const Status applied = RetryWithBackoff(
      policy_.retry,
      [&]() -> Status {
        Result<size_t> r = TryApplyDml(db_, dml,
                                       policy_.update_trigger.incremental
                                           ? catalog_->mutable_deltas()
                                           : nullptr);
        if (!r.ok()) return r.status();
        modified = *r;
        return Status::OK();
      },
      &outcome.dml_retries);
  if (!applied.ok()) {
    outcome.degraded = true;
    return outcome;
  }
  catalog_->RecordModifications(dml.table, modified);
  outcome.update_cost += catalog_->RefreshIfTriggered(policy_.update_trigger);
  ApplyUpdateDropRule(&outcome);
  EnforceDropListPolicy(catalog_, policy_.drop_list);

  const StatsFailureCounters& after = catalog_->failure_counters();
  outcome.builds_failed += after.builds_failed - before.builds_failed;
  outcome.build_retries += after.build_retries - before.build_retries;
  if (after.builds_failed != before.builds_failed ||
      after.stale_fallbacks != before.stale_fallbacks) {
    outcome.degraded = true;
  }
  return outcome;
}

void AutoStatsManager::ApplyUpdateDropRule(Outcome* outcome) {
  // SQL Server 7.0 rule: drop a statistic after too many updates. Our
  // improvement restricts the rule to drop-listed (non-essential)
  // statistics so useful ones are not dropped only to be re-created.
  std::vector<StatKey> victims;
  const std::vector<StatKey> keys = policy_.drop_only_drop_listed
                                        ? catalog_->DropListKeys()
                                        : catalog_->ActiveKeys();
  for (const StatKey& key : keys) {
    const StatEntry* entry = catalog_->FindEntry(key);
    if (entry->update_count > policy_.max_updates_before_drop) {
      victims.push_back(key);
    }
  }
  for (const StatKey& key : victims) {
    catalog_->PhysicallyDrop(key);
    ++outcome->stats_dropped;
  }
}

void AutoStatsManager::RunOfflinePass(Outcome* outcome) {
  const MnsaResult r =
      RunMnsaWorkload(*optimizer_, catalog_, pending_window_, policy_.mnsa);
  outcome->creation_cost += r.creation_cost;
  outcome->optimizer_calls += r.optimizer_calls;
  outcome->stats_created += static_cast<int64_t>(r.created.size());
  outcome->probes_aborted += r.probes_aborted;
  outcome->degraded = outcome->degraded || r.degraded;
  if (policy_.periodic_shrink) {
    ShrinkingSetConfig shrink;
    shrink.probe_retry = policy_.retry;
    const ShrinkingSetResult s =
        RunShrinkingSet(*optimizer_, catalog_, pending_window_, shrink);
    outcome->optimizer_calls += s.optimizer_calls;
    outcome->stats_dropped += static_cast<int64_t>(s.removed.size());
    outcome->probes_aborted += s.probes_aborted;
    outcome->degraded = outcome->degraded || s.degraded;
  }
  pending_window_ = Workload();
  statements_since_pass_ = 0;
}

void AutoStatsManager::Accumulate(const Outcome& o, RunReport* report) {
  report->exec_cost += o.exec_cost;
  report->creation_cost += o.creation_cost;
  report->update_cost += o.update_cost;
  report->optimizer_calls += o.optimizer_calls;
  report->stats_created += o.stats_created;
  report->stats_dropped += o.stats_dropped;
  report->builds_failed += o.builds_failed;
  report->build_retries += o.build_retries;
  report->probes_aborted += o.probes_aborted;
  report->dml_retries += o.dml_retries;
  report->durability_failures += o.durability_failures;
  if (o.was_query) {
    ++report->num_queries;
    if (o.degraded) ++report->degraded_queries;
  } else {
    ++report->num_dml;
    if (o.degraded) ++report->degraded_dml;
  }
}

RunReport AutoStatsManager::Run(const Workload& workload) {
  RunReport report;
  report.label = workload.name() + "/" + CreationModeName(policy_.mode);
  for (const Statement& s : workload.statements()) {
    Accumulate(Process(s), &report);
  }
  // Close the group-commit window: records appended during the stream's
  // tail must be durable before the run is reported complete.
  if (durability_ != nullptr && !durability_->crashed()) {
    if (!durability_->Flush().ok()) ++report.durability_failures;
  }
  return report;
}

}  // namespace autostats
