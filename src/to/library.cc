#include "to/library.h"

#include <set>

#include "common/logging.h"

namespace zenith::to {

namespace {

void append_allow(Trace& trace, const std::string& component) {
  if (!trace.steps.empty() &&
      trace.steps.back().type == TraceStep::Type::kAllow &&
      trace.steps.back().component == component) {
    ++trace.steps.back().count;
    return;
  }
  TraceStep step;
  step.type = TraceStep::Type::kAllow;
  step.component = component;
  trace.steps.push_back(std::move(step));
}

}  // namespace

Trace from_counterexample(const mc::CheckResult& result,
                          const mc::ModelConfig& config, std::string name,
                          std::size_t num_workers) {
  Trace trace;
  trace.name = std::move(name);
  trace.violation = result.violation;
  using K = mc::Action::Kind;
  for (const mc::TraceEvent& event : result.trace) {
    switch (event.action.kind) {
      case K::kSeqSchedule:
      case K::kSeqBatchPass:
        append_allow(trace, "sequencer0");
        break;
      case K::kWorkerTake:
      case K::kWorkerRecord:
      case K::kWorkerAct:
        append_allow(trace,
                     "worker" + std::to_string(event.action.subject %
                                               num_workers));
        break;
      case K::kMonitoring:
        // The model's ProcessACK is three stages of the wiring: route the
        // reply to its shard, validate it, commit it (one NIB shard: the
        // model has no sharding).
        append_allow(trace, "reply_router");
        append_allow(trace, "monitoring0");
        append_allow(trace, "commit_pump");
        break;
      case K::kEventualApply:
        append_allow(trace, "eventual_pump");
        break;
      case K::kTopoEvent:
      case K::kCleanupAck:
      case K::kDeferredReset:
        append_allow(trace, "topo_handler");
        break;
      case K::kSwitchProcess:
      case K::kSwitchEmitAck:
      case K::kAppSwitchDag:
        break;  // autonomous in the simulator (switches and apps ungated)
      case K::kSwitchFail: {
        TraceStep step;
        step.type = TraceStep::Type::kSwitchFail;
        step.sw = SwitchId(event.action.subject);
        step.mode = config.complete_failure
                        ? FailureMode::kCompleteTransient
                        : FailureMode::kPartialTransient;
        trace.steps.push_back(std::move(step));
        break;
      }
      case K::kSwitchRecover: {
        TraceStep step;
        step.type = TraceStep::Type::kSwitchRecover;
        step.sw = SwitchId(event.action.subject);
        trace.steps.push_back(std::move(step));
        break;
      }
      case K::kWorkerCrash: {
        TraceStep step;
        step.type = TraceStep::Type::kCrashComponent;
        step.component =
            "worker" + std::to_string(event.action.subject % num_workers);
        trace.steps.push_back(std::move(step));
        break;
      }
    }
  }
  return trace;
}

std::vector<Trace> build_trace_library(std::size_t count) {
  std::vector<Trace> library;
  std::set<std::string> seen;

  struct BugCase {
    const char* name;
    void (*apply)(SpecBugs&);
    /// Bugs living between a component's internal steps need the
    /// fine-grained (non-POR) model to manifest.
    bool fine_grained;
  };
  const BugCase bug_cases[] = {
      {"mark-up-before-reset",
       [](SpecBugs& b) { b.mark_up_before_reset = true; }, false},
      {"mark-up-before-reset-fine",
       [](SpecBugs& b) { b.mark_up_before_reset = true; }, true},
      {"skip-recovery-cleanup",
       [](SpecBugs& b) { b.skip_recovery_cleanup = true; }, false},
      {"skip-recovery-cleanup-fine",
       [](SpecBugs& b) { b.skip_recovery_cleanup = true; }, true},
      {"direct-clear-tcam",
       [](SpecBugs& b) { b.direct_clear_tcam = true; }, true},
      {"send-before-record+skip-cleanup",
       [](SpecBugs& b) {
         b.send_before_record = true;
         b.skip_recovery_cleanup = true;
       }, true},
      {"mark-up+direct-clear",
       [](SpecBugs& b) {
         b.mark_up_before_reset = true;
         b.direct_clear_tcam = true;
       }, true},
      {"pop-before-process",
       [](SpecBugs& b) { b.pop_before_process = true; }, true},
  };

  struct InstanceCase {
    const char* name;
    mc::ModelConfig (*make)();
  };
  const InstanceCase instances[] = {
      {"table4", mc::ModelConfig::table4_instance},
      {"transient-recovery", mc::ModelConfig::transient_recovery_instance},
  };

  for (const InstanceCase& instance : instances) {
    for (const BugCase& bug : bug_cases) {
      for (bool complete : {true, false}) {
        for (int budget : {1, 2}) {
          if (library.size() >= count) return library;
          mc::ModelConfig config = instance.make();
          config.complete_failure = complete;
          config.allow_recovery = true;
          config.max_switch_failures = budget;
          config.opt_por = !bug.fine_grained;
          config.opt_symmetry = true;
          config.opt_compositional = !bug.fine_grained;
          bug.apply(config.bugs);
          if (config.bugs.pop_before_process) {
            // The lost-event bug needs a worker crash to manifest.
            config.max_worker_crashes = 1;
          }
          mc::CheckerOptions options;
          options.record_traces = true;
          options.max_states = 400000;
          options.time_limit_seconds = 30.0;
          mc::CheckResult result = mc::check(mc::PipelineModel(config),
                                             options);
          if (result.ok || result.trace.empty()) continue;
          std::string name = std::string(instance.name) + "/" + bug.name +
                             (complete ? "/complete" : "/partial") + "/f" +
                             std::to_string(budget);
          // Dedup structurally identical counterexamples.
          Trace trace = from_counterexample(result, config, name);
          std::string signature = trace.violation;
          for (const TraceStep& step : trace.steps) {
            signature += "|" + step.to_string();
          }
          if (!seen.insert(signature).second) continue;
          ZLOG_DEBUG("trace library: %s (%zu steps): %s", name.c_str(),
                     trace.steps.size(), trace.violation.c_str());
          library.push_back(std::move(trace));
        }
      }
    }
  }
  return library;
}

std::vector<Trace> chaos_regression_traces() {
  auto injection = [](TraceStep::Type type, SimTime delay, SwitchId sw,
                      FailureMode mode) {
    TraceStep step;
    step.type = type;
    step.delay = delay;
    step.sw = sw;
    step.mode = mode;
    return step;
  };

  std::vector<Trace> library;

  // §G's mark-UP-before-reset ordering bug: the switch is marked UP before
  // its stale OPs are reset, so a DAG update admitted in that window races
  // the deferred reset and leaves a hidden entry. Shrunk from a 23-event
  // randomized schedule (diamond topology, campaign seed 2) to fail+recover
  // of one switch. The delays are exact: the workload stream is derived
  // from the campaign seed (the trailing /seedN component of the name), and
  // the race only fires when the recovery lands while that stream's install
  // is in flight.
  {
    Trace trace;
    trace.name = "chaos/mark-up-before-reset/complete-transient/seed2";
    trace.violation =
        "hidden entry: OP reset to NONE while installed on a healthy switch "
        "(core.bugs.mark_up_before_reset)";
    trace.steps.push_back(injection(TraceStep::Type::kSwitchFail,
                                    micros(1327111), SwitchId(3),
                                    FailureMode::kCompleteTransient));
    trace.steps.push_back(injection(TraceStep::Type::kSwitchRecover,
                                    micros(950263), SwitchId(3),
                                    FailureMode::kCompleteTransient));
    library.push_back(std::move(trace));
  }

  // The same bug under a partial failure (control channel lost, TCAM
  // retained): recovery skips the TCAM rebuild but the premature UP mark
  // still races the reset. Shrunk from a 21-event schedule (seed 1).
  {
    Trace trace;
    trace.name = "chaos/mark-up-before-reset/partial-transient/seed1";
    trace.violation =
        "hidden entry: OP reset to NONE while installed on a healthy switch "
        "(core.bugs.mark_up_before_reset, partial failure)";
    trace.steps.push_back(injection(TraceStep::Type::kSwitchFail,
                                    micros(3496266), SwitchId(1),
                                    FailureMode::kPartialTransient));
    trace.steps.push_back(injection(TraceStep::Type::kSwitchRecover,
                                    micros(892827), SwitchId(1),
                                    FailureMode::kPartialTransient));
    library.push_back(std::move(trace));
  }

  return library;
}

}  // namespace zenith::to
