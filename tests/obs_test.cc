// Observability subsystem: metric snapshot determinism, causal span
// integrity across the OP pipeline, flight-recorder ring semantics, JSON
// well-formedness of every exporter, and the campaign-level contracts
// (byte-identical traces for equal seeds; violation => flight-recorder dump
// attached to the shrunk reproducer).
#include <gtest/gtest.h>

#include "chaos/campaign.h"
#include "chaos/shrink.h"
#include "common/logging.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "obs/bench_results.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
#include "topo/generators.h"

namespace zenith {
namespace {

using obs::Labels;

TEST(Metrics, CanonicalKeysSortLabels) {
  EXPECT_EQ(obs::MetricsRegistry::key_of("ops", {}), "ops");
  EXPECT_EQ(obs::MetricsRegistry::key_of(
                "ops", {{"b", "2"}, {"a", "1"}}),
            "ops{a=1,b=2}");
}

TEST(Metrics, SeriesInterning) {
  obs::MetricsRegistry registry;
  obs::Counter& c1 = registry.counter("sends", {{"sw", "3"}});
  c1.inc(5);
  // Same name+labels (any label order) -> the same series.
  EXPECT_EQ(registry.counter("sends", {{"sw", "3"}}).value(), 5u);
  registry.counter("sends", {{"sw", "4"}}).inc();
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(Metrics, SnapshotIsByteIdenticalAcrossIdenticalRuns) {
  auto populate = [](obs::MetricsRegistry& r) {
    r.counter("ops", {{"by", "seq0"}}).inc(3);
    r.counter("ops", {{"by", "seq1"}}).inc(1);
    r.gauge("queue_depth").set(7.5);
    Histogram& h = r.histogram("latency", {}, 0.0, 1.0, 10);
    h.add(0.25);
    h.add(0.95);
    h.add(-1.0);  // underflow
    h.add(2.0);   // overflow
  };
  obs::MetricsRegistry a, b;
  populate(a);
  populate(b);
  obs::MetricsSnapshot sa = a.snapshot(millis(42));
  obs::MetricsSnapshot sb = b.snapshot(millis(42));
  EXPECT_EQ(sa.to_string(), sb.to_string());
  EXPECT_EQ(sa.fingerprint(), sb.fingerprint());
  // Timestamp and content are both part of the fingerprint.
  EXPECT_NE(sa.fingerprint(), a.snapshot(millis(43)).fingerprint());
  b.counter("ops", {{"by", "seq0"}}).inc();
  EXPECT_NE(sa.fingerprint(), b.snapshot(millis(42)).fingerprint());
  // Out-of-range samples are reported, not silently clamped into edge bins.
  bool saw_histogram = false;
  for (const auto& entry : sa.entries) {
    if (entry.kind != "histogram") continue;
    saw_histogram = true;
    EXPECT_NE(entry.value.find("underflow=1"), std::string::npos)
        << entry.value;
    EXPECT_NE(entry.value.find("overflow=1"), std::string::npos)
        << entry.value;
  }
  EXPECT_TRUE(saw_histogram);
  EXPECT_TRUE(obs::json_valid(sa.to_json()));
}

TEST(SpanTracer, ParentChildAndBindings) {
  obs::SpanTracer tracer;
  SimTime t = 0;
  tracer.set_clock([&t] { return t; });
  std::uint64_t dag = tracer.begin("dag 1", "dag", obs::SpanTracer::kNoSpan,
                                   {}, /*async=*/true);
  t = millis(1);
  std::uint64_t op = tracer.begin("op 7", "op", dag, {}, /*async=*/true);
  tracer.bind_op(OpId(7), op);
  t = millis(2);
  tracer.instant("op-send", "worker0", tracer.op_span(OpId(7)));
  t = millis(3);
  tracer.end(tracer.op_span(OpId(7)), "outcome=done");
  tracer.unbind_op(OpId(7));
  EXPECT_EQ(tracer.op_span(OpId(7)), obs::SpanTracer::kNoSpan);

  ASSERT_EQ(tracer.spans().size(), 3u);
  const obs::Span* op_span = tracer.find(op);
  ASSERT_NE(op_span, nullptr);
  EXPECT_EQ(op_span->parent, dag);
  EXPECT_EQ(op_span->start, millis(1));
  EXPECT_EQ(op_span->end, millis(3));
  EXPECT_NE(op_span->args.find("outcome=done"), std::string::npos);
  const obs::Span& send = tracer.spans().back();
  EXPECT_TRUE(send.instant);
  EXPECT_EQ(send.parent, op);
  EXPECT_EQ(tracer.open_count(), 1u);  // the DAG span is still open
}

TEST(SpanTracer, CapacityDropsAreCounted) {
  obs::SpanTracer tracer;
  tracer.set_capacity(2);
  EXPECT_NE(tracer.begin("a", "t"), obs::SpanTracer::kNoSpan);
  EXPECT_NE(tracer.instant("b", "t"), obs::SpanTracer::kNoSpan);
  EXPECT_EQ(tracer.instant("c", "t"), obs::SpanTracer::kNoSpan);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(FlightRecorder, RingWrapsKeepingNewestOldestFirst) {
  obs::FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    recorder.record(millis(i), "track", "event", std::to_string(i));
  }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front()->detail, "12");  // oldest surviving
  EXPECT_EQ(events.back()->detail, "19");   // newest
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1]->seq, events[i]->seq);
  }
  std::string dump = recorder.dump();
  EXPECT_NE(dump.find("last 8 of 20"), std::string::npos) << dump;
  recorder.clear();
  EXPECT_TRUE(recorder.events().empty());
}

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(obs::json_valid("{\"a\": [1, 2.5e3, true, null, \"x\\n\"]}"));
  EXPECT_TRUE(obs::json_valid("[]"));
  std::string error;
  EXPECT_FALSE(obs::json_valid("{\"a\": }", &error));
  EXPECT_FALSE(obs::json_valid("[1, 2", &error));
  EXPECT_FALSE(obs::json_valid("{} trailing", &error));
  EXPECT_FALSE(obs::json_valid("{\"a\": NaN}", &error));
  EXPECT_FALSE(error.empty());
}

TEST(BenchResults, JsonIsWellFormed) {
  obs::BenchResult bench("unit");
  bench.add("latency_p50", 0.125, "s");
  bench.add_count("runs", 10);
  bench.add("weird", std::numeric_limits<double>::infinity());
  bench.add_note("mode", "test \"quoted\"");
  std::string json = bench.to_json();
  std::string error;
  EXPECT_TRUE(obs::json_valid(json, &error)) << json << " :: " << error;
  EXPECT_NE(json.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);  // inf -> null
}

TEST(Logging, ParseLevelAndSinkCapture) {
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud").has_value());

  Logger& logger = Logger::instance();
  LogLevel saved = logger.level();
  std::vector<std::string> captured;
  logger.set_sink([&](LogLevel, const char*, int, const std::string& msg) {
    captured.push_back(msg);
  });
  logger.set_level(LogLevel::kInfo);
  ZLOG_INFO("hello %d", 42);
  ZLOG_DEBUG("below threshold");
  logger.set_sink({});  // restore stderr
  logger.set_level(saved);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "hello 42");
}

// ---- pipeline integration ---------------------------------------------------

// One instrumented diamond-topology run: install an initial DAG and wait
// for convergence with the full bundle attached.
struct InstrumentedRun {
  std::string chrome_json;
  std::string metrics_text;
  std::uint64_t trace_fingerprint = 0;
  std::uint64_t metrics_fingerprint = 0;
  std::vector<obs::Span> spans;
};

InstrumentedRun run_instrumented(std::uint64_t seed) {
  obs::Observability o(128);
  ExperimentConfig config;
  config.seed = seed;
  config.kind = ControllerKind::kZenithNR;
  config.core.num_sequencers = 2;
  config.core.num_workers = 2;
  Experiment exp(gen::figure2_diamond(), config);
  exp.attach_observability(&o);
  exp.start();
  Workload workload(&exp, seed + 100);
  Dag dag = workload.initial_dag_for_pairs(
      {{SwitchId(0), SwitchId(3)}, {SwitchId(1), SwitchId(2)}});
  EXPECT_TRUE(exp.install_and_wait(std::move(dag), seconds(30)).has_value());
  InstrumentedRun run;
  run.chrome_json = obs::chrome_trace_json(o.tracer());
  run.metrics_text = o.snapshot().to_string();
  run.trace_fingerprint = o.tracer().fingerprint();
  run.metrics_fingerprint = o.snapshot().fingerprint();
  run.spans = o.tracer().spans();
  return run;
}

// Regression (monitoring_server audit): the batch-reply path must report
// batch_committed with the COMMITTED count, not the wire batch size —
// orphan entries (OPs this controller incarnation never registered) are
// filtered before the NIB transaction and only counted as orphan_acks, so
// a batch of 6 with 1 known OP is one commit of size 1, and an all-orphan
// batch is no commit at all. The kAck path already behaves this way
// (batch_committed(sw, 1) only when the single OP commits).
TEST(ObsBatchMetrics, BatchCommitReportsKnownOpsNotWireSize) {
  obs::Observability o(128);
  ExperimentConfig config;
  config.seed = 5;
  config.kind = ControllerKind::kZenithNR;
  Experiment exp(gen::figure2_diamond(), config);
  exp.attach_observability(&o);
  exp.start();

  auto make_op = [](std::uint32_t id) {
    Op op;
    op.id = OpId(id);
    op.type = OpType::kInstallRule;
    op.sw = SwitchId(0);
    op.rule = FlowRule{FlowId(id), SwitchId(0), SwitchId(3), SwitchId(1), 1};
    return op;
  };
  // One registered OP + five orphans (state a previous master installed).
  // The known OP is recorded SENT, as a Worker records it before the send:
  // the CommitPump commits only OPs still SENT.
  Op known = make_op(900);
  exp.nib().put_op(known);
  exp.nib().set_op_status(known.id, OpStatus::kSent);
  SwitchRequest req;
  req.type = SwitchRequest::Type::kBatch;
  req.batch.push_back(known);
  for (std::uint32_t id = 901; id <= 905; ++id) {
    req.batch.push_back(make_op(id));
  }
  exp.fabric().send(SwitchId(0), req);
  exp.run_for(millis(100));

  // Observed after the CommitPump step. Histogram bins on [1, 65) with 16
  // bins are 4 wide: a sample of 1 (the committed count) lands in bin 0;
  // the buggy wire size 6 would land in bin 1.
  Histogram& h =
      o.metrics().histogram("op_batch_size", {{"stage", "commit"}}, 1.0,
                            65.0, 16);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 0u);
  EXPECT_EQ(o.metrics().counter("orphan_acks", {}).value(), 5u);
  // The known OP committed exactly once.
  EXPECT_EQ(exp.nib().op_status(OpId(900)), OpStatus::kDone);
  EXPECT_TRUE(exp.nib().view_installed(SwitchId(0)).count(OpId(900)) > 0);

  // An all-orphan batch-ACK commits nothing and must not touch the
  // histogram.
  SwitchRequest orphans;
  orphans.type = SwitchRequest::Type::kBatch;
  for (std::uint32_t id = 910; id <= 912; ++id) {
    orphans.batch.push_back(make_op(id));
  }
  exp.fabric().send(SwitchId(0), orphans);
  exp.run_for(millis(100));
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(o.metrics().counter("orphan_acks", {}).value(), 8u);
}

TEST(ObsBatchMetrics, SingleOpBatchAckCommitsExactlyOnce) {
  // A size-1 kBatchAck (possible from a direct kBatch send; the sequencer
  // forwards singletons via the classic per-OP path) must commit the OP
  // once — not double-count through both reply paths.
  obs::Observability o(128);
  ExperimentConfig config;
  config.seed = 6;
  config.kind = ControllerKind::kZenithNR;
  Experiment exp(gen::figure2_diamond(), config);
  exp.attach_observability(&o);
  exp.start();

  Op op;
  op.id = OpId(950);
  op.type = OpType::kInstallRule;
  op.sw = SwitchId(1);
  op.rule = FlowRule{FlowId(950), SwitchId(1), SwitchId(2), SwitchId(2), 1};
  exp.nib().put_op(op);
  exp.nib().set_op_status(op.id, OpStatus::kSent);
  SwitchRequest req;
  req.type = SwitchRequest::Type::kBatch;
  req.batch.push_back(op);
  exp.fabric().send(SwitchId(1), req);
  exp.run_for(millis(100));

  EXPECT_EQ(exp.nib().op_status(OpId(950)), OpStatus::kDone);
  Histogram& h =
      o.metrics().histogram("op_batch_size", {{"stage", "commit"}}, 1.0,
                            65.0, 16);
  EXPECT_EQ(h.total(), 1u);  // exactly one commit sample, of size 1
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(o.metrics().counter("orphan_acks", {}).value(), 0u);
}

TEST(ObsPipeline, SpanGraphCoversTheFullOpLifecycle) {
  InstrumentedRun run = run_instrumented(7);

  // Parent integrity: every referenced parent exists and started no later
  // than its child.
  std::map<std::uint64_t, const obs::Span*> by_id;
  for (const obs::Span& span : run.spans) by_id[span.id] = &span;
  std::size_t parented = 0;
  for (const obs::Span& span : run.spans) {
    if (span.parent == obs::SpanTracer::kNoSpan) continue;
    ++parented;
    auto it = by_id.find(span.parent);
    ASSERT_NE(it, by_id.end()) << "dangling parent for span " << span.id;
    EXPECT_LE(it->second->start, span.start);
  }
  EXPECT_GT(parented, 0u);

  // The causal chain: a DAG lifecycle span; OP lifecycle spans parented to
  // it; send/ack/commit stages parented to the OPs; every OP span closed
  // with outcome=done after convergence.
  const obs::Span* dag_span = nullptr;
  std::size_t op_spans = 0, closed_done = 0;
  std::map<std::string, std::size_t> stages;
  for (const obs::Span& span : run.spans) {
    if (span.track == "dag" && span.async) dag_span = &span;
    if (span.track != "op") continue;
    ++op_spans;
    EXPECT_TRUE(span.async);
    ASSERT_NE(dag_span, nullptr);
    EXPECT_EQ(span.parent, dag_span->id);
    EXPECT_NE(span.end, kSimTimeNever) << span.name << " never closed";
    if (span.args.find("outcome=done") != std::string::npos) ++closed_done;
    for (const obs::Span& stage : run.spans) {
      if (stage.instant && stage.parent == span.id) ++stages[stage.name];
    }
  }
  EXPECT_EQ(op_spans, 4u);  // one per pair-path switch on the diamond
  EXPECT_EQ(closed_done, op_spans);
  EXPECT_EQ(stages["op-send"], op_spans);
  EXPECT_EQ(stages["op-ack"], op_spans);

  // Exporter output is strictly valid JSON.
  std::string error;
  EXPECT_TRUE(obs::json_valid(run.chrome_json, &error)) << error;
  EXPECT_NE(run.chrome_json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(run.chrome_json.find("\"ph\":\"b\""), std::string::npos);
}

TEST(ObsPipeline, IdenticalSeedsYieldByteIdenticalArtifacts) {
  InstrumentedRun a = run_instrumented(11);
  InstrumentedRun b = run_instrumented(11);
  EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
  EXPECT_EQ(a.metrics_fingerprint, b.metrics_fingerprint);
  EXPECT_EQ(a.chrome_json, b.chrome_json);    // byte-identical trace
  EXPECT_EQ(a.metrics_text, b.metrics_text);  // byte-identical snapshot
  InstrumentedRun c = run_instrumented(12);
  EXPECT_NE(a.trace_fingerprint, c.trace_fingerprint);
}

// ---- chaos-campaign contracts ----------------------------------------------

chaos::CampaignConfig small_campaign(std::uint64_t seed) {
  chaos::CampaignConfig config;
  config.topology = chaos::TopologyKind::kDiamond;
  config.seed = seed;
  config.schedule.horizon = seconds(4);
  config.schedule.fault_count = 8;
  config.initial_flows = 2;
  config.update_period = millis(40);
  return config;
}

TEST(ObsCampaign, FingerprintsAreSeedDeterministic) {
  chaos::CampaignConfig config = small_campaign(5);
  chaos::CampaignResult a = chaos::ChaosCampaign(config).run();
  chaos::CampaignResult b = chaos::ChaosCampaign(config).run();
  EXPECT_NE(a.trace_fingerprint, 0u);
  EXPECT_NE(a.metrics_fingerprint, 0u);
  EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
  EXPECT_EQ(a.metrics_fingerprint, b.metrics_fingerprint);
  EXPECT_EQ(a.verdict_digest(), b.verdict_digest());
  EXPECT_TRUE(a.ok) << a.summary();
  EXPECT_TRUE(a.flight_recorder_dump.empty());
}

TEST(ObsCampaign, ViolationAttachesFlightRecorderToShrunkReproducer) {
  // The §G ordering bug (mark UP before the deferred OP reset): seed 1 on
  // the diamond trips the hidden-entry oracle (same configuration the
  // chaos-coverage bench demos).
  chaos::CampaignConfig config = small_campaign(1);
  config.schedule.horizon = seconds(6);
  config.schedule.fault_count = 14;
  config.initial_flows = 2;
  config.update_period = millis(30);
  config.core.bugs.mark_up_before_reset = true;
  chaos::ChaosCampaign campaign(config);
  chaos::CampaignResult result = campaign.run();
  ASSERT_FALSE(result.ok);
  ASSERT_FALSE(result.flight_recorder_dump.empty());
  // The dump's last line is the oracle detection itself.
  EXPECT_NE(result.flight_recorder_dump.find("[oracle] violation"),
            std::string::npos);
  EXPECT_NE(result.flight_recorder_dump.find("hidden entry"),
            std::string::npos);

  chaos::ShrinkResult shrunk =
      chaos::shrink_schedule(config, campaign.schedule());
  EXPECT_LT(shrunk.minimal.size(), shrunk.original_events);
  ASSERT_FALSE(shrunk.minimal_result.ok);
  EXPECT_FALSE(shrunk.minimal_result.flight_recorder_dump.empty())
      << "shrunk reproducer must carry the flight-recorder dump";
}

}  // namespace
}  // namespace zenith
