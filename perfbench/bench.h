// Shared pieces of the benchmark runner: options, the report a workload
// hands back, wall-clock spans for the traced mode, and small statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace zenith {
class Dag;
class OpIdAllocator;
class ZenithController;
}  // namespace zenith

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window; workloads run whole rounds until it ends.
  double seconds = 10.0;
  /// Traced mode: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to the runner.
struct Report {
  /// Operations attempted and failed (DAGs, campaigns or model checks).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Findings of the correctness checks; empty means every output checked.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  void expect(bool ok, const std::string& what);
  void merge(const std::vector<std::string>& findings);
};

/// Seconds on the steady clock since mark_process_start() (called first
/// thing in main, so set-up is timed from the process's start).
void mark_process_start();
double elapsed_s();

/// The timed window: whole rounds run until the window is over, the last
/// ending as near its end as whole rounds allow. Traced runs alternate
/// untraced and traced rounds and run at least one of each.
class Window {
 public:
  explicit Window(const Options& options);

  /// Starts the next round if it fits; false when the window is over.
  bool next();
  std::size_t rounds() const { return rounds_; }
  /// Whether the current round is a traced one.
  bool traced() const { return trace_ && rounds_ % 2 == 0; }
  double elapsed_s() const;

 private:
  double seconds_;
  bool trace_;
  double start_;
  double round_start_ = 0.0;
  double last_round_s_ = 0.0;
  std::size_t rounds_ = 0;
};

class Tracer;

/// Item latencies of the rounds of one kind (untraced or traced). Every
/// round runs the same items (DAGs, campaigns or checks) in the same order
/// on the same simulated run, so repeats of an item do identical work. An
/// item may be timed in parts (a soak DAG in its simulator slices), each
/// part doing identical work on every repeat too.
///
/// The end-to-end figures take each part's fastest repeat: a shared host
/// alternates, at every time scale from tens of milliseconds to minutes,
/// between its full speed and states up to ~2x slower (a fixed CPU-bound
/// loop took 24 ms to 52 ms, thread CPU time tracking wall time, no steal
/// time counted), so a run's mean or median moves with how much of it fell
/// into slow stretches, while the fastest repeat of a short piece of work
/// tracks the code's own speed. Pieces must be short for that: a 0.5 s
/// piece rarely runs entirely in a fast stretch. On the same runs, the
/// fastest repeat spread less from run to run than the 5th, 10th, 25th or
/// 50th percentile of the repeats, on every workload.
class Rounds {
 public:
  /// Records one round of `work` (OPs, campaigns or states) done by items
  /// of one part each, taking `ms`.
  void add(double work, const std::vector<double>& ms);
  /// Records one round whose items took `parts_ms` part by part. False
  /// (and nothing recorded) when an item's part count differs from the
  /// first round's: the simulated run did not repeat.
  bool add_parts(double work, const std::vector<std::vector<double>>& parts_ms);

  /// Each item's time made of its parts' fastest repeats, ms.
  std::vector<double> item_ms() const;
  /// Work per second of a round made of every part's fastest repeat.
  double rate() const;
  /// Median of item_ms().
  double latency_ms() const;

  /// Totals over all rounds.
  double work() const { return work_; }
  std::size_t items() const { return items_; }
  /// Summed time of each round, s (printed to show the host's speed states).
  const std::vector<double>& round_s() const { return round_s_; }

 private:
  /// Fastest repeat of every part: best_ms_[item][part].
  std::vector<std::vector<double>> best_ms_;
  double round_work_ = 0.0;
  double work_ = 0.0;
  std::size_t items_ = 0;
  std::vector<double> round_s_;
};

/// Adds setup_s, peak_rss_mib, throughput_per_s and latency_ms_p50.
void add_end_to_end(Report& report, double setup_s, const Rounds& untraced);

/// Adds trace.wall_s, trace.uncovered_share and trace.overhead (the
/// untraced rounds' rate over the traced rounds', minus 1).
void add_trace_summary(Report& report, const Tracer& tracer,
                       double traced_wall_s, const Rounds& untraced,
                       const Rounds& traced);

/// Wall-clock spans recorded from the benchmark's own code around each
/// call into a layer. Spans nest (a component step inside a run_until
/// slice, a transport send inside a worker step); each layer's self time
/// is its spans' durations minus the time their child spans cover. Counts
/// and times are aggregated per layer; the first kMaxRecords spans are
/// also kept individually and written out at the end.
class Tracer {
 public:
  using Layer = std::uint32_t;

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t idle = 0;  // spans closed with idle=true (steps w/o work)
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Interns a layer name.
  Layer layer(const std::string& name);

  /// Spans are recorded only while on.
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// The request (round or DAG) that subsequent spans belong to.
  void set_request(std::uint64_t id) { request_ = id; }

  void begin(Layer layer);
  void end(bool idle = false);

  Totals totals(const std::string& name) const;
  /// Time covered by outermost spans: the part of the traced wall time
  /// that some layer accounts for.
  double covered_s() const { return covered_ns_ * 1e-9; }

  /// Writes the kept spans as Chrome trace-event JSON plus the per-layer
  /// totals. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t record;  // index into records_, -1 when not kept
  };
  struct Record {
    Layer layer;
    std::int64_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::size_t kMaxRecords = 200000;

  bool on_ = false;
  std::uint64_t request_ = 0;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::int64_t covered_ns_ = 0;
};

/// RAII span; free when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, Tracer::Layer layer)
      : tracer_(tracer.on() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Advances a controller's OP-id allocator past every OP id in `dags`.
/// Inputs are generated before the controller exists, and the controller
/// allocates ids of its own (recovery CLEAR_TCAMs, implicit deletions); this
/// keeps the two ranges apart.
void reserve_op_ids(zenith::OpIdAllocator& ids,
                    const std::vector<zenith::Dag>& dags);

/// Component kinds of ZenithController::components() on the soak and wire
/// pipelines, in the order their per-layer metrics are reported.
const std::vector<std::string>& component_kinds();

/// Times every step of every controller component through the public
/// Component::set_permit (always grants; opens the span) and
/// set_step_observer (closes it, noting steps that did no work) hooks.
void trace_components(zenith::ZenithController& controller, Tracer& tracer);

/// Adds core.<kind>.{steps,idle_steps,step_s} for every component kind.
void add_core_metrics(Report& report, const Tracer& tracer);

/// q-th quantile (0..1) with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process image (VmHWM: the RSS of a
/// parent before exec does not count), MiB.
double peak_rss_mib();

/// Divides, giving 0 when the base is 0 (a layer the workload never uses).
double ratio(double value, double base);

}  // namespace perfbench
