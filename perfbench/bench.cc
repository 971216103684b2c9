#include "bench.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "core/controller.h"
#include "dag/compiler.h"

namespace perfbench {

namespace {

std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_start)
      .count();
}

}  // namespace

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::expect(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

void Report::merge(const std::vector<std::string>& findings) {
  problems.insert(problems.end(), findings.begin(), findings.end());
}

void mark_process_start() { g_start = std::chrono::steady_clock::now(); }

double elapsed_s() { return static_cast<double>(now_ns()) * 1e-9; }

Window::Window(const Options& options)
    : seconds_(options.seconds),
      trace_(options.trace),
      start_(perfbench::elapsed_s()) {}

bool Window::next() {
  double now = perfbench::elapsed_s();
  if (rounds_ > 0) last_round_s_ = now - round_start_;
  bool go = rounds_ == 0 || (trace_ && rounds_ < 2) ||
            now - start_ + last_round_s_ / 2 < seconds_;
  if (go) {
    ++rounds_;
    round_start_ = now;
  }
  return go;
}

double Window::elapsed_s() const { return perfbench::elapsed_s() - start_; }

void Rounds::add(double work, const std::vector<double>& ms) {
  std::vector<std::vector<double>> parts;
  parts.reserve(ms.size());
  for (double m : ms) parts.push_back({m});
  add_parts(work, parts);
}

bool Rounds::add_parts(double work,
                       const std::vector<std::vector<double>>& parts_ms) {
  if (best_ms_.empty()) {
    best_ms_ = parts_ms;
  } else {
    if (parts_ms.size() != best_ms_.size()) return false;
    for (std::size_t i = 0; i < parts_ms.size(); ++i) {
      if (parts_ms[i].size() != best_ms_[i].size()) return false;
    }
    for (std::size_t i = 0; i < parts_ms.size(); ++i) {
      for (std::size_t p = 0; p < parts_ms[i].size(); ++p) {
        best_ms_[i][p] = std::min(best_ms_[i][p], parts_ms[i][p]);
      }
    }
  }
  double total_ms = 0.0;
  for (const auto& parts : parts_ms) {
    total_ms += std::accumulate(parts.begin(), parts.end(), 0.0);
  }
  round_work_ = work;
  work_ += work;
  items_ += parts_ms.size();
  round_s_.push_back(total_ms * 1e-3);
  return true;
}

std::vector<double> Rounds::item_ms() const {
  std::vector<double> out;
  out.reserve(best_ms_.size());
  for (const auto& parts : best_ms_) {
    out.push_back(std::accumulate(parts.begin(), parts.end(), 0.0));
  }
  return out;
}

double Rounds::rate() const {
  std::vector<double> ms = item_ms();
  return ratio(round_work_, std::accumulate(ms.begin(), ms.end(), 0.0) * 1e-3);
}

double Rounds::latency_ms() const { return quantile(item_ms(), 0.5); }

void add_end_to_end(Report& report, double setup_s, const Rounds& untraced) {
  std::fprintf(stderr, "untraced rounds (s):");
  for (double s : untraced.round_s()) std::fprintf(stderr, " %.4g", s);
  std::fprintf(stderr, "\n");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add("throughput_per_s", untraced.rate(), "1/s");
  report.add("latency_ms_p50", untraced.latency_ms(), "ms");
}

void add_trace_summary(Report& report, const Tracer& tracer,
                       double traced_wall_s, const Rounds& untraced,
                       const Rounds& traced) {
  report.add("trace.wall_s", traced_wall_s, "s");
  report.add("trace.uncovered_share",
             1.0 - ratio(tracer.covered_s(), traced_wall_s), "share");
  report.add("trace.overhead", ratio(untraced.rate(), traced.rate()) - 1.0,
             "share");
}

Tracer::Layer Tracer::layer(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<Layer>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<Layer>(names_.size() - 1);
}

void Tracer::begin(Layer layer) {
  std::int64_t start = now_ns();
  std::int64_t record = -1;
  if (records_.size() < kMaxRecords) {
    record = static_cast<std::int64_t>(records_.size());
    records_.push_back({layer, stack_.empty() ? -1 : stack_.back().record,
                        request_, start, start});
  }
  stack_.push_back({layer, start, 0, record});
}

void Tracer::end(bool idle) {
  if (stack_.empty()) return;
  std::int64_t stop = now_ns();
  Frame frame = stack_.back();
  stack_.pop_back();
  std::int64_t duration = stop - frame.start_ns;
  Totals& t = totals_[frame.layer];
  ++t.count;
  if (idle) ++t.idle;
  t.total_s += static_cast<double>(duration) * 1e-9;
  t.self_s += static_cast<double>(duration - frame.child_ns) * 1e-9;
  if (frame.record >= 0) records_[frame.record].end_ns = stop;
  if (stack_.empty()) {
    covered_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", names_[r.layer].c_str(),
                 static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
  }
  std::fprintf(out, "],\n\"layers\":{");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const Totals& t = totals_[i];
    std::fprintf(out,
                 "%s\n\"%s\":{\"count\":%llu,\"idle\":%llu,\"total_s\":%.9f,"
                 "\"self_s\":%.9f}",
                 i == 0 ? "" : ",", names_[i].c_str(),
                 static_cast<unsigned long long>(t.count),
                 static_cast<unsigned long long>(t.idle), t.total_s,
                 t.self_s);
  }
  std::fprintf(out, "\n},\n\"kept_spans\":%zu}\n", records_.size());
  return std::fclose(out) == 0;
}

void reserve_op_ids(zenith::OpIdAllocator& ids,
                    const std::vector<zenith::Dag>& dags) {
  std::uint32_t highest = 0;
  for (const zenith::Dag& dag : dags) {
    for (zenith::OpId id : dag.op_ids()) highest = std::max(highest, id.value());
  }
  while (ids.next().value() < highest) {
  }
}

const std::vector<std::string>& component_kinds() {
  static const std::vector<std::string> kinds = {
      "dag_scheduler", "sequencer",    "nib_event_handler",
      "worker",        "monitoring",   "reply_router",
      "commit_pump",   "topo_handler", "failover_manager"};
  return kinds;
}

void trace_components(zenith::ZenithController& controller, Tracer& tracer) {
  for (zenith::Component* c : controller.components()) {
    std::string kind = c->name();
    while (!kind.empty() &&
           std::isdigit(static_cast<unsigned char>(kind.back()))) {
      kind.pop_back();
    }
    Tracer::Layer layer = tracer.layer("core." + kind);
    Tracer* t = &tracer;
    c->set_permit([t, layer] {
      if (t->on()) t->begin(layer);
      return true;
    });
    c->set_step_observer([t](bool did_work) {
      if (t->on()) t->end(/*idle=*/!did_work);
    });
  }
}

void add_core_metrics(Report& report, const Tracer& tracer) {
  for (const std::string& kind : component_kinds()) {
    Tracer::Totals t = tracer.totals("core." + kind);
    report.add("core." + kind + ".steps", static_cast<double>(t.count),
               "count");
    report.add("core." + kind + ".idle_steps", static_cast<double>(t.idle),
               "count");
    report.add("core." + kind + ".step_s", t.self_s, "s");
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double ratio(double value, double base) {
  return base == 0.0 ? 0.0 : value / base;
}

}  // namespace perfbench
