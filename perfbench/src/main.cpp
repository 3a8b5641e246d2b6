// perfbench: runs one workload of a paper program at its fixed size and
// prints its metrics.
//
//   perfbench --workload pipeline|climate|solver --seed N --seconds S
//             --trace 0|1 [--commit ID] [--trace-out FILE] [--tiny]
//
// --trace 0 sets up at least kMinSetups times and for at least
// kSetupSeconds (the median is setup_s), then measures for S seconds and
// prints the end-to-end metrics.  --trace 1 sets up once, runs S/2 seconds
// untraced and S/2 traced, and prints the per-layer metrics,
// the blocking-path accounting and the tracing overhead.  The last line of
// stdout is one JSON object: correct, attempted, failed, metrics.  The exit
// code is 0 only when every unit passed its checks; 2 on a usage or
// configuration error, before anything runs.  --tiny runs the smoke test's
// input sizes.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

// A set-up takes from under 1 ms (climate) to ~30 ms (solver); repeating it
// for a fixed time gives the median enough samples on every workload.
constexpr std::size_t kMinSetups = 15;
constexpr double kSetupSeconds = 2.0;
// With the set-ups and the drain this stays well inside run.py's timeout.
constexpr double kMaxSeconds = 60.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) refuse("missing value for " + arg);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > kMaxSeconds) {
        refuse("--seconds must be in (0, 60]");
      }
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") refuse("--trace must be 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (arg == "--commit") {
      o.commit = v;
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else {
      refuse("unknown argument " + arg);
    }
  }
  if (!have_seed) refuse("--seed N is required");
  if (!have_trace) refuse("--trace 0|1 is required");
  if (o.seconds <= 0.0) refuse("--seconds S is required");
  return o;
}

/// Every number must be what a user of the default configuration gets.
void guard_configuration() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TDP_", 4) == 0) {
      const std::string var = *e;
      refuse("refusing to run with " + var.substr(0, var.find('=')) +
             " set: the benchmark measures the default configuration");
    }
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    refuse(std::string("refusing to run a ") + PERFBENCH_BUILD_TYPE +
           " build: build with -DCMAKE_BUILD_TYPE=Release");
  }
}

/// VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it would
/// report the launching process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void emit(const Metrics& m, bool correct, std::uint64_t attempted,
          std::uint64_t failed) {
  for (const auto& [name, vu] : m) {
    std::printf("metric %-34s %.6g %s\n", name.c_str(), vu.first, vu.second);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m[i].first.c_str(), m[i].second.first, m[i].second.second);
  }
  std::printf("}}\n");
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "pipeline") return make_pipeline(o.seed, o.tiny);
  if (o.workload == "climate") return make_climate(o.seed, o.tiny);
  if (o.workload == "solver") return make_solver(o.seed, o.tiny);
  refuse("unknown workload '" + o.workload + "' (pipeline, climate, solver)");
}

int end_to_end(const Options& o, Workload& w) {
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t setup_end =
      now_ns() + static_cast<std::uint64_t>(kSetupSeconds * 1e9);
  while (setup_s.size() < kMinSetups || now_ns() < setup_end) {
    w.teardown();
    const std::uint64_t t0 = now_ns();
    const bool ok = w.setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    ++attempted;
    if (!ok) ++failed;
  }
  const Phase p = w.run(o.seconds);
  w.teardown();
  attempted += p.attempted;
  failed += p.failed;

  std::printf("unit_samples %llu  blocks %zu  units_attempted %llu  setups %zu\n",
              static_cast<unsigned long long>(p.units.units()), p.units.blocks().size(),
              static_cast<unsigned long long>(p.attempted), setup_s.size());
  const double fail_ratio = static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("fail_ratio %.6g (failed units / attempted, setup warm-ups included)\n",
              fail_ratio);
  const Metrics m = {
      {"throughput_per_s", {p.units.throughput(), "1/s"}},
      {"unit_p50_ms", {p.units.p50_ms(), "ms"}},
      {"unit_p90_ms", {p.units.p90_ms(), "ms"}},
      {"setup_s", {quantile(setup_s, 0.5), "s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
      {"ok_ratio", {1.0 - fail_ratio, "ratio"}},
  };
  const bool correct = failed == 0 && p.units.units() > 0;
  emit(m, correct, attempted, failed);
  return correct ? 0 : 1;
}

double us(double ns) { return ns * 1e-3; }

int per_layer(const Options& o, Workload& w) {
  std::uint64_t attempted = 1;
  std::uint64_t failed = w.setup() ? 0 : 1;
  const Phase plain = w.run(o.seconds / 2);
  trace::reset();
  trace::set_enabled(true);
  const Phase traced = w.run(o.seconds / 2);
  trace::set_enabled(false);
  w.teardown();
  attempted += plain.attempted + traced.attempted;
  failed += plain.failed + traced.failed;

  const TraceReport r = collect();
  const double units = static_cast<double>(std::max<std::uint64_t>(traced.attempted, 1));
  const auto count = [&](Kind k) {
    return static_cast<double>(r.kinds[static_cast<std::size_t>(k)].count);
  };
  const auto p = [&](Kind k, double q) {
    return us(r.kinds[static_cast<std::size_t>(k)].dur.quantile(q));
  };
  const auto d50 = [&](Derived d) {
    return us(r.derived[static_cast<std::size_t>(d)].quantile(0.5));
  };

  // Self time and count of every span kind, over all threads.
  std::printf("%-20s %-13s %14s %16s %12s\n", "span", "layer", "count/unit",
              "self_us/unit", "dur_p50_us");
  for (std::size_t k = 0; k < kKinds; ++k) {
    const KindTotals& t = r.kinds[k];
    if (t.count == 0) continue;
    std::printf("%-20s %-13s %14.6g %16.6g %12.6g\n", kind_name(static_cast<Kind>(k)),
                kind_layer(static_cast<Kind>(k)), static_cast<double>(t.count) / units,
                us(static_cast<double>(t.self_ns)) / units, us(t.dur.quantile(0.5)));
  }

  // The blocking path: the units on the main thread, or, for the pipeline,
  // each stage's own timeline; the bottleneck stage waits least.
  const std::vector<std::string> stages = w.stage_names();
  std::map<std::string, double> wait_share;
  std::map<std::string, double> busy_share;
  RootTotals path = r.units;
  std::string path_name = "unit";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const RootTotals& b = r.branches[1 + i];
    const double dur = static_cast<double>(std::max<std::uint64_t>(b.dur_ns, 1));
    const double wait = static_cast<double>(b.attr[static_cast<std::size_t>(Kind::Next)]) / dur;
    const double busy =
        static_cast<double>(b.attr[static_cast<std::size_t>(Kind::Read)] +
                            b.attr[static_cast<std::size_t>(Kind::Write)]) / dur;
    wait_share[stages[i]] = wait;
    busy_share[stages[i]] = busy;
    std::printf("stage %-8s wait_share %.4f  element_busy_share %.4f\n",
                stages[i].c_str(), wait, busy);
    if (path_name == "unit" || wait < wait_share.at(path_name)) {
      path = b;
      path_name = stages[i];
    }
  }
  if (!stages.empty()) std::printf("bottleneck stage: %s\n", path_name.c_str());
  std::map<std::string, double> layer_ns;
  for (std::size_t k = 0; k < kKinds; ++k) {
    layer_ns[kind_layer(static_cast<Kind>(k))] += static_cast<double>(path.attr[k]);
  }
  const double path_ns = static_cast<double>(std::max<std::uint64_t>(path.dur_ns, 1));
  std::printf("accounting (%s, per unit, blocking path):", path_name.c_str());
  for (const auto& [layer, ns] : layer_ns) {
    std::printf("  %s %.6g us", layer.c_str(), us(ns) / units);
  }
  std::printf("  | total %.6g us\n", us(path_ns) / units);
  const double path_busy =
      static_cast<double>(path.attr[static_cast<std::size_t>(Kind::Read)] +
                          path.attr[static_cast<std::size_t>(Kind::Write)]) / path_ns;

  const double lu_us = d50(Derived::LuExec);
  if (lu_us > 0.0) {
    std::printf("linalg.lu_gflops is computed: 2/3 n^3 flops over the LU time, not counted\n");
  }
  const double plain_tp = plain.units.throughput();
  const double traced_tp = traced.units.throughput();
  const double trace_overhead = traced_tp > 0.0 ? plain_tp / traced_tp - 1.0 : 0.0;
  std::printf("tracing overhead: untraced %.6g units/s, traced %.6g units/s (%+.2f%%)\n",
              plain_tp, traced_tp, 100.0 * trace_overhead);

  Metrics m = {
      {"core.call_us.p50", {p(Kind::Call, 0.5), "us"}},
      {"core.call_us.p90", {p(Kind::Call, 0.9), "us"}},
      {"core.copy_exec_us.p50", {d50(Derived::CopyExec), "us"}},
      {"core.call_overhead_us.p50", {d50(Derived::CallOverhead), "us"}},
      {"core.calls_per_unit", {count(Kind::Call) / units, "count"}},
      {"dist.read_element_us.p50", {p(Kind::Read, 0.5), "us"}},
      {"dist.write_element_us.p50", {p(Kind::Write, 0.5), "us"}},
      {"dist.element_ops_per_unit", {(count(Kind::Read) + count(Kind::Write)) / units, "count"}},
      {"dist.busy_share", {path_busy, "ratio"}},
      {"dist.failures", {static_cast<double>(element_failures()), "count"}},
      {"pcn.stream_wait_share",
       {stages.empty() ? 0.0 : wait_share.at(path_name), "ratio"}},
      {"pcn.par_overhead_us.p50", {d50(Derived::ParOverhead), "us"}},
      {"vp.messages_per_unit", {static_cast<double>(traced.counters.messages) / units, "count"}},
      {"comm.bytes_copied_per_unit",
       {static_cast<double>(traced.counters.bytes_copied) / units, "bytes"}},
      {"comm.bytes_delivered_per_unit",
       {static_cast<double>(traced.counters.bytes_delivered) / units, "bytes"}},
      {"mailbox.wakeups_per_unit", {static_cast<double>(traced.counters.wakeups) / units, "count"}},
      {"mailbox.wakeups_per_unit.p25", {traced.wakeups.quantile(0.25), "count"}},
      {"mailbox.wakeups_per_unit.p75", {traced.wakeups.quantile(0.75), "count"}},
      {"fft.exec_us.p50", {d50(Derived::FftExec), "us"}},
      {"linalg.lu_us.p50", {lu_us, "us"}},
      {"linalg.qr_us.p50", {d50(Derived::QrExec), "us"}},
      {"linalg.lu_gflops", {lu_us > 0.0 ? w.lu_flops() / (lu_us * 1e3) : 0.0, "GFLOP/s"}},
  };
  for (const auto& [layer, ns] : layer_ns) {
    if (layer == "unattributed") continue;
    m.push_back({"account." + layer + "_us_per_unit", {us(ns) / units, "us"}});
  }
  m.push_back({"account.unattributed_share", {layer_ns.at("unattributed") / path_ns, "ratio"}});
  // Every workload prints the pipeline's per-stage names; one without
  // stages has no time to share among them and reports 0.
  for (const std::string& s : kPipelineStages) {
    const bool staged = !stages.empty();
    m.push_back({"pcn.stream_wait_share." + s, {staged ? wait_share.at(s) : 0.0, "ratio"}});
    m.push_back({"dist.busy_share." + s, {staged ? busy_share.at(s) : 0.0, "ratio"}});
  }
  m.push_back({"trace.overhead_share", {trace_overhead, "ratio"}});
  m.push_back({"trace.spans", {static_cast<double>(r.spans_total), "count"}});

  if (!o.trace_out.empty()) {
    if (!write_spans(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    } else {
      std::printf("spans: %llu recorded, first %llu written to %s\n",
                  static_cast<unsigned long long>(r.spans_total),
                  static_cast<unsigned long long>(r.spans_kept), o.trace_out.c_str());
    }
  }
  const bool correct = failed == 0 && traced.units.units() > 0;
  emit(m, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  guard_configuration();
  std::unique_ptr<Workload> w = make(o);
  std::printf(
      "config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"tiny\": %s, \"nproc\": %ld, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\"}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.tiny ? "true" : "false",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      o.commit.c_str());
  std::fflush(stdout);
  return o.trace ? per_layer(o, *w) : end_to_end(o, *w);
}
