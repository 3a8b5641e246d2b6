// The benchmark's harness: the workload interface, the runtime counters a
// phase is charged with, and the traced wrappers through which workloads
// make every library call.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "pcn/stream.hpp"
#include "trace.hpp"

namespace perfbench {

/// Counters the runtime keeps with obs off.
struct Counters {
  std::uint64_t messages = 0;         // vp::Machine::messages_sent
  std::uint64_t bytes_copied = 0;     // comm.bytes_copied
  std::uint64_t bytes_delivered = 0;  // comm.bytes_delivered
  std::uint64_t wakeups = 0;          // mailbox.wakeups

  static Counters read(tdp::core::Runtime& rt);
  Counters operator-(const Counters& o) const;
};

/// Linear-interpolation quantile (numpy's default), q in [0, 1]; 0 if empty.
/// For lists held in memory: one block's unit times, per-block values and
/// set-up times.  Unbounded streams of values go into a Histogram.
double quantile(std::vector<double> v, double q);

/// The timed units of a phase, cut into blocks of at least kBlockUnits
/// units and kBlockNs of wall time.  A shared host only ever slows a block
/// (a stolen vCPU, a late wake-up), so each metric is read from the quarter
/// of blocks it disturbed least: the upper quartile of block throughput and
/// the lower quartile of block unit-time quantiles.  A change to the
/// program moves every block, so it still shows.
class UnitLog {
 public:
  static constexpr std::uint64_t kBlockNs = 200'000'000;
  static constexpr std::size_t kBlockUnits = 20;
  explicit UnitLog(std::uint64_t start_ns = 0);
  /// A unit of `dur_ns` that completed at `at_ns`.
  void add(std::uint64_t at_ns, std::uint64_t dur_ns);
  std::uint64_t units() const { return units_; }
  /// Units per second: a block's units over their summed time.
  double throughput() const;
  /// Median and 90th percentile of unit time (ms) within a block.
  double p50_ms() const;
  double p90_ms() const;

  struct Block {
    double throughput = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
  };
  /// The closed blocks, or, when none closed, the open one.
  std::vector<Block> blocks() const;

 private:
  static Block summarize(const std::vector<double>& dur_ns);

  std::uint64_t block_start_ns_ = 0;
  std::uint64_t units_ = 0;
  std::vector<double> open_;
  std::vector<Block> closed_;
};

/// The outcome of one measured phase.
struct Phase {
  UnitLog units;
  /// Every unit run in the phase, timed or not, and those that failed a
  /// call status or an output check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counter deltas over all attempted units, and the mailbox.wakeups delta
  /// of each unit (timing-dependent, so reported with its spread).
  Counters counters;
  Histogram wakeups;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runtime start, program registration, array creation, initial loads
  /// and one untimed warm-up unit; returns whether the warm-up unit passed
  /// its checks.  Replaces the runtime of any earlier setup().
  virtual bool setup() = 0;
  /// Runs units for `seconds`, then lets any in-flight units finish.
  virtual Phase run(double seconds) = 0;
  /// Destroys the runtime.
  virtual void teardown() = 0;
  /// Names of the par branches, by slot (pipeline stages); empty otherwise.
  virtual std::vector<std::string> stage_names() const { return {}; }
  /// LU flop count per unit (2/3 n^3), 0 when the workload runs no LU.
  virtual double lu_flops() const { return 0.0; }
};

/// The pipeline's par branches, in slot order.  Its per-stage metrics are
/// named after them.
inline const std::vector<std::string> kPipelineStages = {
    "feed", "inv_a", "inv_b", "combine", "fwd", "sink"};

/// Input sizes: the benchmark's fixed size, or a tiny one for the smoke test.
std::unique_ptr<Workload> make_pipeline(std::uint64_t seed, bool tiny);
std::unique_ptr<Workload> make_climate(std::uint64_t seed, bool tiny);
std::unique_ptr<Workload> make_solver(std::uint64_t seed, bool tiny);

/// Runs `unit(0)`, `unit(1)`, ... back to back on the calling thread until
/// `seconds` have passed; every unit is timed and charged to the phase.
Phase run_units(tdp::core::Runtime& rt, double seconds,
                const std::function<bool(int)>& unit);

/// splitmix64: every input is a pure function of the seed and an index.
std::uint64_t mix(std::uint64_t x);
/// Uniform in [-1, 1) from a 64-bit hash.
double unit_uniform(std::uint64_t h);

/// DistributedCall::run, traced as a core.call span whose blocking-path
/// child is the slowest copy of `body` (see wrap_program).
int run_call(tdp::core::DistributedCall& call, const std::vector<int>& procs,
             Kind body);

/// Re-registers `name` around the library program so each copy is timed as
/// a `body` span.  `after`, when given, runs in every copy after the body,
/// outside its span.  Re-registering drops the program's border routine, so
/// wrap only after the arrays that name it have been created.
using CopyHook = std::function<void(tdp::spmd::SpmdContext&, tdp::core::CallArgs&)>;
void wrap_program(tdp::core::ProgramRegistry& registry, const std::string& name,
                  Kind body, CopyHook after = nullptr);

/// ArrayManager element calls from processor 0 on 1-D arrays, traced.
/// A failed call is counted in element_failures() and returns false.
bool read_element(tdp::core::Runtime& rt, tdp::dist::ArrayId id, int index,
                  double& out);
bool write_element(tdp::core::Runtime& rt, tdp::dist::ArrayId id, int index,
                   double value);
std::uint64_t element_failures();

/// pcn::par over `branches`; branch i runs in trace slot 1 + i, and the
/// par's blocking-path child is the slowest branch.
void run_par(std::vector<std::function<void()>> branches);

template <typename T>
std::optional<T> next(tdp::pcn::Stream<T>& s) {
  Span span(Kind::Next);
  return s.next();
}

template <typename T>
tdp::pcn::Stream<T> put(const tdp::pcn::Stream<T>& s, T value) {
  Span span(Kind::Put);
  return s.put(std::move(value));
}

}  // namespace perfbench
