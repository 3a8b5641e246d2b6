#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "pcn/process.hpp"

namespace perfbench {

namespace {

/// What a copy of a traced call needs from its caller: the call span to
/// parent its own span on, the unit, and where to report its duration.
struct CallCtx {
  std::uint64_t span_id = 0;
  int unit = -1;
  std::atomic<std::uint64_t> slowest_ns{0};
};

/// The traced call each virtual processor is currently executing a copy
/// of.  Processor groups of concurrent calls are disjoint in every
/// workload, so one entry per processor suffices.
std::array<std::atomic<CallCtx*>, kMaxProcs> g_call_ctx{};

std::atomic<std::uint64_t> g_element_failures{0};

tdp::obs::ShardedCounter& counter(std::string_view name) {
  return tdp::obs::Registry::instance().counter(name);
}

}  // namespace

Counters Counters::read(tdp::core::Runtime& rt) {
  static tdp::obs::ShardedCounter& copied = counter("comm.bytes_copied");
  static tdp::obs::ShardedCounter& delivered = counter("comm.bytes_delivered");
  static tdp::obs::ShardedCounter& wakeups = counter("mailbox.wakeups");
  return Counters{rt.machine().messages_sent(), copied.value(),
                  delivered.value(), wakeups.value()};
}

Counters Counters::operator-(const Counters& o) const {
  return Counters{messages - o.messages, bytes_copied - o.bytes_copied,
                  bytes_delivered - o.bytes_delivered, wakeups - o.wakeups};
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

UnitLog::UnitLog(std::uint64_t start_ns) : block_start_ns_(start_ns) {}

void UnitLog::add(std::uint64_t at_ns, std::uint64_t dur_ns) {
  ++units_;
  open_.push_back(static_cast<double>(dur_ns));
  if (open_.size() >= kBlockUnits && at_ns >= block_start_ns_ + kBlockNs) {
    closed_.push_back(summarize(open_));
    open_.clear();
    block_start_ns_ = at_ns;
  }
}

UnitLog::Block UnitLog::summarize(const std::vector<double>& dur_ns) {
  double ns = 0.0;
  for (double d : dur_ns) ns += d;
  return Block{1e9 * static_cast<double>(dur_ns.size()) / std::max(ns, 1.0),
               perfbench::quantile(dur_ns, 0.5) * 1e-6,
               perfbench::quantile(dur_ns, 0.9) * 1e-6};
}

std::vector<UnitLog::Block> UnitLog::blocks() const {
  if (closed_.empty() && !open_.empty()) return {summarize(open_)};
  return closed_;
}

double UnitLog::throughput() const {
  std::vector<double> v;
  for (const Block& b : blocks()) v.push_back(b.throughput);
  return perfbench::quantile(v, 0.75);
}

double UnitLog::p50_ms() const {
  std::vector<double> v;
  for (const Block& b : blocks()) v.push_back(b.p50_ms);
  return perfbench::quantile(v, 0.25);
}

double UnitLog::p90_ms() const {
  std::vector<double> v;
  for (const Block& b : blocks()) v.push_back(b.p90_ms);
  return perfbench::quantile(v, 0.25);
}

Phase run_units(tdp::core::Runtime& rt, double seconds,
                const std::function<bool(int)>& unit) {
  Phase out;
  const Counters before = Counters::read(rt);
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  out.units = UnitLog(start);
  std::uint64_t wakeups = before.wakeups;
  for (int k = 0; now_ns() < deadline; ++k) {
    const std::uint64_t t0 = now_ns();
    const bool ok = unit(k);
    const std::uint64_t t1 = now_ns();
    out.units.add(t1, t1 - t0);
    ++out.attempted;
    if (!ok) ++out.failed;
    const std::uint64_t w = Counters::read(rt).wakeups;
    out.wakeups.add(w - wakeups);
    wakeups = w;
  }
  out.counters = Counters::read(rt) - before;
  return out;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

int run_call(tdp::core::DistributedCall& call, const std::vector<int>& procs,
             Kind body) {
  if (!trace::enabled()) return call.run();
  Span span(Kind::Call);
  CallCtx ctx;
  ctx.span_id = span.id();
  ctx.unit = trace::unit();
  for (int p : procs) g_call_ctx.at(static_cast<std::size_t>(p)).store(&ctx);
  const int status = call.run();
  for (int p : procs) g_call_ctx.at(static_cast<std::size_t>(p)).store(nullptr);
  const std::uint64_t slowest = ctx.slowest_ns.load();
  Attribution child{};
  child[static_cast<std::size_t>(body)] = slowest;
  span.add_remote_child(child);
  const std::uint64_t dur = span.close();
  trace::record(Derived::CopyExec, slowest);
  trace::record(Derived::CallOverhead, dur > slowest ? dur - slowest : 0);
  if (body == Kind::Fft) trace::record(Derived::FftExec, slowest);
  if (body == Kind::Lu) trace::record(Derived::LuExec, slowest);
  if (body == Kind::Qr) trace::record(Derived::QrExec, slowest);
  return status;
}

void wrap_program(tdp::core::ProgramRegistry& registry, const std::string& name,
                  Kind body, CopyHook after) {
  tdp::core::DataParallelProgram program;
  if (!registry.find(name, program)) {
    throw std::runtime_error("perfbench: program not registered: " + name);
  }
  registry.add(name, [program, body, after](tdp::spmd::SpmdContext& ctx,
                                            tdp::core::CallArgs& args) {
    CallCtx* call = g_call_ctx.at(static_cast<std::size_t>(ctx.proc())).load();
    if (call == nullptr) {
      program(ctx, args);
    } else {
      trace::SlotScope slot(kCopySlotBase + ctx.proc());
      trace::set_unit(call->unit);
      Span span(body, call->span_id);
      program(ctx, args);
      const std::uint64_t dur = span.close();
      std::uint64_t prev = call->slowest_ns.load();
      while (prev < dur && !call->slowest_ns.compare_exchange_weak(prev, dur)) {
      }
    }
    if (after) after(ctx, args);
  });
}

bool read_element(tdp::core::Runtime& rt, tdp::dist::ArrayId id, int index,
                  double& out) {
  const int idx[1] = {index};
  tdp::dist::Scalar v;
  tdp::Status st;
  {
    Span span(Kind::Read);
    st = rt.arrays().read_element(0, id, idx, v);
  }
  if (st != tdp::Status::Ok) {
    g_element_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  out = tdp::dist::scalar_to_double(v);
  return true;
}

bool write_element(tdp::core::Runtime& rt, tdp::dist::ArrayId id, int index,
                   double value) {
  const int idx[1] = {index};
  tdp::Status st;
  {
    Span span(Kind::Write);
    st = rt.arrays().write_element(0, id, idx, tdp::dist::Scalar{value});
  }
  if (st != tdp::Status::Ok) {
    g_element_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::uint64_t element_failures() {
  return g_element_failures.load(std::memory_order_relaxed);
}

void run_par(std::vector<std::function<void()>> branches) {
  if (!trace::enabled()) {
    tdp::pcn::par(std::move(branches));
    return;
  }
  Span par(Kind::Par);
  const int unit = trace::unit();
  std::mutex mutex;
  std::uint64_t slowest = 0;
  Attribution slowest_attr{};
  std::vector<tdp::pcn::Block> wrapped;
  for (std::size_t i = 0; i < branches.size(); ++i) {
    wrapped.emplace_back([&, i, parent = par.id()] {
      trace::SlotScope slot(1 + static_cast<int>(i));
      trace::set_unit(unit);
      Span branch(Kind::Branch, parent);
      branches[i]();
      const std::uint64_t dur = branch.close();
      std::lock_guard<std::mutex> lock(mutex);
      if (dur >= slowest) {
        slowest = dur;
        slowest_attr = branch.attribution();
      }
    });
  }
  tdp::pcn::par(std::move(wrapped));
  par.add_remote_child(slowest_attr);
  const std::uint64_t dur = par.close();
  trace::record(Derived::ParOverhead, dur > slowest ? dur - slowest : 0);
}

}  // namespace perfbench
