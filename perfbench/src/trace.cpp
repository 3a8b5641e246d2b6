#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

// Enough retained records to follow several units of every workload end to
// end; aggregates cover every span regardless.
constexpr std::size_t kSpansPerSlot = 16384;

struct KindAgg {
  std::uint64_t count = 0;
  std::uint64_t self_ns = 0;
  Histogram dur;
};

struct SlotState {
  std::array<KindAgg, kKinds> kinds;
  std::array<Histogram, kDerived> derived;
  RootTotals unit_roots;
  RootTotals branch_roots;
  std::vector<SpanRecord> spans;
  std::uint64_t spans_total = 0;
  std::uint64_t next_seq = 0;
};

std::array<SlotState, kSlots> g_slots;
std::atomic<bool> g_enabled{false};
thread_local int t_slot = 0;
thread_local int t_unit = -1;
thread_local Span* t_current = nullptr;

void add_root(RootTotals& r, std::uint64_t dur, const Attribution& a) {
  r.dur_ns += dur;
  for (std::size_t k = 0; k < kKinds; ++k) r.attr[k] += a[k];
}

}  // namespace

const char* kind_name(Kind k) {
  static constexpr std::array<const char*, kKinds> names = {
      "bench.unit",        "pcn.branch",         "pcn.par",
      "pcn.next",          "pcn.put",            "core.call",
      "dist.read_element", "dist.write_element", "fft.exec",
      "linalg.lu",         "linalg.qr",          "linalg.heat_step",
      "app.fill",          "app.combine"};
  return names[static_cast<std::size_t>(k)];
}

const char* kind_layer(Kind k) {
  switch (k) {
    case Kind::Unit:
    case Kind::Branch:
      return "unattributed";
    case Kind::Par:
    case Kind::Next:
    case Kind::Put:
      return "pcn";
    case Kind::Call:
      return "core";
    case Kind::Read:
    case Kind::Write:
      return "dist";
    case Kind::Fft:
      return "fft";
    case Kind::Lu:
    case Kind::Qr:
    case Kind::Heat:
      return "linalg";
    case Kind::Fill:
    case Kind::Combine:
    case Kind::Count:
      break;
  }
  return "app";
}

void Histogram::add(std::uint64_t v) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  std::size_t index = 0;
  if (v < 256) {
    index = static_cast<std::size_t>(v);
  } else {
    const int width = std::bit_width(v);  // 9..64
    const std::uint64_t mant = (v >> (width - 8)) & 0x7F;
    index = 256 + static_cast<std::size_t>(width - 9) * 128 +
            static_cast<std::size_t>(mant);
  }
  ++buckets_[index];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen <= rank) continue;
    if (i < 256) return static_cast<double>(i);
    const std::size_t width = (i - 256) / 128 + 9;
    const std::uint64_t mant = (i - 256) % 128;
    const double lo = std::ldexp(static_cast<double>(128 + mant),
                                 static_cast<int>(width) - 8);
    const double step = std::ldexp(1.0, static_cast<int>(width) - 8);
    return lo + 0.5 * step;
  }
  return 0.0;
}

namespace trace {

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
void set_unit(int unit) { t_unit = unit; }
int unit() { return t_unit; }

SlotScope::SlotScope(int slot) : saved_(t_slot) { t_slot = slot; }
SlotScope::~SlotScope() { t_slot = saved_; }

void record(Derived d, std::uint64_t ns) {
  if (!enabled()) return;
  g_slots[static_cast<std::size_t>(t_slot)]
      .derived[static_cast<std::size_t>(d)]
      .add(ns);
}

void reset() {
  for (SlotState& s : g_slots) s = SlotState{};
}

}  // namespace trace

Span::Span(Kind kind, std::uint64_t remote_parent) : kind_(kind) {
  if (!trace::enabled()) return;
  SlotState& slot = g_slots[static_cast<std::size_t>(t_slot)];
  open_ = true;
  outer_ = t_current;
  parent_ = outer_ != nullptr ? outer_->id_ : remote_parent;
  id_ = (static_cast<std::uint64_t>(t_slot + 1) << 40) | ++slot.next_seq;
  t_current = this;
  t0_ = now_ns();
}

Span::~Span() { close(); }

void Span::add_remote_child(const Attribution& a) {
  for (std::size_t k = 0; k < kKinds; ++k) acc_[k] += a[k];
}

std::uint64_t Span::close() {
  if (!open_) return 0;
  const std::uint64_t t1 = now_ns();
  open_ = false;
  const std::uint64_t dur = t1 - t0_;
  const std::uint64_t covered =
      std::accumulate(acc_.begin(), acc_.end(), std::uint64_t{0});
  const std::uint64_t self = dur > covered ? dur - covered : 0;
  const auto k = static_cast<std::size_t>(kind_);
  acc_[k] += self;

  SlotState& slot = g_slots[static_cast<std::size_t>(t_slot)];
  KindAgg& agg = slot.kinds[k];
  ++agg.count;
  agg.self_ns += self;
  agg.dur.add(dur);
  ++slot.spans_total;
  if (slot.spans.size() < kSpansPerSlot) {
    slot.spans.push_back(SpanRecord{id_, parent_, t0_, t1, t_unit, kind_,
                                    static_cast<std::uint8_t>(t_slot)});
  }

  t_current = outer_;
  if (outer_ != nullptr) {
    outer_->add_remote_child(acc_);
  } else if (kind_ == Kind::Unit) {
    add_root(slot.unit_roots, dur, acc_);
  } else if (kind_ == Kind::Branch) {
    add_root(slot.branch_roots, dur, acc_);
  }
  return dur;
}

TraceReport collect() {
  TraceReport r;
  for (std::size_t s = 0; s < g_slots.size(); ++s) {
    const SlotState& slot = g_slots[s];
    for (std::size_t k = 0; k < kKinds; ++k) {
      r.kinds[k].count += slot.kinds[k].count;
      r.kinds[k].self_ns += slot.kinds[k].self_ns;
      r.kinds[k].dur.merge(slot.kinds[k].dur);
    }
    for (std::size_t d = 0; d < kDerived; ++d) {
      r.derived[d].merge(slot.derived[d]);
    }
    r.units.dur_ns += slot.unit_roots.dur_ns;
    for (std::size_t k = 0; k < kKinds; ++k) {
      r.units.attr[k] += slot.unit_roots.attr[k];
    }
    r.branches[s] = slot.branch_roots;
    r.spans_total += slot.spans_total;
    r.spans_kept += slot.spans.size();
  }
  return r;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const SlotState& slot : g_slots) {
    for (const SpanRecord& s : slot.spans) origin = std::min(origin, s.t0);
  }
  for (const SlotState& slot : g_slots) {
    for (const SpanRecord& s : slot.spans) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"unit\":%d,"
                   "\"slot\":%u,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   kind_name(s.kind), s.unit, static_cast<unsigned>(s.slot),
                   static_cast<unsigned long long>(s.t0 - origin),
                   static_cast<unsigned long long>(s.t1 - origin));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
