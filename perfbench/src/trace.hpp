// Spans for the traced run.
//
// A span is recorded around every library call the benchmark makes: name
// (its Kind), start, end, parent span and unit id.  Timing happens here, in
// the benchmark's own files; nothing under src/ is instrumented.
//
// Each span also carries its *blocking-path attribution*: how much of its
// duration each kind of span accounts for along the steps the caller
// waited on.  A span's self time (duration minus what its children cover)
// is charged to its own kind; children on the same thread add theirs.  Work
// that ran on other threads — the copies of a distributed call, the
// branches of a par — contributes only its slowest member, because that is
// the one the caller waited for (add_remote_child).  The self time of a
// Unit or Branch root is time no library span covers: the unattributed
// remainder.
//
// Aggregates and retained span records live in per-actor slots, not per OS
// thread: the thread lane starts a fresh thread for every copy of every
// call, so a slot is named by its role (main, stage i, the copy on VP p)
// and is used by one thread at a time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Kind : std::uint8_t {
  Unit,     // one unit of a workload (main thread roots)
  Branch,   // one branch of a pcn::par; a pipeline stage is one
  Par,      // pcn::par
  Next,     // pcn::Stream::next
  Put,      // pcn::Stream::put
  Call,     // core::DistributedCall::run
  Read,     // dist::ArrayManager::read_element
  Write,    // dist::ArrayManager::write_element
  Fft,      // a copy of fft_reverse / fft_natural
  Lu,       // a copy of lu_solve_system
  Qr,       // a copy of qr_solve_system
  Heat,     // a copy of heat_step_1d
  Fill,     // a copy of the benchmark's own system generator
  Combine,  // the pipeline's task-parallel elementwise product
  Count
};
inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::Count);

const char* kind_name(Kind k);
/// The src/ module a kind's self time belongs to; "unattributed" for Unit
/// and Branch, "app" for the benchmark's own compute.
const char* kind_layer(Kind k);

using Attribution = std::array<std::uint64_t, kKinds>;

/// Log-bucketed histogram of non-negative samples (nanoseconds, counts):
/// exact below 256, then 128 buckets per power of two (under 0.8% relative
/// error).
class Histogram {
 public:
  void add(std::uint64_t v);
  void merge(const Histogram& other);
  /// Linear-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 256 + 56 * 128;
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Derived per-call quantities the caller computes after a cross-thread
/// join.
enum class Derived : std::uint8_t {
  CopyExec,      // slowest copy's body, any program
  CallOverhead,  // call time minus slowest copy
  ParOverhead,   // par time minus slowest branch
  FftExec,       // slowest copy of an FFT call
  LuExec,
  QrExec,
  Count
};
inline constexpr std::size_t kDerived = static_cast<std::size_t>(Derived::Count);

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::int32_t unit = -1;
  Kind kind = Kind::Unit;
  std::uint8_t slot = 0;
};

/// Slots: 0 is the main thread, 1..kStageSlots-1 par branches / pipeline
/// stages, kCopySlotBase + p the copy running on virtual processor p.
inline constexpr int kStageSlots = 16;
inline constexpr int kCopySlotBase = kStageSlots;
inline constexpr int kMaxProcs = 64;
inline constexpr int kSlots = kCopySlotBase + kMaxProcs;

namespace trace {

bool enabled();
void set_enabled(bool on);

/// The unit id new spans on this thread carry.
void set_unit(int unit);
int unit();

/// Binds the calling thread to a slot while alive.
class SlotScope {
 public:
  explicit SlotScope(int slot);
  ~SlotScope();
  SlotScope(const SlotScope&) = delete;
  SlotScope& operator=(const SlotScope&) = delete;

 private:
  int saved_;
};

void record(Derived d, std::uint64_t ns);

/// Clears every aggregate and retained span (between phases of a run).
void reset();

}  // namespace trace

class Span {
 public:
  /// Opens a span nested in the innermost open span of this thread, or, when
  /// there is none, a root whose parent is `remote_parent` (a span id from
  /// another thread, 0 for none).  A no-op when tracing is off.
  explicit Span(Kind kind, std::uint64_t remote_parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Folds in the attribution of the child, run on another thread, that
  /// this span waited for.
  void add_remote_child(const Attribution& a);
  /// Closes the span; returns its duration (0 when tracing is off).
  std::uint64_t close();
  /// Valid after close().
  const Attribution& attribution() const { return acc_; }
  std::uint64_t id() const { return id_; }

 private:
  bool open_ = false;
  Kind kind_;
  Span* outer_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t t0_ = 0;
  Attribution acc_{};
};

/// Merged view over all slots.
struct KindTotals {
  std::uint64_t count = 0;
  std::uint64_t self_ns = 0;
  Histogram dur;
};
struct RootTotals {
  std::uint64_t dur_ns = 0;
  Attribution attr{};
};
struct TraceReport {
  std::array<KindTotals, kKinds> kinds;
  std::array<Histogram, kDerived> derived;
  /// Root spans of kind Unit, summed over slots.
  RootTotals units;
  /// Root spans of kind Branch, per slot (pipeline stage i is slot i).
  std::array<RootTotals, kSlots> branches;
  std::uint64_t spans_total = 0;
  std::uint64_t spans_kept = 0;
};

/// Merges every slot.  Call only while no span is open anywhere.
TraceReport collect();

/// Writes the retained span records as JSON lines; false on I/O error.
bool write_spans(const std::string& path);

}  // namespace perfbench
