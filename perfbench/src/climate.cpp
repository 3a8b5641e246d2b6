// Workload `climate`: the fig 2.1 coupled climate model.  Two heat models,
// an ocean and an atmosphere of m cells, each advance `kInner` steps as a
// distributed call on their own 2-processor group; both calls run
// concurrently under pcn::par.  The task-parallel level then couples them
// with 4 element calls: the ocean surface and the atmosphere base both take
// their average.  A unit is one coupling step.
//
// The check: the rods have insulated ends and the exchange replaces a and b
// by two copies of (a+b)/2, so total heat is conserved.  Each copy sums its
// interior after the body (outside the copy's span); the unit fails when
// the total after the calls differs from the total left by the previous
// exchange by more than 1e-9 relative.
#include <cmath>

#include "bench.hpp"
#include "linalg/stencil.hpp"
#include "util/node_array.hpp"

namespace perfbench {

namespace {

using tdp::dist::ArrayId;

constexpr int kGroup = 2;
constexpr int kInner = 10;
constexpr double kAlpha = 0.2;

class Climate final : public Workload {
 public:
  Climate(std::uint64_t seed, bool tiny) : m_(tiny ? 16 : 256) {
    // Initial profiles: a warm ocean (60..90) under a cold atmosphere (0..20).
    for (int i = 0; i < 2 * m_; ++i) {
      const double u = 0.5 * (unit_uniform(mix(seed ^ mix(static_cast<std::uint64_t>(i)))) + 1.0);
      init_.push_back(i < m_ ? 60.0 + 30.0 * u : 20.0 * u);
    }
  }

  bool setup() override {
    teardown();
    rt_ = std::make_unique<tdp::core::Runtime>(2 * kGroup);
    tdp::linalg::register_stencil_programs(rt_->programs());
    bool ok = true;
    for (int s = 0; s < 2; ++s) {
      procs_[s] = tdp::util::node_array(s * kGroup, 1, kGroup);
      // The halo comes from the program's border routine (foreign_borders).
      ok &= rt_->arrays().create_array(
                0, tdp::dist::ElemType::Float64, {m_}, procs_[s],
                {tdp::dist::DimSpec::block()},
                tdp::dist::BorderSpec::foreign("heat_step_1d", 2),
                tdp::dist::Indexing::RowMajor, field_[s]) == tdp::Status::Ok;
    }
    total_ = 0.0;
    for (int i = 0; i < 2 * m_; ++i) {
      ok &= write_element(*rt_, field_[i / m_], i % m_, init_[static_cast<std::size_t>(i)]);
      total_ += init_[static_cast<std::size_t>(i)];
    }
    wrap_program(rt_->programs(), "heat_step_1d", Kind::Heat,
                 [this](tdp::spmd::SpmdContext& ctx, tdp::core::CallArgs& args) {
                   const tdp::dist::LocalSectionView& u = args.local(2);
                   double sum = 0.0;
                   for (int i = 0; i < u.interior_dims[0]; ++i) {
                     const int idx[1] = {i};
                     sum += u.f64()[u.offset(idx)];
                   }
                   heat_[static_cast<std::size_t>(ctx.proc())] = sum;
                 });
    return ok && unit(-1);
  }

  Phase run(double seconds) override {
    return run_units(*rt_, seconds, [this](int k) { return unit(k); });
  }

  void teardown() override { rt_.reset(); }

 private:
  int step(int s) {
    return run_call(rt_->call(procs_[s], "heat_step_1d")
                        .constant(kAlpha)
                        .constant(kInner)
                        .local(field_[s])
                        .status(),
                    procs_[s], Kind::Heat);
  }

  /// One coupling step; returns whether every call succeeded and total heat
  /// was conserved.
  bool unit(int k) {
    trace::set_unit(k);
    int status[2] = {-1, -1};
    double sea = 0.0;
    double air = 0.0;
    bool ok = true;
    {
      Span span(Kind::Unit);
      run_par({[&] { status[0] = step(0); }, [&] { status[1] = step(1); }});
      ok &= read_element(*rt_, field_[0], m_ - 1, sea);
      ok &= read_element(*rt_, field_[1], 0, air);
      const double interface_t = 0.5 * (sea + air);
      ok &= write_element(*rt_, field_[0], m_ - 1, interface_t);
      ok &= write_element(*rt_, field_[1], 0, interface_t);
    }
    double after_calls = 0.0;
    for (int p = 0; p < 2 * kGroup; ++p) after_calls += heat_[static_cast<std::size_t>(p)];
    ok &= status[0] == tdp::kStatusOk && status[1] == tdp::kStatusOk &&
          std::fabs(after_calls - total_) <= 1e-9 * std::fabs(total_);
    // The exchange moves sea + air into two copies of their mean.
    total_ = after_calls - sea - air + 2.0 * (0.5 * (sea + air));
    return ok;
  }

  const int m_;
  std::vector<double> init_;
  std::unique_ptr<tdp::core::Runtime> rt_;
  std::vector<int> procs_[2];
  ArrayId field_[2];
  /// Interior heat of each processor's section after the latest call.
  std::array<double, kMaxProcs> heat_{};
  double total_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_climate(std::uint64_t seed, bool tiny) {
  return std::make_unique<Climate>(seed, tiny);
}

}  // namespace perfbench
