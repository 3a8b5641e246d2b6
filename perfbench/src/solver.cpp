// Workload `solver`: the appendix-D linear solver.  Each unit solves a fresh
// seeded, diagonally dominant n x n system, distributed (block, *) over 4
// processors, twice: LU with partial pivoting, then Householder QR.
//
// The system is generated in place by a data-parallel fill program the
// benchmark registers: loading n^2 elements with write_element would cost
// more than the solves it feeds.  Both solutions are read back with element
// calls and checked against the known x, |x - x_true| < 1e-9.
#include <cmath>

#include "bench.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"

namespace perfbench {

namespace {

using tdp::dist::ArrayId;

constexpr int kProcs = 4;
constexpr const char* kFill = "perfbench_fill_system";

double x_true(std::uint64_t unit_seed, int j) {
  return unit_uniform(mix(unit_seed ^ mix(~static_cast<std::uint64_t>(j))));
}

double a_entry(std::uint64_t unit_seed, int n, int i, int j) {
  const double off = unit_uniform(mix(unit_seed ^ mix(static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(n) + static_cast<std::uint64_t>(j))));
  return i == j ? off + n : off;
}

/// Fill program: constant n, constant unit seed (as int), then local A and
/// b for LU and for QR.  Each copy generates its own block of rows.
void fill_system(tdp::spmd::SpmdContext& ctx, tdp::core::CallArgs& args) {
  const int n = args.in<int>(0);
  const auto unit_seed = static_cast<std::uint64_t>(static_cast<unsigned>(args.in<int>(1)));
  const int nloc = n / ctx.nprocs();
  const int row0 = ctx.index() * nloc;
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = x_true(unit_seed, j);
  double* a_lu = args.local(2).f64();
  double* b_lu = args.local(3).f64();
  double* a_qr = args.local(4).f64();
  double* b_qr = args.local(5).f64();
  for (int r = 0; r < nloc; ++r) {
    double b = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = a_entry(unit_seed, n, row0 + r, j);
      const std::size_t at = static_cast<std::size_t>(r) * n + j;
      a_lu[at] = a;
      a_qr[at] = a;
      b += a * x[static_cast<std::size_t>(j)];
    }
    b_lu[r] = b;
    b_qr[r] = b;
  }
}

class Solver final : public Workload {
 public:
  Solver(std::uint64_t seed, bool tiny) : seed_(seed), n_(tiny ? 32 : 256) {}

  bool setup() override {
    teardown();
    rt_ = std::make_unique<tdp::core::Runtime>(kProcs);
    tdp::linalg::register_lu_programs(rt_->programs());
    tdp::linalg::register_qr_programs(rt_->programs());
    rt_->programs().add(kFill, fill_system);
    bool ok = true;
    for (int s = 0; s < 2; ++s) {
      ok &= rt_->arrays().create_array(
                0, tdp::dist::ElemType::Float64, {n_, n_}, rt_->all_procs(),
                {tdp::dist::DimSpec::block(), tdp::dist::DimSpec::star()},
                tdp::dist::BorderSpec::none(), tdp::dist::Indexing::RowMajor,
                a_[s]) == tdp::Status::Ok;
      ok &= rt_->arrays().create_array(
                0, tdp::dist::ElemType::Float64, {n_}, rt_->all_procs(),
                {tdp::dist::DimSpec::block()}, tdp::dist::BorderSpec::none(),
                tdp::dist::Indexing::RowMajor, b_[s]) == tdp::Status::Ok;
    }
    wrap_program(rt_->programs(), kFill, Kind::Fill);
    wrap_program(rt_->programs(), "lu_solve_system", Kind::Lu);
    wrap_program(rt_->programs(), "qr_solve_system", Kind::Qr);
    return ok && unit(-1);
  }

  Phase run(double seconds) override {
    return run_units(*rt_, seconds, [this](int k) { return unit(k); });
  }

  void teardown() override { rt_.reset(); }

  double lu_flops() const override {
    return 2.0 / 3.0 * std::pow(static_cast<double>(n_), 3);
  }

 private:
  int solve(const char* program, int s, Kind body) {
    return run_call(rt_->call(rt_->all_procs(), program)
                        .constant(n_)
                        .local(a_[s])
                        .local(b_[s])
                        .status(),
                    rt_->all_procs(), body);
  }

  bool unit(int k) {
    trace::set_unit(k);
    const std::uint64_t unit_seed =
        mix(seed_ ^ mix(static_cast<std::uint64_t>(k) + 0x5eed)) & 0xffffffffULL;
    std::vector<double> x[2];
    bool ok = true;
    {
      Span span(Kind::Unit);
      ok &= run_call(rt_->call(rt_->all_procs(), kFill)
                         .constant(n_)
                         .constant(static_cast<int>(static_cast<unsigned>(unit_seed)))
                         .local(a_[0])
                         .local(b_[0])
                         .local(a_[1])
                         .local(b_[1]),
                     rt_->all_procs(), Kind::Fill) == tdp::kStatusOk;
      ok &= solve("lu_solve_system", 0, Kind::Lu) == tdp::kStatusOk;
      ok &= solve("qr_solve_system", 1, Kind::Qr) == tdp::kStatusOk;
      for (int s = 0; s < 2; ++s) {
        x[s].resize(static_cast<std::size_t>(n_));
        for (int i = 0; i < n_; ++i) {
          ok &= read_element(*rt_, b_[s], i, x[s][static_cast<std::size_t>(i)]);
        }
      }
    }
    for (int s = 0; s < 2; ++s) {
      for (int i = 0; i < n_; ++i) {
        ok &= std::fabs(x[s][static_cast<std::size_t>(i)] - x_true(unit_seed, i)) < 1e-9;
      }
    }
    return ok;
  }

  const std::uint64_t seed_;
  const int n_;
  std::unique_ptr<tdp::core::Runtime> rt_;
  ArrayId a_[2];
  ArrayId b_[2];
};

}  // namespace

std::unique_ptr<Workload> make_solver(std::uint64_t seed, bool tiny) {
  return std::make_unique<Solver>(seed, tiny);
}

}  // namespace perfbench
