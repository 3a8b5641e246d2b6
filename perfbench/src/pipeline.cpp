// Workload `pipeline`: the §6.2 / fig 6.1 polynomial-multiplication FFT
// pipeline.  Pairs of degree n-1 polynomials stream through two concurrent
// inverse-FFT stages, a task-parallel combine and a forward-FFT stage, each
// FFT stage a data-parallel program on its own group of 2 processors.  Each
// FFT stage loads and unloads its array one element at a time, as the
// paper's get_input / put_output do, so per pair a stage makes 4n element
// calls against one distributed call.
//
// Load is a closed loop: the feeder keeps kWindow pairs in flight and feeds
// the next pair only when the sink acknowledges a product.  A unit is one
// product; its time is the interval between successive products.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "fft/fft.hpp"
#include "fft/reference.hpp"
#include "util/bits.hpp"
#include "util/node_array.hpp"

namespace perfbench {

namespace {

using tdp::dist::ArrayId;

constexpr int kGroup = 2;
constexpr int kWindow = 4;
// Distinct input pairs; pair k is pool entry k % kPool.
constexpr int kPool = 8;

struct Item {
  int k = 0;
  bool ok = true;
  std::vector<double> data;
};

class Pipeline final : public Workload {
 public:
  Pipeline(std::uint64_t seed, bool tiny) : n_(tiny ? 32 : 1024), nn_(2 * n_) {
    for (int j = 0; j < kPool; ++j) {
      std::vector<double> f(static_cast<std::size_t>(n_));
      std::vector<double> g(static_cast<std::size_t>(n_));
      for (int i = 0; i < n_; ++i) {
        const auto at = static_cast<std::uint64_t>(j * n_ + i);
        f[static_cast<std::size_t>(i)] = unit_uniform(mix(seed ^ mix(2 * at)));
        g[static_cast<std::size_t>(i)] =
            unit_uniform(mix(seed ^ mix(2 * at + 1)));
      }
      want_.push_back(tdp::fft::poly_mul_naive(f, g));
      pool_.emplace_back(std::move(f), std::move(g));
    }
  }

  bool setup() override {
    teardown();
    rt_ = std::make_unique<tdp::core::Runtime>(3 * kGroup);
    tdp::fft::register_programs(rt_->programs());
    bool ok = true;
    for (int s = 0; s < 3; ++s) {
      procs_[s] = tdp::util::node_array(s * kGroup, 1, kGroup);
      ok &= rt_->arrays().create_array(
                0, tdp::dist::ElemType::Float64, {2 * nn_}, procs_[s],
                {tdp::dist::DimSpec::block()}, tdp::dist::BorderSpec::none(),
                tdp::dist::Indexing::RowMajor, data_[s]) == tdp::Status::Ok;
      // Eps dims (2*NN, P) distributed ("*", block): each copy holds the
      // full table of roots (§6.2.2).
      ok &= rt_->arrays().create_array(
                0, tdp::dist::ElemType::Float64, {2 * nn_, kGroup}, procs_[s],
                {tdp::dist::DimSpec::star(), tdp::dist::DimSpec::block()},
                tdp::dist::BorderSpec::none(), tdp::dist::Indexing::ColumnMajor,
                eps_[s]) == tdp::Status::Ok;
      ok &= rt_->call(procs_[s], "compute_roots").constant(nn_).local(eps_[s]).run() ==
            tdp::kStatusOk;
    }
    wrap_program(rt_->programs(), "fft_reverse", Kind::Fft);
    wrap_program(rt_->programs(), "fft_natural", Kind::Fft);
    return ok && pump(1, 0.0).failed == 0;
  }

  Phase run(double seconds) override { return pump(-1, seconds); }

  void teardown() override { rt_.reset(); }

  std::vector<std::string> stage_names() const override {
    return kPipelineStages;
  }

 private:
  /// Runs the pipeline: `count` pairs, or (count < 0) as many as fit in
  /// `seconds`, then drains.
  Phase pump(int count, double seconds) {
    using Stream = tdp::pcn::Stream<Item>;
    const Counters before = Counters::read(*rt_);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    auto more = [&](int k) {
      return count >= 0 ? k < count : now_ns() < deadline;
    };

    // Steady state: the products that arrive while the window fills, and
    // those drained after the deadline, are checked but not timed.
    Phase out;
    out.units = UnitLog(now_ns());
    std::uint64_t arrived = 0;
    std::uint64_t last_arrival = 0;
    std::uint64_t failed = 0;
    int fed = 0;
    std::vector<std::function<void()>> stages;
    {
      // Each stream is held only by its producer and its consumer, which
      // advance along it, so consumed cells are freed as the run goes.
      Stream in_a, in_b, eval_a, eval_b, products, results;
      tdp::pcn::Stream<int> acks;
      stages = {
          [&, ta = in_a, tb = in_b, ack = acks]() mutable {
            for (int k = 0; more(k); ++k) {
              if (k >= kWindow && !next(ack)) break;
              trace::set_unit(k);
              const auto& [f, g] = pool_[static_cast<std::size_t>(k % kPool)];
              ta = put(ta, Item{k, true, f});
              tb = put(tb, Item{k, true, g});
              fed = k + 1;
            }
            ta.close();
            tb.close();
          },
          [this, in = in_a, out = eval_a]() mutable {
            inverse_stage(0, std::move(in), std::move(out));
          },
          [this, in = in_b, out = eval_b]() mutable {
            inverse_stage(1, std::move(in), std::move(out));
          },
          [this, a = eval_a, b = eval_b, out = products]() mutable {
            combine_stage(std::move(a), std::move(b), std::move(out));
          },
          [this, in = products, out = results]() mutable {
            forward_stage(std::move(in), std::move(out));
          },
          [&, r = results, ack = acks]() mutable {
            Counters last = Counters::read(*rt_);
            for (std::optional<Item> h; (h = next(r));) {
              const std::uint64_t at = now_ns();
              if (++arrived > kWindow && at <= deadline) {
                out.units.add(at, at - last_arrival);
              }
              last_arrival = at;
              ack = put(ack, 1);
              const Counters c = Counters::read(*rt_);
              out.wakeups.add(c.wakeups - last.wakeups);
              last = c;
              if (!h->ok || !matches(*h)) ++failed;
            }
            ack.close();
          },
      };
    }
    run_par(std::move(stages));

    out.attempted = static_cast<std::uint64_t>(fed);
    out.failed = failed + (static_cast<std::uint64_t>(fed) - arrived);
    out.counters = Counters::read(*rt_) - before;
    return out;
  }

  /// Max error of product h against the naive convolution, imaginary parts
  /// and padding included; checked at the sink after the arrival is stamped.
  bool matches(const Item& h) const {
    const std::vector<double>& want = want_[static_cast<std::size_t>(h.k % kPool)];
    double err = 0.0;
    for (int j = 0; j < nn_; ++j) {
      const double re = j < static_cast<int>(want.size()) ? want[static_cast<std::size_t>(j)] : 0.0;
      err = std::max(err, std::fabs(h.data[static_cast<std::size_t>(2 * j)] - re));
      err = std::max(err, std::fabs(h.data[static_cast<std::size_t>(2 * j + 1)]));
    }
    return err < 1e-9;
  }

  int bit_reversed(int j) const {
    return static_cast<int>(tdp::util::bit_reverse(
        tdp::util::floor_log2(nn_), static_cast<std::uint64_t>(j)));
  }

  bool fft_call(int s, const char* program, int flag) {
    return run_call(rt_->call(procs_[s], program)
                        .constant(procs_[s])
                        .constant(kGroup)
                        .index()
                        .constant(nn_)
                        .constant(flag)
                        .local(eps_[s])
                        .local(data_[s]),
                    procs_[s], Kind::Fft) == tdp::kStatusOk;
  }

  /// phase1 (§6.2.2): get_input + pad_input into bit-reversed positions,
  /// inverse FFT, then the evaluations read back in storage order.
  void inverse_stage(int s, tdp::pcn::Stream<Item> in, tdp::pcn::Stream<Item> out) {
    const ArrayId a = data_[s];
    for (std::optional<Item> item; (item = next(in));) {
      trace::set_unit(item->k);
      bool ok = true;
      for (int j = 0; j < nn_; ++j) {
        const int pos = bit_reversed(j);
        const double re = j < n_ ? item->data[static_cast<std::size_t>(j)] : 0.0;
        ok &= write_element(*rt_, a, 2 * pos, re);
        ok &= write_element(*rt_, a, 2 * pos + 1, 0.0);
      }
      ok &= fft_call(s, "fft_reverse", tdp::fft::kInverse);
      std::vector<double> values(static_cast<std::size_t>(2 * nn_));
      for (int j = 0; j < 2 * nn_; ++j) {
        ok &= read_element(*rt_, a, j, values[static_cast<std::size_t>(j)]);
      }
      out = put(out, Item{item->k, ok && item->ok, std::move(values)});
    }
    out.close();
  }

  /// combine (§6.2.2): elementwise complex product of the two evaluations.
  void combine_stage(tdp::pcn::Stream<Item> in_a, tdp::pcn::Stream<Item> in_b,
                     tdp::pcn::Stream<Item> out) {
    for (;;) {
      std::optional<Item> a = next(in_a);
      std::optional<Item> b = next(in_b);
      if (!a || !b) break;
      trace::set_unit(a->k);
      Item prod{a->k, a->ok && b->ok && a->k == b->k,
                std::vector<double>(a->data.size())};
      {
        Span span(Kind::Combine);
        for (std::size_t j = 0; j + 1 < prod.data.size(); j += 2) {
          const double re1 = a->data[j];
          const double im1 = a->data[j + 1];
          const double re2 = b->data[j];
          const double im2 = b->data[j + 1];
          prod.data[j] = re1 * re2 - im1 * im2;
          prod.data[j + 1] = re2 * im1 + re1 * im2;
        }
      }
      out = put(out, std::move(prod));
    }
    out.close();
  }

  /// phase2 (§6.2.2): evaluations written in storage order, forward FFT,
  /// then put_output reads the bit-reversed result into natural order.
  void forward_stage(tdp::pcn::Stream<Item> in, tdp::pcn::Stream<Item> out) {
    const ArrayId a = data_[2];
    for (std::optional<Item> item; (item = next(in));) {
      trace::set_unit(item->k);
      bool ok = true;
      for (int j = 0; j < 2 * nn_; ++j) {
        ok &= write_element(*rt_, a, j, item->data[static_cast<std::size_t>(j)]);
      }
      ok &= fft_call(2, "fft_natural", tdp::fft::kForward);
      std::vector<double> coeffs(static_cast<std::size_t>(2 * nn_));
      for (int j = 0; j < nn_; ++j) {
        const int pos = bit_reversed(j);
        ok &= read_element(*rt_, a, 2 * pos, coeffs[static_cast<std::size_t>(2 * j)]);
        ok &= read_element(*rt_, a, 2 * pos + 1,
                           coeffs[static_cast<std::size_t>(2 * j + 1)]);
      }
      out = put(out, Item{item->k, ok && item->ok, std::move(coeffs)});
    }
    out.close();
  }

  const int n_;
  const int nn_;
  std::vector<std::pair<std::vector<double>, std::vector<double>>> pool_;
  std::vector<std::vector<double>> want_;
  std::unique_ptr<tdp::core::Runtime> rt_;
  std::vector<int> procs_[3];
  ArrayId data_[3];
  ArrayId eps_[3];
};

}  // namespace

std::unique_ptr<Workload> make_pipeline(std::uint64_t seed, bool tiny) {
  return std::make_unique<Pipeline>(seed, tiny);
}

}  // namespace perfbench
