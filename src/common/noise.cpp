#include "common/noise.hpp"

namespace semcache::common {

namespace detail {
constexpr ZigguratTable kZiggurat = make_ziggurat();
}  // namespace detail

double NoiseStream::gaussian_slow(std::size_t layer, double u) {
  const detail::ZigguratTable& z = detail::kZiggurat;
  for (;;) {
    if (layer == 0) {
      // Tail beyond R (Marsaglia 1964): a = log(U1) / R, b = log(U2),
      // accept when -2b >= a^2; the sample is R - a on the side of u.
      // Uniforms are taken from (0, 1] so the logs stay finite.
      double a = 0.0;
      double b = 0.0;
      do {
        a = detail::portable_log(
                static_cast<double>((next() >> 11) + 1) * 0x1.0p-53) /
            detail::kZigguratR;
        b = detail::portable_log(
            static_cast<double>((next() >> 11) + 1) * 0x1.0p-53);
      } while (-2.0 * b < a * a);
      return u < 0.0 ? a - detail::kZigguratR : detail::kZigguratR - a;
    }
    // Wedge: x lies in layer `layer` but right of the inner rectangle;
    // accept it when a uniform height between f(x[layer]) and
    // f(x[layer + 1]) falls under the density f(x) (Doornik's form, with
    // both heights divided by f(x)).
    const double x = u * z.x[layer];
    const double x0 = z.x[layer];
    const double x1 = z.x[layer + 1];
    const double f0 = detail::portable_exp(-0.5 * (x0 * x0 - x * x));
    const double f1 = detail::portable_exp(-0.5 * (x1 * x1 - x * x));
    if (f1 + uniform() * (f0 - f1) < 1.0) return x;
    // Rejected: a fresh attempt, rectangle test first.
    const std::uint64_t h = next();
    layer = h & 0x7F;
    u = 2.0 * to_unit_interval(h) - 1.0;
    if (std::fabs(u) < z.ratio[layer]) return u * z.x[layer];
  }
}

}  // namespace semcache::common
