// Root finding: scalar bracketing and multidimensional Newton–Raphson.
//
// The paper solves the k-process equilibrium system (Eq. 1 + Eq. 7)
// with Newton–Raphson iteration. We provide that solver (numeric
// Jacobian, damped steps) plus a guarded scalar solver used by the
// robust nested-bisection formulation of the same system.
#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "repro/common/ensure.hpp"

namespace repro::math {

/// A root bracket [lo, hi] together with f at both endpoints.
struct Bracket {
  double lo = 0.0;
  double hi = 0.0;
  double f_lo = 0.0;  // f(lo)
  double f_hi = 0.0;  // f(hi)
};

/// Find x in [b.lo, b.hi] with f(x) = 0 for continuous f with f(lo),
/// f(hi) of opposite sign (or zero at an endpoint). Bisection with a
/// secant acceleration step; always converges for a valid bracket.
/// The caller passes the endpoint values it has already
/// computed (the equilibrium solver tests both ends for saturation
/// before it brackets), so f runs only at interior points. A template,
/// so the hot inner root-find calls f directly instead of through a
/// type-erased std::function.
template <class F>
double solve_bracketed(F&& f, Bracket b, double x_tol = 1e-10,
                       int max_iter = 200) {
  REPRO_ENSURE(b.lo <= b.hi, "invalid bracket");
  double lo = b.lo, hi = b.hi, f_lo = b.f_lo, f_hi = b.f_hi;
  if (f_lo == 0.0) return lo;
  if (f_hi == 0.0) return hi;
  REPRO_ENSURE(std::signbit(f_lo) != std::signbit(f_hi),
               "solve_bracketed requires a sign change");

  double mid = 0.5 * (lo + hi);
  for (int it = 0; it < max_iter && (hi - lo) > x_tol; ++it) {
    // Secant proposal, accepted only if it lands strictly inside.
    double prop = mid;
    const double denom = f_hi - f_lo;
    if (denom != 0.0) {
      prop = lo - f_lo * (hi - lo) / denom;
      const double margin = 0.01 * (hi - lo);
      if (!(prop > lo + margin && prop < hi - margin))
        prop = 0.5 * (lo + hi);
    } else {
      prop = 0.5 * (lo + hi);
    }
    const double f_prop = f(prop);
    if (f_prop == 0.0) return prop;
    if (std::signbit(f_prop) == std::signbit(f_lo)) {
      lo = prop;
      f_lo = f_prop;
    } else {
      hi = prop;
      f_hi = f_prop;
    }
    mid = 0.5 * (lo + hi);
  }
  return mid;
}

struct NewtonOptions {
  int max_iter = 100;
  double f_tol = 1e-10;       // stop when ‖F‖∞ < f_tol
  double step_tol = 1e-12;    // stop when the damped step is this small
  double jacobian_eps = 1e-6; // relative finite-difference perturbation
};

struct NewtonResult {
  std::vector<double> x;
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;
};

/// Damped Newton–Raphson for F(x) = 0, F: R^n → R^n, with a numeric
/// forward-difference Jacobian and backtracking line search on ‖F‖.
/// An optional `project` callback constrains iterates to the feasible
/// region (the equilibrium solver keeps every S_i in (0, A)).
NewtonResult newton_raphson(
    const std::function<std::vector<double>(const std::vector<double>&)>& f,
    std::vector<double> x0,
    const std::function<void(std::vector<double>&)>& project = nullptr,
    const NewtonOptions& options = {});

}  // namespace repro::math
