#include "repro/math/roots.hpp"

#include <algorithm>
#include <cmath>

#include "repro/common/ensure.hpp"
#include "repro/math/matrix.hpp"

namespace repro::math {

namespace {

double inf_norm(const std::vector<double>& v) {
  double m = 0.0;
  for (double e : v) m = std::max(m, std::fabs(e));
  return m;
}

}  // namespace

NewtonResult newton_raphson(
    const std::function<std::vector<double>(const std::vector<double>&)>& f,
    std::vector<double> x0,
    const std::function<void(std::vector<double>&)>& project,
    const NewtonOptions& options) {
  const std::size_t n = x0.size();
  REPRO_ENSURE(n > 0, "newton_raphson needs unknowns");
  if (project) project(x0);

  NewtonResult result;
  result.x = std::move(x0);
  std::vector<double> fx = f(result.x);
  REPRO_ENSURE(fx.size() == n, "F must map R^n to R^n");

  for (int it = 0; it < options.max_iter; ++it) {
    result.iterations = it;
    result.residual_norm = inf_norm(fx);
    if (result.residual_norm < options.f_tol) {
      result.converged = true;
      return result;
    }

    // Forward-difference Jacobian, column by column.
    Matrix jac(n, n);
    for (std::size_t c = 0; c < n; ++c) {
      const double h =
          options.jacobian_eps * std::max(1.0, std::fabs(result.x[c]));
      std::vector<double> xp = result.x;
      xp[c] += h;
      if (project) project(xp);
      const double h_actual = xp[c] - result.x[c];
      if (h_actual == 0.0) continue;
      const std::vector<double> fp = f(xp);
      for (std::size_t r = 0; r < n; ++r)
        jac(r, c) = (fp[r] - fx[r]) / h_actual;
    }

    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = -fx[i];
    std::vector<double> step;
    try {
      step = solve_lu(jac, rhs);
    } catch (const Error&) {
      break;  // singular Jacobian: give up, report non-convergence
    }

    // Backtracking line search on ‖F‖∞.
    double lambda = 1.0;
    bool accepted = false;
    for (int bt = 0; bt < 30; ++bt) {
      std::vector<double> x_new = result.x;
      for (std::size_t i = 0; i < n; ++i) x_new[i] += lambda * step[i];
      if (project) project(x_new);
      const std::vector<double> f_new = f(x_new);
      if (inf_norm(f_new) < result.residual_norm) {
        result.x = std::move(x_new);
        fx = f_new;
        accepted = true;
        break;
      }
      lambda *= 0.5;
    }
    if (!accepted || inf_norm(step) * lambda < options.step_tol) break;
  }

  result.residual_norm = inf_norm(fx);
  result.converged = result.residual_norm < options.f_tol;
  return result;
}

}  // namespace repro::math
