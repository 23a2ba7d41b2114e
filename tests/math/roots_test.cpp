#include "repro/math/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "repro/common/ensure.hpp"

namespace repro::math {
namespace {

TEST(SolveBracketed, FindsSimpleRoot) {
  const auto f = [](double x) { return x * x - 2.0; };
  EXPECT_NEAR(solve_bracketed(f, Bracket{0.0, 2.0, f(0.0), f(2.0)}),
              std::sqrt(2.0), 1e-8);
}

TEST(SolveBracketed, AcceptsRootAtEndpoint) {
  const auto f = [](double x) { return x - 1.0; };
  EXPECT_DOUBLE_EQ(solve_bracketed(f, Bracket{1.0, 3.0, f(1.0), f(3.0)}),
                   1.0);
}

TEST(SolveBracketed, HandlesSteepFunction) {
  const auto f = [](double x) { return std::exp(10.0 * x) - 100.0; };
  EXPECT_NEAR(solve_bracketed(f, Bracket{0.0, 1.0, f(0.0), f(1.0)}),
              std::log(100.0) / 10.0, 1e-8);
}

TEST(SolveBracketed, RejectsNoSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW(solve_bracketed(f, Bracket{-1.0, 1.0, f(-1.0), f(1.0)}),
               Error);
}

// These roots are the exact doubles the std::function-based solver
// returned, so a rewrite of the loop cannot drift by an ulp unnoticed.
// (Only polynomials: their values do not depend on the math library.)
TEST(SolveBracketed, ReturnsTheSameBitsAsBefore) {
  const auto sq = [](double x) { return x * x - 2.0; };
  EXPECT_EQ(solve_bracketed(sq, Bracket{0.0, 2.0, sq(0.0), sq(2.0)}),
            0x1.6a09e66817478p+0);
  const auto cube = [](double x) { return x * x * x; };
  EXPECT_EQ(solve_bracketed(cube, Bracket{-1.0, 0.5, -1.0, 0.125}, 1e-6, 7),
            -0x1.848fe9986129cp-4);
}

TEST(SolveBracketed, KnownEndpointsAreNotEvaluatedAgain) {
  std::vector<double> calls;
  const auto f = [&](double x) {
    calls.push_back(x);
    return x * x - 2.0;
  };
  const double root = solve_bracketed(f, Bracket{0.0, 2.0, -2.0, 2.0});
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-8);
  ASSERT_FALSE(calls.empty());
  for (double x : calls) {
    EXPECT_GT(x, 0.0);
    EXPECT_LT(x, 2.0);
  }
}

TEST(SolveBracketed, KnownRootAtAnEndpointReturnsIt) {
  int calls = 0;
  const auto f = [&](double x) {
    ++calls;
    return x - 1.0;
  };
  EXPECT_EQ(solve_bracketed(f, Bracket{1.0, 3.0, 0.0, 2.0}), 1.0);
  EXPECT_EQ(solve_bracketed(f, Bracket{-1.0, 1.0, -2.0, 0.0}), 1.0);
  // A negative zero is a root too.
  EXPECT_EQ(solve_bracketed(f, Bracket{1.0, 3.0, -0.0, 2.0}), 1.0);
  EXPECT_EQ(calls, 0);
}

TEST(SolveBracketed, KnownEndpointsWithoutSignChangeAreRefused) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW(solve_bracketed(f, Bracket{-1.0, 1.0, 2.0, 2.0}), Error);
  EXPECT_THROW(solve_bracketed(f, Bracket{-1.0, 1.0, -2.0, -0.5}), Error);
  // An inverted bracket is refused before anything else.
  EXPECT_THROW(solve_bracketed(f, Bracket{1.0, -1.0, -1.0, 1.0}), Error);
}

TEST(NewtonRaphson, SolvesLinearSystem) {
  auto f = [](const std::vector<double>& x) {
    return std::vector<double>{2.0 * x[0] + x[1] - 3.0,
                               x[0] - x[1] - 0.0};
  };
  const NewtonResult r = newton_raphson(f, {0.0, 0.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
}

TEST(NewtonRaphson, SolvesNonlinearSystem) {
  // Intersection of a circle and a line: x²+y²=4, y=x.
  auto f = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] * x[0] + x[1] * x[1] - 4.0,
                               x[1] - x[0]};
  };
  const NewtonResult r = newton_raphson(f, {1.0, 0.5});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], std::sqrt(2.0), 1e-7);
  EXPECT_NEAR(r.x[1], std::sqrt(2.0), 1e-7);
}

TEST(NewtonRaphson, RespectsProjection) {
  // Root at x=−1 and x=2; projection to x ≥ 0 must find 2.
  auto f = [](const std::vector<double>& x) {
    return std::vector<double>{(x[0] + 1.0) * (x[0] - 2.0)};
  };
  auto project = [](std::vector<double>& x) {
    if (x[0] < 0.0) x[0] = 0.0;
  };
  const NewtonResult r = newton_raphson(f, {0.5}, project);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
}

TEST(NewtonRaphson, ReportsNonConvergenceOnRootlessSystem) {
  auto f = [](const std::vector<double>& x) {
    return std::vector<double>{x[0] * x[0] + 1.0};
  };
  const NewtonResult r = newton_raphson(f, {3.0});
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.residual_norm, 0.5);
}

TEST(NewtonRaphson, ConvergesFromPoorStartWithDamping) {
  auto f = [](const std::vector<double>& x) {
    return std::vector<double>{std::atan(x[0])};
  };
  // Plain Newton diverges for |x0| > ~1.39; damping must rescue it.
  const NewtonResult r = newton_raphson(f, {10.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 0.0, 1e-8);
}

TEST(NewtonRaphson, RejectsEmptyProblem) {
  auto f = [](const std::vector<double>&) { return std::vector<double>{}; };
  EXPECT_THROW(newton_raphson(f, {}), Error);
}

}  // namespace
}  // namespace repro::math
