"""Comparison functions, the Cauchy problem, and the Sturm machinery."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvbound.comparison import (
    CurvatureBoundG,
    c_b,
    c_hat_b,
    cs,
    lambda_sup,
    make_bound,
    phi_b,
    phi_b_d1,
    phi_b_d2,
    phi_gamma,
    phi_ode_residual,
    psi,
    sn,
    solve_cauchy_g,
    sturm_margin,
    sturm_profile,
)
from curvbound.errors import DomainError, HypothesisViolationError

TEST_BOUNDS = ["const(1)", "const(2)", "affine(1,1)", "sqrt_growth(1)"]
# the test set with a steep slope and an infinite initial slope G'(0)
ORACLE_BOUNDS = TEST_BOUNDS + ["affine(0.3,2)", "sqrt_growth(0)"]


def quad(f, a, b):
    """scipy's adaptive quadrature at a tight tolerance: a test-only oracle."""
    integrate = pytest.importorskip("scipy.integrate")
    return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]


# -- C_b and its Lorentzian twin ----------------------------------------------


def test_c_b_values():
    assert c_b(0.0, 2.0) == pytest.approx(0.5)
    assert c_b(1.0, np.pi / 4.0) == pytest.approx(1.0)
    assert c_b(-1.0, 1.0) == pytest.approx(1.3130352854993312, abs=1e-12)


def test_c_b_domain_guards():
    with pytest.raises(DomainError):
        c_b(0.0, 0.0)
    with pytest.raises(DomainError):
        c_b(1.0, np.pi / 2.0)
    with pytest.raises(DomainError):
        c_b(4.0, 0.8)  # pi/(2*2) = 0.785...


def test_c_b_continuous_at_zero_curvature():
    for t in np.linspace(0.2, 3.0, 20):
        for eps in (1e-8, -1e-8):
            assert abs(c_b(eps, t) - 1.0 / t) < 1e-7


def test_c_b_strictly_decreasing():
    for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
        hi = 0.98 * np.pi / (2.0 * np.sqrt(b)) if b > 0 else 4.0
        grid = np.linspace(0.05, hi, 200)
        vals = [c_b(b, float(t)) for t in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_c_hat_is_c_of_negated_curvature():
    assert c_hat_b(0.0, 2.0) == pytest.approx(0.5)
    assert c_hat_b(1.0, 1.0) == pytest.approx(1.3130352854993312, abs=1e-12)
    assert c_hat_b(-1.0, np.pi / 4.0) == pytest.approx(1.0)
    for b in (-1.5, -0.3, 0.0, 0.4, 2.0):
        hi = 0.98 * np.pi / (2.0 * np.sqrt(-b)) if b < 0 else 3.0
        for t in np.linspace(0.05, hi, 50):
            assert c_hat_b(b, float(t)) == c_b(-b, float(t))


def test_c_hat_blows_up_at_zero():
    for b in (-1.0, 0.0, 1.0):
        assert c_hat_b(b, 1e-8) > 1e7


# -- phi_b --------------------------------------------------------------------


def test_phi_flat_residual():
    assert phi_b(0.0, 3.0) == pytest.approx(9.0)
    assert phi_ode_residual(0.0, 3.0) == pytest.approx(0.0, abs=1e-14)


def test_phi_spherical_residual():
    # cos(1) - cot(1) sin(1) = 0 exactly
    assert phi_ode_residual(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_phi_hyperbolic_branch_residual_and_fd():
    assert phi_b(-1.0, 1.0) == pytest.approx(math.cosh(1.0) - 1.0)
    assert phi_ode_residual(-1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    h = 1e-4
    for t in (0.5, 1.0, 2.0):
        fd2 = (phi_b(-1.0, t + h) - 2.0 * phi_b(-1.0, t) + phi_b(-1.0, t - h)) / h**2
        assert fd2 == pytest.approx(phi_b_d2(-1.0, t), abs=1e-6)


def test_phi_residual_across_curvatures():
    for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
        hi = 0.98 * np.pi / (2.0 * np.sqrt(b)) if b > 0 else 3.0
        for t in np.linspace(hi / 100.0, hi, 100):
            assert abs(phi_ode_residual(b, float(t))) < 1e-10


def test_phi_increasing():
    for b in (-2.0, -0.5, 0.0, 0.5, 2.0):
        hi = 0.98 * np.pi / (2.0 * np.sqrt(b)) if b > 0 else 3.0
        for t in np.linspace(1e-3, hi, 50):
            assert phi_b_d1(b, float(t)) > 0.0
    assert phi_b(1.0, 0.0) == 0.0
    assert phi_b(-1.0, 0.0) == 0.0


# -- the closed forms over arrays ---------------------------------------------

ARRAY_CURVATURES = [-2.0, -1.0, -1e-8, 0.0, 1e-8, 1.0, 2.0]
CLOSED_FORMS = [c_b, c_hat_b, phi_b, phi_b_d1, phi_b_d2, phi_ode_residual, sn, cs]


@pytest.mark.parametrize("b", ARRAY_CURVATURES)
@pytest.mark.parametrize("f", CLOSED_FORMS, ids=lambda f: f.__name__)
def test_closed_forms_over_arrays_match_scalar_calls(f, b):
    # inside the domain of both C_b and C_{-b}: t < pi/(2 sqrt 2)
    t = np.linspace(0.01, 1.1, 12).reshape(3, 4)
    values = f(b, t)
    assert values.shape == t.shape
    scalars = np.array([[f(b, float(ti)) for ti in row] for row in t])
    assert values.tobytes() == scalars.tobytes()


def test_c_b_rejects_an_array_with_one_entry_out_of_the_domain():
    for b, bad in ((0.0, 0.0), (-1.0, -0.5), (1.0, np.pi / 2.0), (4.0, 0.8),
                   (-1.0, np.nan), (-1.0, np.inf)):
        t = np.array([0.3, 0.5, bad, 0.7])
        with pytest.raises(DomainError):
            c_b(b, t)
        with pytest.raises(DomainError):
            c_b(b, t.reshape(2, 2))
    for b in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            c_b(b, 1.0)


def test_c_b_saturates_far_out():
    # cs/sn would be inf/inf = nan here; cot/coth tends to sqrt(-b)
    assert c_b(-1.0, 1000.0) == 1.0
    assert c_hat_b(1.0, 1000.0) == 1.0
    assert np.all(c_b(-4.0, np.array([400.0, 1e4])) == 2.0)


@given(k=st.floats(-4.0, 4.0), t=st.floats(0.0, 1.5))
def test_model_functions_solve_their_ode(k, t):
    s, c = sn(k, t), cs(k, t)
    assert c * c + k * s * s == pytest.approx(1.0, abs=1e-12)
    h = 1e-5
    ds = (sn(k, t + h) - sn(k, t - h)) / (2.0 * h)
    dc = (cs(k, t + h) - cs(k, t - h)) / (2.0 * h)
    assert ds == pytest.approx(c, abs=1e-8)
    assert dc == pytest.approx(-k * s, abs=1e-8)


# -- growth bounds ------------------------------------------------------------


def test_make_bound_parses_names():
    assert make_bound("const(2)")(17.0) == 2.0
    assert make_bound("affine(1, 1)")(2.0) == 3.0
    assert make_bound("sqrt_growth(1)")(0.0) == 2.0
    for spec in ("powerlaw(2)", "const(a)", "const(inf)", "const(nan)", "affine(1,-inf)",
                 "sqrt_growth(-5)"):
        with pytest.raises(DomainError):
            make_bound(spec)


@pytest.mark.parametrize("spec, message", [
    ("const 1", "cannot parse"),
    ("const(1", "cannot parse"),
    ("", "cannot parse"),
    ("const(1, x)", "bad parameters"),
    ("powerlaw(2)", "unknown growth bound"),
])
def test_make_bound_names_what_it_cannot_read(spec, message):
    with pytest.raises(DomainError, match=message):
        make_bound(spec)


def test_bounds_evaluate_over_arrays():
    t = np.linspace(0.0, 3.0, 7)
    for spec in TEST_BOUNDS:
        G = make_bound(spec)
        np.testing.assert_array_equal(G(t), [G(float(ti)) for ti in t])
        np.testing.assert_array_equal(G.derivative(t), [G.derivative(float(ti)) for ti in t])
    const = CurvatureBoundG(lambda t: -1.0, lambda t: 0.0, lambda t: -t, "negative")
    assert const(t).shape == const.derivative(t).shape == const.primitive(t).shape == t.shape
    assert isinstance(const(0.5), float)
    assert isinstance(const.primitive(0.5), float)


def test_sqrt_growth_at_zero_has_an_infinite_initial_slope():
    G = make_bound("sqrt_growth(0)")
    assert G.derivative(0.0) == math.inf
    assert G.admissibility().ok
    assert lambda_sup(G).value == pytest.approx(5.940342198, abs=1e-9)


def test_array_consumers_call_g_once():
    # sturm_profile evaluates G and its primitive once each on its grid, and
    # forms psi and psi'/psi from that one primitive; admissibility evaluates G' once
    calls = {"fn": [], "dfn": [], "ifn": []}

    def counted(key, f):
        def wrapped(t):
            if np.ndim(t):
                calls[key].append(np.array(t))
            return f(t)
        return wrapped

    base = make_bound("affine(1,1)")
    G = CurvatureBoundG(counted("fn", base.fn), counted("dfn", base.dfn),
                        counted("ifn", base.ifn), base.name)
    t, g, dg, psi_values, margins = sturm_profile(G, 3.0)
    assert len(calls["ifn"]) == 1 and np.array_equal(calls["ifn"][0], t)
    assert sum(np.array_equal(c, t) for c in calls["fn"]) == 1
    integral = base.primitive(t)
    np.testing.assert_array_equal(margins, base(t) / -np.expm1(-integral) - dg / g)
    np.testing.assert_array_equal(psi_values, psi(base, t))
    assert G.admissibility().ok
    assert len(calls["dfn"]) == 1


def test_admissibility_of_test_set():
    for spec in TEST_BOUNDS:
        flags = make_bound(spec).admissibility()
        assert flags.ok, spec


def test_admissibility_runs_once_per_bound():
    windows = []  # the array evaluations of G: 1/G over [10^k, 10^(k+1)]
    base = make_bound("sqrt_growth(1)")

    def counted(t):
        if np.ndim(t):
            windows.append((np.min(t), np.max(t)))
        return base.fn(t)

    G = CurvatureBoundG(counted, base.dfn, base.ifn, base.name)
    lambda_sup(G)
    assert len(windows) == 6
    assert all(10.0**k < lo < hi < 10.0 ** (k + 1) for k, (lo, hi) in enumerate(windows))
    windows.clear()
    assert lambda_sup(G).value == lambda_sup(make_bound("sqrt_growth(1)")).value
    assert windows == []  # the flags are kept: no window is integrated again


def test_inadmissible_bounds_flagged():
    quad = CurvatureBoundG(lambda t: (1.0 + t) ** 2, lambda t: 2.0 * (1.0 + t),
                           lambda t: ((1.0 + t) ** 3 - 1.0) / 3.0, "quadratic")
    assert not quad.admissibility().reciprocal_not_integrable
    neg = CurvatureBoundG(lambda t: -1.0, lambda t: 0.0, lambda t: -t, "negative")
    assert not neg.admissibility().positive_at_zero
    with pytest.raises(HypothesisViolationError):
        solve_cauchy_g(quad, 1.0)


# -- Cauchy problem -----------------------------------------------------------


def test_cauchy_constant_bounds_match_sinh():
    sol = solve_cauchy_g(make_bound("const(1)"), 2.0)
    assert sol.g[-1] == pytest.approx(math.sinh(2.0), rel=1e-8)
    sol = solve_cauchy_g(make_bound("const(2)"), 1.0)
    assert sol.g[-1] == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-8)


def test_cauchy_matches_closed_form_on_grid():
    for c in (1.0, 2.0):
        sol = solve_cauchy_g(make_bound(f"const({c})"), 5.0)
        inside = sol.grid > 0
        expected = np.sinh(c * sol.grid[inside]) / c
        np.testing.assert_allclose(sol.g[inside], expected, rtol=1e-8)
        np.testing.assert_allclose(sol.dg[inside], np.cosh(c * sol.grid[inside]), rtol=1e-8)


def test_cauchy_initial_slope():
    for spec in TEST_BOUNDS:
        sol = solve_cauchy_g(make_bound(spec), 1.0, num=10001)
        t = sol.grid[1]  # 1e-4
        assert abs(sol.g[1] / t - 1.0) < 1e-6, spec
    assert sol.g[0] == 0.0
    assert sol.dg[0] == 1.0


def overflow_point(G):
    with pytest.raises(DomainError, match="overflows float64") as info:
        solve_cauchy_g(G, 1e12)
    return float(re.search(r"near t = (\S+);", str(info.value)).group(1))


def scaled_rhs(G):
    """z' = (A - G) z for z = e^{-I} (g, g'): the Cauchy problem without its growth e^I.

    The same solution, which DOP853 resolves in far fewer steps near the
    overflow point.
    """
    def rhs(t, z):
        gt = G(t)
        return [z[1] - gt * z[0], gt * (gt * z[0] - z[1])]
    return rhs


@pytest.mark.parametrize("spec", ORACLE_BOUNDS)
def test_magnus_matches_a_tight_runge_kutta_reference(spec):
    integrate = pytest.importorskip("scipy.integrate")
    G = make_bound(spec)
    for T in (0.5, 5.0, 0.999 * overflow_point(G)):
        sol = solve_cauchy_g(G, T)
        ref = integrate.solve_ivp(scaled_rhs(G), (0.0, T), [0.0, 1.0], method="DOP853",
                                  rtol=1e-13, atol=1e-14, t_eval=sol.grid)
        assert ref.success
        g, dg = ref.y * np.exp(G.primitive(sol.grid))
        assert np.max(np.abs(sol.g[1:] / g[1:] - 1.0)) <= 1e-9, (spec, T)
        assert np.max(np.abs(sol.dg / dg - 1.0)) <= 1e-9, (spec, T)
        assert sol.diagnostics["steps"] >= sol.grid.size - 1


def test_a_small_bound_stays_finite_below_the_overflow_point():
    # g ~ e^I/(2 G(0)): the guard must leave room for the factor 1/G(0)
    G = make_bound("const(1e-6)")
    sol = solve_cauchy_g(G, 0.999 * overflow_point(G))
    assert np.all(np.isfinite(sol.g)) and np.all(np.isfinite(sol.dg))


@pytest.mark.parametrize("spec", ORACLE_BOUNDS)
def test_primitives_match_quadrature(spec):
    G = make_bound(spec)
    t = np.array([1e-6, 0.3, 1.0, 2.0, 5.0, 50.0])
    expected = [quad(G, 0.0, float(ti)) for ti in t]
    np.testing.assert_allclose(G.primitive(t), expected, rtol=1e-12, atol=0.0)
    assert G.primitive(0.0) == 0.0


@pytest.mark.parametrize("spec", ORACLE_BOUNDS)
def test_reciprocal_integrals_match_quadrature(spec):
    G = make_bound(spec)
    for k in range(6):  # the admissibility windows
        expected = quad(lambda s: 1.0 / G(s), 10.0**k, 10.0 ** (k + 1))
        assert G.reciprocal_integral(10.0**k, 9.0 * 10.0**k) == pytest.approx(expected, rel=1e-10)
    for t in (1e-9, 0.5, 3.7, 100.0, 1e4):
        expected = quad(lambda s: 1.0 / G(s + 1.0), 0.0, t)
        assert phi_gamma(G, t) == pytest.approx(expected, rel=1e-10)


def test_growth_functions_reject_non_finite_times():
    G = make_bound("const(1)")
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError):
            psi(G, t)
        with pytest.raises(DomainError):
            phi_gamma(G, t)
    with pytest.raises(DomainError):
        solve_cauchy_g(G, 1.0, num=1)


# -- psi and the Sturm comparison ----------------------------------------------


def test_psi_closed_forms():
    one = make_bound("const(1)")
    assert psi(one, 1.0) == pytest.approx(math.e - 1.0, rel=1e-10)
    for c in (0.5, 2.0):
        G = make_bound(f"const({c})")
        for t in (0.3, 1.0, 2.5):
            assert psi(G, t) == pytest.approx(math.expm1(c * t) / c, rel=1e-10)
    assert psi(one, 0.0) == 0.0


def test_psi_unit_slope_at_zero():
    h = 1e-6
    for spec in TEST_BOUNDS:
        G = make_bound(spec)
        assert (psi(G, h) - psi(G, 0.0)) / h == pytest.approx(1.0, abs=1e-5)


def test_psi_is_subsolution():
    h = 1e-4
    for spec in TEST_BOUNDS:
        G = make_bound(spec)
        for t in (0.5, 1.0, 2.0, 4.0):
            fd2 = (psi(G, t + h) - 2.0 * psi(G, t) + psi(G, t - h)) / h**2
            assert fd2 - G(t) ** 2 * psi(G, t) >= -1e-8, spec


def test_sturm_margin_nonnegative_for_test_set():
    for spec in TEST_BOUNDS:
        assert sturm_margin(make_bound(spec), 5.0) >= -1e-6, spec


def test_sturm_closed_form_margin_at_one():
    # e/(e-1) - coth(1) = 0.2689414213699951
    sol_grid, g, dg, _, margins = sturm_profile(make_bound("const(1)"), 1.0)
    assert sol_grid[-1] == pytest.approx(1.0)
    expected = math.e / (math.e - 1.0) - 1.0 / math.tanh(1.0)
    assert margins[-1] == pytest.approx(expected, abs=1e-5)
    assert expected == pytest.approx(0.268942, abs=1e-5)


def test_sturm_margin_decays_at_infinity():
    _, _, _, _, margins = sturm_profile(make_bound("const(1)"), 20.0)
    assert 0.0 < margins[-1] < 1e-6


def test_sturm_requires_minimum_horizon():
    with pytest.raises(DomainError):
        sturm_margin(make_bound("const(1)"), 0.05)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_horizons_must_be_finite_and_positive(horizon):
    # NaN fails every comparison, so each guard must reject it rather than
    # let it reach solve_ivp (which never returns on a NaN span)
    G = make_bound("const(1)")
    with pytest.raises(DomainError):
        solve_cauchy_g(G, horizon)
    with pytest.raises(DomainError):
        sturm_profile(G, horizon)
    with pytest.raises(DomainError):
        lambda_sup(G, t_max=horizon)


def test_lambda_requires_t_max_of_at_least_two():
    G = make_bound("const(1)")
    for t_max in (1.0, 1.5, 1.999):
        with pytest.raises(DomainError):
            lambda_sup(G, t_max=t_max)
    assert lambda_sup(G, t_max=2.0).argmax == 2.0


# -- Lambda and the barrier primitive -------------------------------------------


def test_lambda_constant_bound():
    res = lambda_sup(make_bound("const(1)"))
    assert res.value == pytest.approx(math.e**2 / (math.e - 1.0), rel=1e-13)
    assert res.argmax == 2.0
    assert res.tail_limit == pytest.approx(math.e, rel=1e-13)
    res2 = lambda_sup(make_bound("const(2)"))
    assert res2.value == pytest.approx(math.exp(4.0) / math.expm1(2.0), rel=1e-13)
    assert res2.argmax == 2.0


# int_0^t G in closed form for the four bench bounds
PRIMITIVES = {
    "const(1)": lambda t: t,
    "const(2)": lambda t: 2.0 * t,
    "affine(1,1)": lambda t: t + t * t / 2.0,
    "sqrt_growth(1)": lambda t: t + 2.0 / 3.0 * ((1.0 + t) ** 1.5 - 1.0),
}


@pytest.mark.parametrize("spec", TEST_BOUNDS)
def test_lambda_matches_closed_form_primitives(spec):
    # F is decreasing, so Lambda = F(2) = e^{I(1)} / (1 - e^{-(I(2) - I(1))})
    I = PRIMITIVES[spec]
    res = lambda_sup(make_bound(spec))
    assert res.argmax == 2.0
    assert res.value == pytest.approx(math.exp(I(1.0)) / -math.expm1(I(1.0) - I(2.0)), rel=1e-13)
    assert res.tail_limit == pytest.approx(math.exp(I(1.0)), rel=1e-13)


@pytest.mark.parametrize("spec", TEST_BOUNDS)
def test_lambda_does_not_depend_on_the_horizon(spec):
    G = make_bound(spec)
    first, *rest = (lambda_sup(G, t_max=t_max) for t_max in (2.0, 50.0, 5000.0))
    assert all(res == first for res in rest)


def test_lambda_affine_bound_is_finite_with_decreasing_tail():
    res = lambda_sup(make_bound("affine(1,1)"))
    assert np.isfinite(res.value)
    assert res.argmax == pytest.approx(2.0, abs=1e-3)
    assert res.tail_limit < res.value


def test_phi_gamma_closed_forms():
    one = make_bound("const(1)")
    for t in (0.0, 1.0, 3.7):
        assert phi_gamma(one, t) == pytest.approx(t, rel=1e-10, abs=1e-12)
    affine = make_bound("affine(1,1)")
    for t in (0.5, 2.0, 10.0):
        assert phi_gamma(affine, t) == pytest.approx(math.log((t + 2.0) / 2.0), rel=1e-9)


def test_phi_gamma_increasing_concave_divergent():
    for spec in TEST_BOUNDS:
        G = make_bound(spec)
        grid = np.linspace(0.0, 8.0, 30)
        vals = [phi_gamma(G, float(t)) for t in grid]
        diffs = np.diff(vals)
        assert all(d > 0 for d in diffs)
        assert all(x >= y - 1e-12 for x, y in zip(diffs, diffs[1:]))  # concave
    assert phi_gamma(make_bound("const(1)"), 1e4) > phi_gamma(make_bound("const(1)"), 1e3) + 100.0
    assert phi_gamma(make_bound("affine(1,1)"), 1e4) > phi_gamma(make_bound("affine(1,1)"), 1e3) + 2.0
