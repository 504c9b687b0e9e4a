import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso import (
    ConvergenceError,
    DualNorm,
    EllipseNorm,
    EuclideanNorm,
    InvalidArgumentError,
    L1Norm,
    LinfNorm,
    NonUniqueMaximizerError,
    SingularPointError,
    SmoothedMaxNorm,
    UnsupportedOperationError,
    WeightedLpNorm,
    convexity_certificate,
    parse_norm,
    unit_sphere_samples,
)
from aniso.norms import _BLOCK, _asinh_of_exp, _newton, _SmoothedMaxPolar

ALL_SPECS_2D = ["euclidean", "ellipse:1,4", "lp:3", "smoothmax:0.1", "l1", "linf"]
ALL_SPECS_3D = ["euclidean", "ellipse:1,4,2", "lp:3", "smoothmax:0.1", "l1", "linf"]


def fd_grad(f, v, h=1e-6):
    v = np.asarray(v, float)
    out = np.zeros_like(v)
    for i in range(len(v)):
        e = np.zeros_like(v)
        e[i] = h
        out[i] = (f(v + e) - f(v - e)) / (2 * h)
    return out


def fd_hess(f, v, h=1e-4):
    d = len(v)
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d); ej = np.zeros(d)
            ei[i] = h; ej[j] = h
            out[i, j] = (f(v + ei + ej) - f(v + ei - ej)
                         - f(v - ei + ej) + f(v - ei - ej)) / (4 * h * h)
    return out


class TestEval:
    def test_euclidean_pythagorean(self):
        assert EuclideanNorm(2).eval([3, 4]) == pytest.approx(5.0)

    def test_linf_max_abs(self):
        assert LinfNorm(3).eval([1, -2, 0.5]) == pytest.approx(2.0)

    def test_ellipse_direct_formula(self):
        # oracle: sqrt(v^T Q v)
        Q = np.diag([1.0, 4.0])
        v = np.array([1.0, 1.0])
        assert EllipseNorm(Q).eval(v) == pytest.approx(np.sqrt(v @ Q @ v), rel=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EuclideanNorm(2).eval([np.nan, 1.0])

    @pytest.mark.parametrize("spec", ALL_SPECS_3D)
    def test_homogeneity_and_positivity(self, spec, rng):
        norm = parse_norm(spec, 3)
        v = rng.normal(size=(200, 3))
        vals = norm.eval(v)
        assert np.all(vals > 0)
        for t in (0.25, 2.0, 10.0):
            assert np.allclose(norm.eval(t * v), t * vals, rtol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS_2D)
    def test_triangle_inequality(self, spec, rng):
        norm = parse_norm(spec, 2)
        u = rng.normal(size=(500, 2))
        v = rng.normal(size=(500, 2))
        assert np.all(norm.eval(u + v) <= norm.eval(u) + norm.eval(v) + 1e-12)


class TestGrad:
    def test_euclidean_radial(self):
        assert np.allclose(EuclideanNorm(2).grad([0, 1]), [0, 1])
        assert np.allclose(EuclideanNorm(2).grad([0, 2]), [0, 1])

    def test_ellipse_against_finite_differences(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        assert np.allclose(norm.grad([1, 0]), [1, 0], atol=1e-12)
        for v in ([1.0, 0.7], [-0.3, 1.1]):
            assert np.allclose(norm.grad(v), fd_grad(norm.eval, v), atol=1e-8)

    @pytest.mark.parametrize("spec", ["euclidean", "ellipse:1,4,2", "lp:3", "smoothmax:0.1"])
    def test_gradient_matches_finite_differences(self, spec, rng):
        norm = parse_norm(spec, 3)
        for v in rng.normal(size=(10, 3)):
            assert np.allclose(norm.grad(v), fd_grad(norm.eval, v), atol=2e-7)

    @pytest.mark.parametrize("spec", ["euclidean", "ellipse:1,4,2", "lp:3", "smoothmax:0.1", "l1", "linf"])
    def test_euler_identity_and_zero_homogeneity(self, spec, rng):
        norm = parse_norm(spec, 3)
        v = rng.normal(size=(300, 3))
        g = norm.grad(v)
        assert np.max(np.abs(np.sum(g * v, axis=-1) - norm.eval(v))
                      / norm.eval(v)) <= 1e-10
        for t in (0.5, 2.0, 10.0):
            assert np.allclose(norm.grad(t * v), g, atol=1e-10)

    def test_origin_is_singular(self):
        with pytest.raises(SingularPointError):
            EuclideanNorm(3).grad([0.0, 0.0, 0.0])

    def test_l1_singular_on_hyperplanes(self):
        with pytest.raises(SingularPointError):
            L1Norm(3).grad([1.0, 0.0, 2.0])
        assert np.allclose(L1Norm(3).grad([1.0, -2.0, 3.0]), [1, -1, 1])

    def test_linf_singular_on_ties(self):
        with pytest.raises(SingularPointError):
            LinfNorm(2).grad([1.0, 1.0])
        assert np.allclose(LinfNorm(3).grad([1.0, -2.0, 0.5]), [0, -1, 0])


class TestHess:
    def test_euclidean_projector(self):
        h = EuclideanNorm(2).hess([1.0, 0.0])
        assert np.allclose(h, [[0, 0], [0, 1]], atol=1e-14)

    def test_degree_minus_one_homogeneity(self):
        h = EuclideanNorm(2).hess([2.0, 0.0])
        assert np.allclose(h, [[0, 0], [0, 0.5]], atol=1e-14)

    def test_smoothmax_symmetric_annihilates_radial(self):
        norm = SmoothedMaxNorm(3, 0.1)
        v = np.array([1.0, 1.0, 1.0])
        h = norm.hess(v)
        assert np.allclose(h, h.T, atol=1e-12)
        assert np.allclose(h @ v, 0.0, atol=1e-12)
        # finite-difference oracle
        assert np.abs(h - fd_hess(norm.eval, v)).max() < 1e-5

    @pytest.mark.parametrize("spec", ["ellipse:1,4,2", "lp:3", "smoothmax:0.2"])
    def test_hessian_against_finite_differences(self, spec, rng):
        norm = parse_norm(spec, 3)
        for v in rng.normal(size=(5, 3)):
            assert np.abs(norm.hess(v) - fd_hess(norm.eval, v)).max() < 1e-5

    def test_crystalline_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            L1Norm(2).hess([1.0, 2.0])
        with pytest.raises(UnsupportedOperationError):
            LinfNorm(2).hess([1.0, 2.0])


class TestDual:
    def test_linf_dual_is_l1(self):
        assert LinfNorm(3).dual().eval([1, -2, 0.5]) == pytest.approx(3.5)

    def test_euclidean_self_dual(self):
        assert EuclideanNorm(2).dual().eval([3, 4]) == pytest.approx(5.0)

    def test_ellipse_dual_grid_search_oracle(self):
        # oracle: maximize u . v over a dense sample of { phi(v) = 1 }
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        th = np.linspace(0, 2 * np.pi, 1_000_000, endpoint=False)
        vs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        vs /= norm.eval(vs)[:, None]
        u = np.array([0.0, 1.0])
        oracle = float(np.max(vs @ u))
        assert oracle == pytest.approx(0.5, abs=1e-9)
        assert norm.dual().eval(u) == pytest.approx(0.5, rel=1e-12)

    def test_dual_grad_examples(self):
        assert np.allclose(EuclideanNorm(2).dual().grad([0, 3]), [0, 1])
        d = EllipseNorm(np.diag([1.0, 4.0])).dual()
        # oracle: argmax over dense sample of the unit phi-sphere gives (0, 0.5)
        assert np.allclose(d.grad([0, 1]), [0, 0.5], atol=1e-12)

    def test_dual_grad_lands_on_unit_sphere(self, rng):
        norm = SmoothedMaxNorm(3, 0.1)
        d = norm.dual()
        u = rng.normal(size=(50, 3))
        v = d.grad(u)
        assert np.allclose(norm.eval(v), 1.0, atol=1e-10)
        assert np.allclose(np.sum(u * v, axis=-1), d.eval(u), rtol=1e-10)

    def test_non_unique_maximizer_on_l1_face(self):
        # the whole face of the l1 unit sphere between e1 and e2 attains the sup
        with pytest.raises(NonUniqueMaximizerError):
            L1Norm(2).dual().grad([1.0, 1.0])

    def test_non_unique_maximizer_on_linf_face(self):
        with pytest.raises(NonUniqueMaximizerError):
            LinfNorm(2).dual().grad([1.0, 0.0])

    def test_numeric_engine_matches_closed_forms(self, rng):
        norm = EllipseNorm(np.diag([1.0, 4.0, 2.0]))
        numeric = DualNorm(norm)
        u = rng.normal(size=(40, 3))
        assert np.max(np.abs(numeric.eval(u) - norm.dual().eval(u))
                      / norm.dual().eval(u)) < 1e-10

    def test_numeric_engine_hessian_matches_closed_form(self, rng):
        norm = EllipseNorm(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]))
        u = rng.normal(size=(10, 3))
        assert np.max(np.abs(DualNorm(norm).hess(u) - norm.dual().hess(u))) < 1e-8

    def test_smoothmax_polar_against_dense_oracle(self, rng):
        norm = SmoothedMaxNorm(3, 0.1)
        us = unit_sphere_samples(3, 100_000)
        vs = us / norm.eval(us)[:, None]
        u = rng.normal(size=(20, 3))
        oracle = np.max(u @ vs.T, axis=1)
        impl = norm.dual().eval(u)
        # a finite sample of the sphere can only underestimate the sup
        assert np.all(impl >= oracle - 1e-12)
        assert np.max((impl - oracle) / oracle) < 5e-4

    @pytest.mark.parametrize("dim,specs", [(2, ALL_SPECS_2D), (3, ALL_SPECS_3D)])
    def test_fenchel_inequality(self, dim, specs, rng):
        for spec in specs:
            norm = parse_norm(spec, dim)
            dual = norm.dual()
            u = rng.normal(size=(2000, dim))
            v = rng.normal(size=(2000, dim))
            lhs = np.sum(u * v, axis=-1)
            rhs = dual.eval(u) * norm.eval(v)
            assert np.all(lhs <= rhs + 1e-10 * np.maximum(rhs, 1.0)), spec

    @pytest.mark.parametrize("spec", ["euclidean", "ellipse:1,4,2", "lp:3", "smoothmax:0.1"])
    def test_involution_closed_forms(self, spec, rng):
        norm = parse_norm(spec, 3)
        v = rng.normal(size=(1000, 3))
        double = norm.dual().dual()
        err = np.abs(double.eval(v) - norm.eval(v)) / norm.eval(v)
        assert np.max(err) <= 1e-8

    @pytest.mark.parametrize("dim,spec", [(2, s) for s in ALL_SPECS_2D]
                             + [(3, s) for s in ALL_SPECS_3D])
    def test_dual_is_closed_form_built_once(self, dim, spec):
        norm = parse_norm(spec, dim)
        polar = norm.dual()
        assert type(polar) is not DualNorm
        assert norm.dual() is polar
        assert polar.dual() is norm

    def test_other_polars_keep_the_first_link(self):
        # a second polar built by the hook, or the numeric engine on the
        # polar, links back to the norm without repointing norm.dual()
        norm = SmoothedMaxNorm(2, 0.1)
        polar = norm.dual()
        assert norm._dual_partner().dual() is norm
        assert DualNorm(polar).dual() is polar
        assert norm.dual() is polar and polar.dual() is norm

    @pytest.mark.parametrize("base", [L1Norm(3), LinfNorm(3), L1Norm(2), LinfNorm(2)])
    def test_numeric_engine_rejects_crystalline_base(self, base):
        with pytest.raises(UnsupportedOperationError):
            DualNorm(base)

    def test_involution_numeric_engine(self, rng):
        # the ascent/Newton path on the polar of the smoothed max norm
        norm = SmoothedMaxNorm(3, 0.1)
        numeric_bidual = DualNorm(norm.dual())
        v = rng.normal(size=(30, 3))
        err = np.abs(numeric_bidual.eval(v) - norm.eval(v)) / norm.eval(v)
        assert np.max(err) <= 1e-8

    def test_numeric_engine_near_a_coordinate_axis(self):
        # the polar of lp:6 is lp:1.2, whose Hessian is refused within 1e-12
        # of a coordinate hyperplane; the maximizer for u = (1, 0.003) lies
        # 2.4e-13 off the first axis, so the polish runs off that domain
        norm = parse_norm("lp:6", 2)
        u = np.array([[1.0, 0.003], [0.003, -1.0]])
        values = DualNorm(norm.dual()).eval(u)
        assert np.allclose(values, norm.eval(u), rtol=1e-8, atol=0)


class TestSmoothmaxNewton:
    # a level below the minimum log(2m) of the log-sum-exp (or a polar level W
    # below the minimum m of sum_i sqrt(1 + t^2 u_i^2)) leaves the scalar
    # equation without a root, so every Newton step keeps a residual
    def test_gauge_solve_raises_on_exhaustion(self, monkeypatch):
        norm = SmoothedMaxNorm(3, 0.1)
        monkeypatch.setattr(norm, "_log_level", 1.0)
        with pytest.raises(ConvergenceError) as info:
            norm.eval(np.array([[1.0, 0.5, 0.2]]))
        assert info.value.gap >= np.log(6.0) - 1.0 - 1e-12
        assert info.value.best.shape == (1,)

    def test_polar_solve_raises_on_exhaustion(self, monkeypatch):
        base = SmoothedMaxNorm(3, 0.1)
        polar = base.dual()
        monkeypatch.setattr(base, "_log_w", np.log(0.5))
        with pytest.raises(ConvergenceError) as info:
            polar.eval(np.array([[1.0, 0.5, 0.2]]))
        assert info.value.gap > 0.0
        assert info.value.best.shape == (1,)


class TestConvexityCertificate:
    def test_euclidean_gamma_is_one(self):
        cert = convexity_certificate(EuclideanNorm(3), 1000)
        assert cert.gamma == pytest.approx(1.0, abs=1e-9)

    def test_ellipse_positive_gamma_matches_dense_sweep(self):
        norm = EllipseNorm(np.diag([1.0, 4.0]))
        cert = convexity_certificate(norm, 1000)
        dense = convexity_certificate(norm, 65536)
        assert cert.gamma > 0
        assert cert.gamma == pytest.approx(dense.gamma, rel=1e-4)

    def test_smoothmax_gamma_decreases_toward_zero(self):
        gammas = [convexity_certificate(SmoothedMaxNorm(3, eps), 2000).gamma
                  for eps in (0.2, 0.1, 0.05)]
        assert gammas[0] > gammas[1] > gammas[2] > 0

    def test_crystalline_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            convexity_certificate(L1Norm(2), 1000)

    def test_sample_count_validated(self):
        with pytest.raises(InvalidArgumentError):
            convexity_certificate(EuclideanNorm(2), 10)


class TestGrammar:
    def test_round_trip_families(self):
        for spec, dim in [("euclidean", 2), ("l1", 3), ("linf", 2),
                          ("lp:3", 3), ("lp:2.5:1,2,3", 3),
                          ("ellipse:1,4", 2), ("smoothmax:0.1", 3)]:
            norm = parse_norm(spec, dim)
            assert norm.dim == dim

    def test_ellipse_entry_counts(self):
        assert np.allclose(parse_norm("ellipse:1,4", 2).Q, np.diag([1, 4]))
        tri = parse_norm("ellipse:2,0.5,1", 2).Q
        assert np.allclose(tri, [[2, 0.5], [0.5, 1]])
        full = parse_norm("ellipse:2,0.5,0.5,1", 2).Q
        assert np.allclose(full, [[2, 0.5], [0.5, 1]])

    def test_rejects_unknown_and_invalid(self):
        with pytest.raises(InvalidArgumentError):
            parse_norm("manhattan", 2)
        with pytest.raises(InvalidArgumentError):
            parse_norm("lp:1", 2)            # crystalline cases are l1/linf
        with pytest.raises(InvalidArgumentError):
            parse_norm("ellipse:1,0", 2)     # not positive definite
        with pytest.raises(InvalidArgumentError):
            parse_norm("smoothmax:0.9", 2)   # level set no longer a gauge body

    @pytest.mark.parametrize("spec,message", [
        ("lp:abc", "lp exponent must be a number, got 'abc'"),
        ("lp:2:1,x", "lp weight must be a number, got 'x'"),
        ("ellipse:1,x", "ellipse entry must be a number, got 'x'"),
        ("smoothmax:", "smoothmax requires an epsilon"),
        ("smoothmax:0.1x", "smoothmax eps must be a number, got '0.1x'"),
        ("lp:nan", "lp family requires a finite p > 1, got nan"),
        ("lp:inf", "lp family requires a finite p > 1, got inf"),
        ("lp:2:1,nan", "lp weights must be finite and positive, got nan"),
        ("lp:2:inf,1", "lp weights must be finite and positive, got inf"),
        ("lp:2:1,0", "lp weights must be finite and positive, got 0.0"),
        ("ellipse:1,nan", "ellipse entries must be finite, got nan"),
        ("ellipse:1,0,inf", "ellipse entries must be finite, got inf"),
        ("smoothmax:nan", "smoothmax requires 0 < eps <= 0.5, got nan")])
    def test_bad_entries_named(self, spec, message):
        with pytest.raises(InvalidArgumentError) as info:
            parse_norm(spec, 2)
        assert str(info.value).startswith(message)


class TestSequenceComparability:
    def test_two_sided_bounds_uniform_in_h(self):
        # pointwise-converging family: the comparability constants stay
        # bounded away from 0 and infinity uniformly in h
        from aniso import norm_sequence
        us = unit_sphere_samples(3, 2000)
        lows, highs = [], []
        for h in range(1, 21):
            norm = norm_sequence("smoothed-max-to-linf", h, dim=3)
            vals = norm.eval(us)
            lows.append(vals.min())
            highs.append(vals.max())
        assert min(lows) > 0.5
        assert max(highs) < 1.1


@st.composite
def _smooth_norms(draw):
    """A random ellipse Q, weighted lp or smoothmax norm in 2D or 3D."""
    dim = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("ellipse", "lp", "smoothmax")))
    if kind == "ellipse":
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim,
                                   max_size=dim * dim))).reshape(dim, dim)
        return EllipseNorm(a @ a.T + 0.1 * np.eye(dim))
    if kind == "lp":
        weights = draw(st.lists(st.floats(0.2, 5.0), min_size=dim, max_size=dim))
        return WeightedLpNorm(dim, draw(st.floats(1.2, 8.0)), weights)
    return SmoothedMaxNorm(dim, 2.0 ** -draw(st.floats(1.0, 8.0)))


_SEEDS = st.integers(0, 2**32 - 1)


class TestNormProperties:
    """Norm axioms and duality for random members of the smooth families."""

    @settings(max_examples=25, deadline=None)
    @given(_smooth_norms(), _SEEDS)
    def test_homogeneity_and_symmetry(self, norm, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(64, norm.dim))
        lam = 10.0 ** rng.uniform(-3, 3, size=64)
        for phi in (norm, norm.dual()):
            val = phi.eval(v)
            assert np.all(val > 0)
            assert np.allclose(phi.eval(lam[:, None] * v), lam * val, rtol=1e-12, atol=0)
            assert np.allclose(phi.eval(-v), val, rtol=1e-14, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(_smooth_norms(), _SEEDS)
    def test_fenchel_young(self, norm, seed):
        # <x, y> <= phi(x) phi_polar(y), with equality at the polar's maximizer
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, 256, norm.dim))
        dual = norm.dual()
        bound = norm.eval(x) * dual.eval(y)
        assert np.all(np.sum(x * y, axis=-1) <= bound + 1e-10 * np.maximum(bound, 1.0))
        xs = dual.grad(y)
        assert np.allclose(norm.eval(xs), 1.0, rtol=1e-10, atol=0)
        assert np.allclose(np.sum(xs * y, axis=-1), dual.eval(y), rtol=1e-12, atol=0)

    @settings(max_examples=10, deadline=None)
    @given(_smooth_norms(), _SEEDS)
    def test_dual_involution(self, norm, seed):
        # the polar of the polar, by the numeric ascent engine, is the norm;
        # where the engine cannot certify a maximizer it raises, and it never
        # returns a value off by more than its tolerance
        v = np.random.default_rng(seed).normal(size=(4, norm.dim))
        bidual = DualNorm(norm.dual())
        try:
            values = bidual.eval(v)
        except ConvergenceError:
            # its stationarity test fails near the crystalline limit
            assert norm.family == "smoothmax" and norm.eps < 2.0**-6
            return
        assert np.allclose(values, norm.eval(v), rtol=1e-8, atol=0)


# Test-only oracle: the smoothmax kernels in plain numpy form, each batch held
# as (N, d) points and every reduction along axis=-1.  The package's
# column-major kernels must agree with it bit for bit.


def _row_softplus(a):
    return np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))


class _RowMajorGauge(SmoothedMaxNorm):
    def _solve_sigma(self, v):
        eps = self.eps
        target = self._log_level
        m = np.max(np.abs(v), axis=-1)
        z = v / eps

        def residual(sigma, idx):
            zi = z[idx]
            a = zi * sigma[:, None]
            mx = np.max(np.abs(a), axis=-1)
            ep = np.exp(a - mx[:, None])
            en = np.exp(-a - mx[:, None])
            ssum = np.sum(ep + en, axis=-1)
            return mx + np.log(ssum), np.sum(zi * (ep - en), axis=-1) / ssum

        return _newton(residual, target * eps / m, target, "smoothmax gauge")

    def _eval(self, v):
        out = np.zeros(v.shape[:-1])
        nz = np.max(np.abs(v), axis=-1) > 0.0
        if np.any(nz):
            out[nz] = 1.0 / self._solve_sigma(v[nz])
        return out

    def _g_grad_hess(self, u, want_hess=True):
        eps = self.eps
        a = u / eps
        mx = np.max(np.abs(a), axis=-1)
        ep = np.exp(a - mx[:, None])
        en = np.exp(-a - mx[:, None])
        ssum = np.sum(ep + en, axis=-1)
        grad = (ep - en) / ssum[:, None]
        if not want_hess:
            return grad, None
        dvec = (ep + en) / ssum[:, None]
        idx = np.arange(self.dim)
        hess = -grad[:, :, None] * grad[:, None, :]
        hess[:, idx, idx] += dvec
        return grad, hess / eps

    def _grad(self, v):
        phi = self._eval(v)
        u = v / phi[..., None]
        g, _ = self._g_grad_hess(u, want_hess=False)
        s = np.sum(g * u, axis=-1)
        return g / s[:, None]

    def _dual_partner(self):
        return _RowMajorPolar(self)


class _RowMajorPolar(_SmoothedMaxPolar):
    def _grad(self, u):
        logw = self.base._log_w
        with np.errstate(divide="ignore"):
            lu = np.log(np.abs(u))
        l1 = np.sum(np.abs(u), axis=-1)

        def residual(theta, idx):
            a = 2.0 * (theta[:, None] + lu[idx])
            term = 0.5 * _row_softplus(a)
            mx = np.max(term, axis=-1, keepdims=True)
            w = np.exp(term - mx)
            ssum = np.sum(w, axis=-1)
            sig = 1.0 / (1.0 + np.exp(-np.clip(a, -700, 700)))
            return mx[:, 0] + np.log(ssum), np.sum(w * sig, axis=-1) / ssum

        theta = _newton(residual, logw - np.log(l1), logw, "smoothmax polar")
        return self.base.eps * np.sign(u) * _asinh_of_exp(theta[:, None] + lu)

    def _eval(self, v):
        out = np.zeros(v.shape[:-1])
        nz = np.max(np.abs(v), axis=-1) > 0.0
        if np.any(nz):
            u = v[nz]
            out[nz] = np.sum(u * self._grad(u), axis=-1)
        return out


@st.composite
def _smoothmax_batches(draw):
    """A smoothmax norm, eps in [2^-8, 0.5], and a batch of 1..2000 points
    over scales 10^-3..10^3 with zero coordinates and whole zero rows."""
    dim = draw(st.sampled_from((2, 3)))
    eps = 2.0 ** -draw(st.floats(1.0, 8.0))
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(_SEEDS))
    v = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    v[rng.random((n, dim)) < draw(st.sampled_from((0.0, 0.1, 0.4)))] = 0.0
    return dim, eps, v


class TestSmoothmaxColumnKernels:
    @settings(max_examples=40, deadline=None)
    @given(_smoothmax_batches())
    def test_bitwise_equal_to_row_major_oracle(self, case):
        dim, eps, v = case
        nonzero = v[np.any(v != 0.0, axis=-1)]
        pairs = ((SmoothedMaxNorm(dim, eps), _RowMajorGauge(dim, eps)),)
        pairs += ((pairs[0][0].dual(), pairs[0][1].dual()),)
        for norm, oracle in pairs:
            assert type(norm) is not type(oracle)
            assert np.array_equal(norm.eval(v), oracle.eval(v))
            if len(nonzero):
                assert np.array_equal(norm.grad(nonzero), oracle.grad(nonzero))
                assert np.array_equal(norm.hess(nonzero), oracle.hess(nonzero))


@st.composite
def _smoothmax_subsets(draw):
    """A smoothmax eps in [2^-8, 0.5], a batch of 1..600 points and a subset
    of it.  A quarter of the points lie on the tangency plane of the unit
    two-bubble seen from a ball centre (y_0 = -c_0 with c = grad phi(e_0)),
    and a quarter on the plane y_0 = 0."""
    dim = draw(st.sampled_from((2, 3)))
    eps = 2.0 ** -draw(st.floats(1.0, 8.0))
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(_SEEDS))
    v = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    v[:n // 4, 0] = -SmoothedMaxNorm(dim, eps).grad(np.eye(dim)[0])[0]
    v[n // 4:n // 2, 0] = 0.0
    keep = rng.random(n) < draw(st.sampled_from((0.01, 0.3, 0.9)))
    return dim, eps, v, keep


class TestSmoothmaxBatchIndependence:
    @settings(max_examples=40, deadline=None)
    @given(_smoothmax_subsets())
    def test_subset_equals_full_batch(self, case):
        # every point stops its own Newton solve, so a value does not depend
        # on the points that share its batch
        dim, eps, v, keep = case
        norm = SmoothedMaxNorm(dim, eps)
        for phi in (norm, norm.dual()):
            assert np.array_equal(phi.eval(v[keep]), phi.eval(v)[keep])
            assert np.array_equal(phi.grad(v[keep]), phi.grad(v)[keep])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_blocks_equal_small_batches(self, dim):
        # a batch longer than a block is solved block by block, and each
        # value is the one a small batch of its own gives
        v = np.random.default_rng(dim).normal(size=(2 * _BLOCK + 77, dim))
        norm = SmoothedMaxNorm(dim, 0.125)
        for phi in (norm, norm.dual()):
            for op in (phi.eval, phi.grad):
                small = [op(v[i:i + 1000]) for i in range(0, len(v), 1000)]
                assert np.array_equal(op(v), np.concatenate(small))
