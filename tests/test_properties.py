"""Property suite for the norm layer and the crystalline polytopes.

Every family, its closed-form polar and the numeric polar `DualNorm` of each
smooth family, in 2D and 3D, on points of leading shape (), (3,) and (2, 2):
positive homogeneity, Euler's identity <grad phi(v), v> = phi(v), the
Fenchel inequality phi(x) phi_polar(y) >= <x, y>, and bitwise batch
independence of eval, grad and hess (each point gets the same value in
every batch it is part of).  The l1 and linf Wulff polytopes are closed
outward meshes whose volume and anisotropic perimeter satisfy
d |W_r| = r P(W_r).  Points are drawn at unit scale; homogeneity is checked
on eval over factors 1e-3 to 1e3, and for the numeric polar on eval and grad
over |u| = 1e-6 to 1e6.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aniso import (
    DualNorm,
    WulffShape,
    aniso_area,
    crystalline_polytope,
    enclosed_volume,
    parse_norm,
)

_SPECS = {2: ["euclidean", "ellipse:1,4", "lp:3", "smoothmax:0.1", "l1", "linf"],
          3: ["euclidean", "ellipse:1,4,2", "lp:3", "smoothmax:0.1", "l1", "linf"]}
_SMOOTH = {dim: [s for s in specs if s not in ("l1", "linf")] for dim, specs in _SPECS.items()}
_SEEDS = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("polar", [False, True])
@pytest.mark.parametrize("dim,spec", [(d, s) for d in (2, 3) for s in _SPECS[d]])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=_SEEDS)
def test_closed_form_contract(dim, spec, polar, seed):
    norm = parse_norm(spec, dim)
    _check_contract(norm.dual() if polar else norm, seed)


@pytest.mark.parametrize("dim,spec", [(d, s) for d in (2, 3) for s in _SMOOTH[d]])
@settings(max_examples=1, deadline=None, derandomize=True)
@given(seed=_SEEDS)
def test_numeric_polar_contract(dim, spec, seed):
    # one draw each: a numeric polar call runs hundreds of ascent steps
    _check_contract(DualNorm(parse_norm(spec, dim)), seed)


@pytest.mark.parametrize("dim,spec", [(d, s) for d in (2, 3) for s in _SMOOTH[d]])
@settings(max_examples=1, deadline=None, derandomize=True)
@given(seed=_SEEDS)
def test_numeric_polar_is_homogeneous_at_every_scale(dim, spec, seed):
    # eval 1-homogeneous and grad 0-homogeneous on 20 unit directions scaled
    # to |u| = 1e-6 ... 1e6: the solver's tolerances are relative to |u|
    norm = DualNorm(parse_norm(spec, dim))
    u = np.random.default_rng(seed).normal(size=(20, dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    val, grad = norm.eval(u), norm.grad(u)
    for scale in 10.0 ** np.arange(-6, 7, 3):
        assert np.allclose(norm.eval(scale * u), scale * val, rtol=1e-12, atol=0)
        assert np.allclose(norm.grad(scale * u), grad, rtol=0, atol=1e-12)


def _check_contract(norm, seed):
    dim = norm.dim
    rng = np.random.default_rng(seed)
    # nested batches: the point of shape () opens the (3,) batch, which
    # opens the (2, 2) batch, so each point meets three batch compositions
    flat = rng.normal(size=(4, dim))
    vs = [flat[0], flat[:3], flat.reshape(2, 2, dim)]
    whole = {}
    for op in [norm.eval, norm.grad] + ([norm.hess] if norm.smooth else []):
        outs = [np.asarray(op(v)) for v in vs]
        tail = outs[0].shape
        for v, out in zip(vs, outs):
            assert out.shape == v.shape[:-1] + tail
        whole[op.__name__] = outs[2].reshape((4,) + tail)
        assert np.array_equal(outs[0], whole[op.__name__][0])
        assert np.array_equal(outs[1], whole[op.__name__][:3])
    val = whole["eval"]
    lam = 10.0 ** rng.uniform(-3, 3, size=len(flat))
    assert np.allclose(norm.eval(lam[:, None] * flat), lam * val, rtol=1e-12, atol=0)
    assert np.allclose(np.sum(whole["grad"] * flat, axis=-1), val, rtol=1e-12, atol=0)
    y = rng.normal(size=flat.shape)
    bound = val * norm.dual().eval(y)
    assert np.all(np.sum(flat * y, axis=-1) <= bound * (1 + 1e-12))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family", ["l1", "linf"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(log_r=st.floats(-3.0, 3.0))
def test_crystalline_polytope_is_a_closed_wulff_mesh(family, dim, log_r):
    norm = parse_norm(family, dim)
    r = 10.0 ** log_r
    mesh = crystalline_polytope(norm, r)
    mesh.validate()
    # 2^d cube corners or 2d cross-polytope vertices, all on the boundary
    assert len(mesh.vertices) == (2**dim if family == "l1" else 2 * dim)
    assert np.allclose(WulffShape(norm, r).level_at(mesh.vertices), 0.0, atol=1e-15 * r)
    vol, per = enclosed_volume(mesh), aniso_area(mesh, norm)
    assert dim * vol == pytest.approx(r * per, rel=1e-12)
