import struct

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def record_acceptance(criterion, passed, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def wulff_ball_rho(dual, r):
    """The (rho, grad_S rho) function of the Wulff ball of radius r for
    `radial_perimeter`: rho = r / phi_polar(u) and
    grad_S rho = -rho P_t grad phi_polar(u) / phi_polar(u), P_t = I - u u^T."""
    def rho_fn(u):
        pol, gp = dual.eval(u), dual.grad(u)
        rho = r / pol
        tang = gp - np.sum(gp * u, axis=-1, keepdims=True) * u
        return rho, -(rho / pol)[:, None] * tang
    return rho_fn


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def nan_spacing_vox(tmp_path):
    """A saved 4x4 voxel file whose 8 spacing bytes are patched to NaN."""
    from aniso import VoxelSet

    occ = np.zeros((4, 4), dtype=bool)
    occ[1:3, 1:3] = True
    path = tmp_path / "nan.vox"
    VoxelSet(np.zeros(2), 0.5, occ).save(path)
    raw = bytearray(path.read_bytes())
    # magic (5 bytes), endianness tag, dim, then two int64 dims and two float64 origins
    struct.pack_into("<d", raw, 5 + 1 + 1 + 16 + 16, float("nan"))
    path.write_bytes(bytes(raw))
    return path


@pytest.fixture
def over_budget_vox(tmp_path):
    """A header-only 2D voxel file claiming 8192 x 8192 = 2^26 voxels, twice the
    voxel budget, with no payload."""
    path = tmp_path / "huge.vox"
    path.write_bytes(b"AVOX\x01<" + struct.pack("<B2q3d", 2, 8192, 8192, 0.0, 0.0, 0.1))
    return path
