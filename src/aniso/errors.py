"""Exception types shared across the package."""


class AnisoError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(AnisoError, ValueError):
    """An argument is outside the documented domain (non-finite input, bad shape, ...)."""


class SingularPointError(AnisoError):
    """Derivative requested at a point where the norm is not differentiable."""


class UnsupportedOperationError(AnisoError):
    """Operation not defined for this norm family (e.g. Hessian of a crystalline norm)."""


class ConvergenceError(AnisoError):
    """An iterative solver did not reach its tolerance.

    Carries the best value found, a rough bound on the remaining gap and,
    from a batched solve, the indices of the points that did not stop.
    """

    def __init__(self, message, best=None, gap=None, stuck=None):
        super().__init__(message)
        self.best = best
        self.gap = gap
        self.stuck = stuck


class NonUniqueMaximizerError(SingularPointError):
    """The dual-norm maximizer (the polar's gradient) is not unique: a crystalline face."""


class InvalidMeshError(AnisoError):
    """Mesh is not watertight / consistently oriented, or carries NaN data."""


class GeometryError(AnisoError):
    """A generated geometry is invalid (self-intersection, bad parameters)."""


class MarginError(AnisoError):
    """A voxel operation would touch or cross the grid boundary margin."""


class DepthRangeError(InvalidArgumentError):
    """Erosion radii or Minkowski pairs fall outside 0 < s < r < rbar."""


class VoxelBudgetError(InvalidArgumentError):
    """A raster would have more voxels than the budget allows."""


class MeshBudgetError(InvalidArgumentError):
    """A generated mesh would have more vertices than the budget allows."""


class ResolutionError(InvalidArgumentError):
    """A grid spacing is too coarse to resolve the shape it measures."""


class InsufficientDataError(AnisoError):
    """Not enough samples remain for a fit."""


class ConfigError(AnisoError):
    """Configuration text could not be parsed or validated."""
