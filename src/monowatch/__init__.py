"""Shortest watchman tours in simple polygons under direction-constrained
visibility, with a rotating sweep over the direction parameter.

The package exports what the README's Library section uses; every other
name is imported from its module (``monowatch.cuts``, ``.gates``,
``.sleeve``, ``.solver``, ``.kinetic``, ``.rotor`` and ``.oracle``).
"""

from .geom import Angle, EventAngleError, GeometryError, Point, Polygon
from .rotor import optimize
from .solver import solve_theta

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "EventAngleError",
    "GeometryError",
    "Point",
    "Polygon",
    "optimize",
    "solve_theta",
]
