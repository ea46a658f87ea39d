"""purespin: split-signature Clifford algebras, pure spinors and Dirac structures,
with numerical verification of moment-map identities on matrix Lie groups."""

__version__ = "0.1.0"

from .bilinear import (
    BilinearSpace,
    LagrangianSubspace,
    Subspace,
    make_split_space,
    transverse,
)
from .clifford import CliffordAlgebra, CliffordElement, PinElement, projector_p
from .multivector import Multivector
from .spinor import DoubledSpace, PureSpinor

__all__ = [
    "__version__",
    "BilinearSpace",
    "Subspace",
    "LagrangianSubspace",
    "make_split_space",
    "transverse",
    "CliffordAlgebra",
    "CliffordElement",
    "PinElement",
    "projector_p",
    "Multivector",
    "DoubledSpace",
    "PureSpinor",
]
