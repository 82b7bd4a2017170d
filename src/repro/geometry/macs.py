"""Multiply-accumulate (MAC) accounting for pose representations (Sec. 4.3).

The paper motivates ``<so(3), T(3)>`` by showing it avoids the padded
zeros/ones of SE(3) and the higher-dimensional exponential/logarithmic maps
of se(3), reporting a 52.7% MAC saving on the pose-graph workload.  This
module provides an explicit, documented cost model for every primitive
under both representations and aggregates them over factor evaluations.

Cost model conventions
----------------------
- A MAC is one multiply(-accumulate).  An ``(a x b) @ (b x c)`` product
  costs ``a*b*c`` MACs; a matrix-vector product ``(a x b) @ b`` costs
  ``a*b``.
- Transposes, negations and pure additions cost zero MACs (they are
  tracked separately as ``adds`` where relevant).
- A trigonometric/irrational scalar evaluation (sin, cos, arccos, sqrt,
  division) is charged ``TRIG_MAC_EQUIV`` MAC-equivalents, matching the
  iteration count of the CORDIC units used by the hardware templates.
"""

from __future__ import annotations

from dataclasses import dataclass

TRIG_MAC_EQUIV = 10


@dataclass
class MacCount:
    """Aggregated MAC-equivalent operation count."""

    macs: int = 0

    def __add__(self, other: "MacCount") -> "MacCount":
        return MacCount(self.macs + other.macs)

    def __mul__(self, k: int) -> "MacCount":
        return MacCount(self.macs * k)

    __rmul__ = __mul__


def matmul(a: int, b: int, c: int) -> MacCount:
    """MACs of an ``(a x b) @ (b x c)`` dense product."""
    return MacCount(a * b * c)


def matvec(a: int, b: int) -> MacCount:
    """MACs of an ``(a x b) @ b`` dense product."""
    return MacCount(a * b)


def scalar_matrix(rows: int, cols: int) -> MacCount:
    """MACs of scaling a matrix by a scalar."""
    return MacCount(rows * cols)


def trig(count: int = 1) -> MacCount:
    """MAC-equivalents of ``count`` trig/irrational scalar evaluations."""
    return MacCount(TRIG_MAC_EQUIV * count)


# ----------------------------------------------------------------------
# Primitive costs under <so(3), T(3)>
# ----------------------------------------------------------------------

def exp_so3() -> MacCount:
    """Rodrigues: norm (3 + sqrt), 2 trig, K@K (27), 2 scalings (18)."""
    return MacCount(3) + trig(3) + matmul(3, 3, 3) + 2 * scalar_matrix(3, 3)


def log_so3() -> MacCount:
    """trace + arccos + sin + scaling of the antisymmetric part."""
    return trig(2) + MacCount(1) + scalar_matrix(3, 1) * 3


def right_jacobian_so3() -> MacCount:
    """Same structure as Rodrigues (two coefficients times K, K@K)."""
    return MacCount(3) + trig(3) + matmul(3, 3, 3) + 2 * scalar_matrix(3, 3)


def compose_unified() -> MacCount:
    """``(+)`` of Equ. 2: Log(R1 R2) and t1 + R1 t2."""
    return 2 * exp_so3() + matmul(3, 3, 3) + log_so3() + matvec(3, 3)


def between_error_unified() -> MacCount:
    """Equ. 4 error: e_o = Log(dR^T Rj^T Ri), e_p = dR^T(Rj^T(ti-tj)-dt)."""
    # Exp for Ri, Rj (the measurement rotation is cached), two 3x3 products,
    # one Log, two matrix-vector products.
    return (
        2 * exp_so3()
        + 2 * matmul(3, 3, 3)
        + log_so3()
        + 2 * matvec(3, 3)
    )


def between_jacobians_unified() -> MacCount:
    """Derivative instructions emitted by backward propagation on Fig. 11.

    Orientation rows need ``J_r^{-1}(e_o)`` and one chained 3x3 product per
    pose; translation rows need two 3x3 products and one skew-based product.
    """
    return (
        right_jacobian_so3()          # Jr^{-1}(e_o)
        + 2 * matmul(3, 3, 3)         # chain products for phi_i, phi_j
        + 2 * matmul(3, 3, 3)         # dR^T Rj^T for t_i, t_j rows
        + matmul(3, 3, 3)             # dR^T [Rj^T(ti-tj)]x for phi_j row
        + matvec(3, 3)                # the skewed vector itself
    )


# ----------------------------------------------------------------------
# Primitive costs under SE(3) / se(3)
# ----------------------------------------------------------------------

def exp_se3() -> MacCount:
    """so(3) exp plus the V = J_l matrix and V @ rho."""
    return exp_so3() + right_jacobian_so3() + matvec(3, 3)


def log_se3() -> MacCount:
    """so(3) log plus V^{-1} and V^{-1} @ t."""
    return log_so3() + right_jacobian_so3() + matvec(3, 3)


def compose_se3() -> MacCount:
    """Homogeneous 4x4 matrix product (the padded zeros/ones are computed)."""
    return 2 * exp_se3() + matmul(4, 4, 4) + log_se3()


def between_error_se3() -> MacCount:
    """e = Log(dT^{-1} Ti^{-1} Tj) with 4x4 products and an SE(3) inverse."""
    return (
        2 * exp_se3()
        + matvec(3, 3) + MacCount(0)   # SE(3) inverse: R^T t
        + 2 * matmul(4, 4, 4)
        + log_se3()
    )


def between_jacobians_se3() -> MacCount:
    """6x6 right-Jacobian inverse of SE(3) plus 6x6 adjoint chain products.

    ``J_r^{-1}`` for SE(3) is block-structured (two J_r^{-1} blocks of SO(3)
    plus the coupling block Q); the adjoint is built from R and [t]x R and
    chained with a 6x6 product per pose.
    """
    q_block = 4 * matmul(3, 3, 3) + 4 * scalar_matrix(3, 3) + trig(2)
    adjoint = matmul(3, 3, 3)          # [t]x R
    chain = 2 * matmul(6, 6, 6)        # per-pose 6x6 chain product
    return 2 * right_jacobian_so3() + q_block + adjoint + chain


# ----------------------------------------------------------------------
# Workload-level aggregation
# ----------------------------------------------------------------------

def retract_unified() -> MacCount:
    """One variable update: phi' = Log(Exp(phi) Exp(dphi)), t' = t + dt."""
    return 2 * exp_so3() + matmul(3, 3, 3) + log_so3()


def retract_se3() -> MacCount:
    """One variable update: T' = T Exp_se3(delta)."""
    return exp_se3() + matmul(4, 4, 4)


def pose_graph_iteration(num_between_factors: int, representation: str) -> MacCount:
    """MACs of one Gauss-Newton iteration of a pose graph.

    Covers what the Fig. 3 loop actually executes per factor: one
    linearization (error + Jacobians), two extra error-only evaluations
    (the before/after objective checks), and one variable retraction.

    Parameters
    ----------
    num_between_factors:
        Number of between (relative-pose) factors in the graph.
    representation:
        ``"unified"`` for ``<so(3), T(3)>`` or ``"se3"``.
    """
    if representation == "unified":
        per_factor = (between_error_unified() + between_jacobians_unified()
                      + 2 * between_error_unified() + retract_unified())
    elif representation == "se3":
        per_factor = (between_error_se3() + between_jacobians_se3()
                      + 2 * between_error_se3() + retract_se3())
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return num_between_factors * per_factor


def mac_savings(num_between_factors: int = 100) -> float:
    """Fractional MAC saving of the unified representation over SE(3).

    The paper reports 52.7% on its localization workload (Sec. 4.3).
    """
    unified = pose_graph_iteration(num_between_factors, "unified").macs
    se3 = pose_graph_iteration(num_between_factors, "se3").macs
    return 1.0 - unified / se3
