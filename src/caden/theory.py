"""Convergence-analysis constants and theory-consistent parameter selection.

``select_parameters`` derives the prescribed parameter triple (mu_z, mu_y,
tau) from problem data (smoothness, Laplacian spectrum, participation floor,
local contraction rate).  ``compute_constants`` is the one entry point to the
constants of the averaged-stationarity bound: it takes the same problem data
plus a ``SelectedParameters`` triple and checks the parameter hypotheses the
bound needs.  The module is pure arithmetic on those numbers.

The prescribed mu_y and tau are enormous on realistic graphs; they exist for
numeric sanity checks and tiny instances ("theory mode"), while experiments
run user-set values ("practice mode").  Condition failures always produce a
structured report, never NaN constants and never silent clamping.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .config import check_value
from .errors import ParameterSelectionError
from .graphs import SpectralSummary

MU_Y_FACTOR = 1152.0
TAU_BOUND_FACTOR = 4608.0


@dataclass(frozen=True)
class TheoryConstants:
    chat1: float
    chat2: float
    chat3: float
    chat4: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c1: float
    c2: float


@dataclass(frozen=True)
class TheoryReport:
    """Constants plus per-hypothesis flags; constants are None when the
    gating hypotheses fail."""

    conditions_met: dict[str, bool]
    constants: TheoryConstants | None = None

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(name for name, met in self.conditions_met.items() if not met)

    @property
    def ok(self) -> bool:
        return all(self.conditions_met.values()) and self.constants is not None

    def as_dict(self) -> dict:
        out = {"conditions_met": dict(self.conditions_met), "violations": list(self.violations)}
        if self.constants is not None:
            out["constants"] = asdict(self.constants)
        return out


@dataclass(frozen=True)
class SelectedParameters:
    mu_z: float
    mu_y: float
    tau: int


def mu_y_floor(spectral: SpectralSummary, p_min: float, mu_z: float) -> float:
    return (
        MU_Y_FACTOR
        * spectral.d_max**2
        * mu_z
        * spectral.lambda_max
        / (spectral.lambda_min**2 * p_min)
    )


def rate_power_bound(spectral: SpectralSummary, p_min: float, mu_z: float) -> float:
    """Ceiling on rate^tau required by the hypotheses."""
    return (
        spectral.lambda_min**2
        * p_min
        / (TAU_BOUND_FACTOR * spectral.d_max**4 * mu_z * spectral.lambda_max)
    )


def prescribed_mu_z(lipschitz: float) -> float:
    """The penalty 2L + 1, the least the analysis allows."""
    return 2.0 * lipschitz + 1.0


def select_parameters(
    lipschitz: float, spectral: SpectralSummary, p_min: float, rate: float
) -> SelectedParameters:
    """The prescribed triple: mu_z = 2L+1, mu_y at its floor, tau the smallest
    budget with rate^tau below its bound.  ``p_min`` goes through
    ``check_value`` as ``caden.participation``."""
    check_value("caden.participation", p_min)
    if not (0.0 < rate < 1.0):
        raise ParameterSelectionError(
            f"local contraction rate {rate} is not in (0, 1); no contraction was "
            "measured -- probe with more iterations or raise mu_z"
        )
    mu_z = prescribed_mu_z(lipschitz)
    mu_y = mu_y_floor(spectral, p_min, mu_z)
    bound = rate_power_bound(spectral, p_min, mu_z)
    tau = max(1, math.ceil(math.log(bound) / math.log(rate)))
    return SelectedParameters(mu_z=mu_z, mu_y=mu_y, tau=tau)


def compute_constants(
    lipschitz: float,
    spectral: SpectralSummary,
    p_min: float,
    rate: float,
    params: SelectedParameters,
) -> TheoryReport:
    """Evaluate the hatted and plain constants exactly as displayed.

    The hatted constants feed the plain ones; c1 = max(c8/c3, c7/c4) and
    c2 = c6 + c1 c5.  Evaluation is gated on chat1 > 0 and chat4 d_max^2 < 1;
    when either fails, the report carries flags and no constants.  The bound
    is vacuous unless c3 > 0 and c4 > 0 (c1 is infinite otherwise), so those
    two are conditions too.  ``p_min`` and ``params`` go through
    ``check_value``; a bad rate or L raises ValueError.
    """
    check_value("caden.participation", p_min)
    check_value("caden.mu_z", params.mu_z, auto=False)
    check_value("caden.mu_y", params.mu_y, auto=False)
    check_value("caden.tau", params.tau)
    if not (0.0 < rate < 1.0):
        raise ValueError("rate must be in (0, 1)")
    if lipschitz <= 0:
        raise ValueError("lipschitz must be positive")
    lam_max = spectral.lambda_max
    lam_min_sq = spectral.lambda_min**2
    d = float(spectral.d_max)
    p = p_min
    mu_z, mu_y, lip = params.mu_z, params.mu_y, lipschitz
    r_tau = rate**params.tau

    chat1 = 1.0 - 4.0 * r_tau / p
    chat2 = (4.0 + 3.0 * p**2 - 6.0 * p) / p**2
    chat3 = 2.0 / p
    conditions = {
        "mu_z_at_least_1_plus_2L": mu_z >= prescribed_mu_z(lip),
        "mu_y_at_least_floor": mu_y >= mu_y_floor(spectral, p, mu_z) * (1.0 - 1e-12),
        "rate_power_below_bound": r_tau <= rate_power_bound(spectral, p, mu_z),
        "chat1_positive": chat1 > 0.0,
        # Each flag below is set in turn; a gate that fails leaves them False.
        "chat4_gap_positive": False,
        "c3_positive": False,
        "c4_positive": False,
    }
    if not conditions["chat1_positive"]:
        return TheoryReport(conditions)

    chat4 = (6.0 * lam_max / lam_min_sq) * (
        r_tau * (4.0 * p - 8.0 * r_tau) * (4.0 + 3.0 * p**2 - 6.0 * p)
        / (p**2 * (p - 4.0 * r_tau))
        + (2.0 + p**2 - 3.0 * p) / (p * mu_y**2)
    )
    gap_sq = 1.0 - chat4 * d**2
    gap_lin = 1.0 - chat4 * d
    conditions["chat4_gap_positive"] = gap_sq > 0.0
    if not conditions["chat4_gap_positive"]:
        return TheoryReport(conditions)

    spectral_ratio = 36.0 * lam_max / (lam_min_sq * mu_y**2)
    mix = d**2 * mu_z**2 + lip**2

    c3 = (
        mu_z
        - 2.0 * r_tau * chat2 / chat1
        - (2.0 * r_tau * chat2 * mu_y**2 * mu_z**2 / (chat1 * gap_sq)) * (spectral_ratio + chat4)
        - (mu_z**2 * mu_y / gap_sq) * (chat4 + spectral_ratio)
    )
    c4 = (
        p * (2.0 * mu_z - 1.0 - 2.0 * lip) / 4.0
        - 36.0 * r_tau * chat2 * lam_max * mu_z**2 * mix / (lam_min_sq * chat1 * gap_sq)
        - 18.0 * lam_max * mu_z**2 * mix / (lam_min_sq * mu_y * gap_sq)
    )
    c5 = (
        1.0 / chat1
        + 12.0 * r_tau * chat2 * lam_max * (1.0 + chat3) / (chat1**2 * lam_min_sq * gap_sq)
        + 6.0 * lam_max * (1.0 + chat3) / (chat1 * lam_min_sq * mu_y * gap_lin)
    )
    c6 = (
        4.0 / chat1
        + 48.0 * r_tau * chat2 * lam_max * (1.0 + chat3) / (chat1**2 * lam_min_sq * gap_sq)
        + 6.0 * lam_max * (1.0 + chat3) * (8.0 * mu_z * d + 1.0)
        / (chat1 * lam_min_sq * mu_y * gap_lin)
    )
    c7 = (
        108.0 * r_tau * chat2 * lam_max * mu_z**2 * mix / (lam_min_sq * chat1 * gap_sq)
        + 2.0 * lip**2
        + 8.0 * mu_z**2 * d**2
        + (18.0 * lam_max * mu_z**2 * mix / (lam_min_sq * mu_y * gap_sq))
        * (8.0 * mu_z**2 * d**2 + 1.0)
    )
    c8 = (
        8.0 * r_tau * chat2 / chat1
        + (8.0 * r_tau * chat2 * mu_y**2 * mu_z**2 / (chat1 * gap_sq)) * (spectral_ratio + chat4)
        + (mu_z**2 * (8.0 * mu_z**2 * d + 1.0) / gap_sq) * (chat4 + spectral_ratio)
    )
    conditions.update(c3_positive=c3 > 0.0, c4_positive=c4 > 0.0)
    c1 = max(c8 / c3, c7 / c4) if c3 > 0 and c4 > 0 else float("inf")
    c2 = c6 + c1 * c5
    constants = TheoryConstants(
        chat1=chat1, chat2=chat2, chat3=chat3, chat4=chat4,
        c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, c8=c8, c1=c1, c2=c2,
    )
    return TheoryReport(conditions, constants)
