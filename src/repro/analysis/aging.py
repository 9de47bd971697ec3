"""Device-aging model (BTI-style threshold drift).

The paper evaluates voltage/temperature corners; the other reliability axis
an adopter asks about is *aging*: bias-temperature instability shifts NMOS
thresholds logarithmically over operating time,

    dVt(t) = amplitude * log10(1 + t / t0),

with device-to-device dispersion around that mean.  Because both PPUF
networks age under the same profile, the differential comparison cancels
the mean shift; the dispersion term is what erodes response stability.
:func:`aged_ppuf` builds an aged view of existing silicon, and
:func:`aging_study` sweeps operating years against response drift —
the PPUF analogue of an intra-class-HD-over-lifetime plot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuit.variation import VariationSample
from repro.errors import ReproError

#: Seconds per (365-day) year.
YEAR_SECONDS = 365.0 * 24 * 3600


@dataclass(frozen=True)
class AgingModel:
    """BTI-style logarithmic threshold drift.

    Attributes
    ----------
    amplitude:
        Mean Vt shift per decade of time [V]; positive (devices slow down).
    dispersion:
        Device-to-device relative spread of the shift (lognormal-ish
        behaviour approximated as Gaussian around the mean).
    t0:
        Onset time constant [s].
    """

    amplitude: float = 0.010
    dispersion: float = 0.25
    t0: float = 1.0e4

    def __post_init__(self):
        if self.amplitude < 0:
            raise ReproError("aging amplitude must be non-negative")
        if self.dispersion < 0:
            raise ReproError("aging dispersion must be non-negative")
        if self.t0 <= 0:
            raise ReproError("aging onset time must be positive")

    def mean_shift(self, seconds: float) -> float:
        """Mean Vt drift after an operating time [V]."""
        if seconds < 0:
            raise ReproError("operating time must be non-negative")
        return self.amplitude * np.log10(1.0 + seconds / self.t0)

    def sample_shifts(
        self, shape, seconds: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-device drift: mean shift plus dispersion."""
        mean = self.mean_shift(seconds)
        if mean == 0.0:
            return np.zeros(shape)
        return rng.normal(mean, self.dispersion * mean, size=shape)


def aged_sample(
    sample: VariationSample,
    model: AgingModel,
    seconds: float,
    rng: np.random.Generator,
) -> VariationSample:
    """A variation sample with aging drift added to every transistor."""
    shifts = model.sample_shifts(sample.delta_vt.shape, seconds, rng)
    return VariationSample(
        delta_vt=sample.delta_vt + shifts,
        systematic=sample.systematic.copy(),
    )


def aged_ppuf(ppuf, model: AgingModel, seconds: float, rng: np.random.Generator):
    """An aged view of the same silicon (both networks drift)."""
    return replace(
        ppuf,
        sample_a=aged_sample(ppuf.sample_a, model, seconds, rng),
        sample_b=aged_sample(ppuf.sample_b, model, seconds, rng),
    )


def aging_study(
    ppuf,
    years,
    rng: np.random.Generator,
    *,
    model: AgingModel = AgingModel(),
    challenges: int = 40,
    engine: str = "maxflow",
):
    """Response drift (normalised HD vs fresh silicon) per operating age.

    Returns ``(years, drift_fractions)`` arrays.
    """
    years = np.asarray(list(years), dtype=np.float64)
    if years.size == 0:
        raise ReproError("need at least one age point")
    if np.any(years < 0):
        raise ReproError("ages must be non-negative")
    space = ppuf.challenge_space()
    challenge_list = [space.random(rng) for _ in range(challenges)]
    reference = ppuf.response_bits(challenge_list, engine=engine)
    drift = []
    for age in years:
        aged = aged_ppuf(ppuf, model, age * YEAR_SECONDS, rng)
        responses = aged.response_bits(challenge_list, engine=engine)
        drift.append(float(np.mean(responses != reference)))
    return years, np.asarray(drift)
