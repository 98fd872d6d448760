"""The logical plan: what is being joined, independent of how.

A :class:`JoinSpec` is the planner's input value: join kind, the two
datasets (names, content fingerprints, cardinalities, tuple widths), the
distance threshold, and the sampling parameters the cost model will
calibrate its clocks from.  It is a frozen value.

Content fingerprints are :func:`~repro.data.pointset.dataset_fingerprint`,
the hash the server's dataset registry keys by, computed where they are
read (``describe``, the serving payload): a one-shot
``plan_join`` that only wants the chosen plan never hashes its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.data.pointset import dataset_fingerprint
from repro.joins.distance_join import JoinConfig

__all__ = ["JoinSpec"]


@dataclass(frozen=True, eq=False)
class JoinSpec:
    """The logical description of one join planning problem."""

    eps: float
    n_r: int
    n_s: int
    #: serialized tuple widths (bytes per record, key excluded) -- drive
    #: the shuffle-byte terms of the cost model
    record_bytes_r: int
    record_bytes_s: int
    r_name: str = ""
    s_name: str = ""
    #: content fingerprints as the caller gave them (serving passes its
    #: registry's); read them through :attr:`fingerprints`
    r_fingerprint: str = ""
    s_fingerprint: str = ""
    #: Bernoulli rate and seed of the statistics sample the clocks
    #: calibrate from; by default the join's own
    sample_rate: float = JoinConfig.sample_rate
    seed: int = JoinConfig.seed
    #: result count of joining the two samples (the unbiased sample-join
    #: cardinality estimator); filled by the planner after sampling
    sample_results: int | None = None
    #: the (R, S) point sets a fingerprint that was not given is hashed
    #: from, the first time one is read
    points: tuple = field(default=(), repr=False)

    @cached_property
    def fingerprints(self) -> tuple[str, str]:
        """Content fingerprints of (R, S): as given, else hashed now."""
        given = (self.r_fingerprint, self.s_fingerprint)
        if not self.points:
            return given
        return tuple(
            fp or dataset_fingerprint(ps) for fp, ps in zip(given, self.points)
        )

    @classmethod
    def from_pointsets(
        cls,
        r: Any,
        s: Any,
        eps: float,
        *,
        sample_rate: float = JoinConfig.sample_rate,
        seed: int = JoinConfig.seed,
        r_fingerprint: str = "",
        s_fingerprint: str = "",
    ) -> "JoinSpec":
        return cls(
            eps=eps,
            n_r=len(r),
            n_s=len(s),
            record_bytes_r=int(getattr(r, "record_bytes", 24)),
            record_bytes_s=int(getattr(s, "record_bytes", 24)),
            r_name=getattr(r, "name", "") or "R",
            s_name=getattr(s, "name", "") or "S",
            r_fingerprint=r_fingerprint,
            s_fingerprint=s_fingerprint,
            sample_rate=sample_rate,
            seed=seed,
            points=() if r_fingerprint and s_fingerprint else (r, s),
        )

    def describe(self) -> str:
        r_fp, s_fp = self.fingerprints
        lines = [
            f"logical spec eps={self.eps:g}",
            f"  R: {self.r_name or '?'}  n={self.n_r:,}  "
            f"{self.record_bytes_r} B/tuple  fp={r_fp or '?'}",
            f"  S: {self.s_name or '?'}  n={self.n_s:,}  "
            f"{self.record_bytes_s} B/tuple  fp={s_fp or '?'}",
            f"  sample: rate={self.sample_rate:g} seed={self.seed}",
        ]
        if self.sample_results is not None:
            est = self.sample_results / (self.sample_rate**2)
            lines.append(
                f"  sampled stats: {self.sample_results} sample-join pairs "
                f"(~{est:,.0f} results estimated)"
            )
        return "\n".join(lines)
