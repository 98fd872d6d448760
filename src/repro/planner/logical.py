"""The logical plan: what is being joined, independent of how.

A :class:`JoinSpec` is the planner's input value: join kind, the two
datasets (names, content fingerprints, cardinalities, tuple widths), the
distance threshold, and the sampling parameters the cost model will
calibrate its clocks from.  It is a frozen, hashable value -- two equal
specs describe the same planning problem and may share a cached plan.

Content fingerprints are computed where they are read (``describe``, the
serving payload, spec equality): a one-shot ``plan_join`` that only wants
the chosen plan never hashes its inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any

__all__ = ["JoinSpec", "content_fingerprint"]


def content_fingerprint(ps: Any) -> str:
    """A short content hash of a point set's coordinate arrays.

    Lighter-weight than the serving layer's registry fingerprint (which
    also hashes payload bytes); used when a spec is built outside the
    server, so one-shot ``repro explain`` output still names its inputs
    by content.  Serving callers pass their registry fingerprints
    instead.
    """
    h = hashlib.sha1()
    for arr in (ps.ids, ps.xs, ps.ys):
        h.update(memoryview(arr).cast("B"))
    return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class JoinSpec:
    """The logical description of one join planning problem."""

    join_kind: str
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
    #: Bernoulli rate of the statistics sample the clocks calibrate from
    sample_rate: float = 0.03
    seed: int = 0
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
            fp or content_fingerprint(ps) for fp, ps in zip(given, self.points)
        )

    def _identity(self) -> tuple:
        """What two specs must share to be the same planning problem."""
        lazy = ("r_fingerprint", "s_fingerprint", "points")
        return tuple(
            getattr(self, f.name) for f in fields(self) if f.name not in lazy
        ) + self.fingerprints

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinSpec):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    @classmethod
    def from_pointsets(
        cls,
        r: Any,
        s: Any,
        eps: float,
        *,
        join_kind: str = "distance",
        sample_rate: float = 0.03,
        seed: int = 0,
        r_fingerprint: str = "",
        s_fingerprint: str = "",
    ) -> "JoinSpec":
        return cls(
            join_kind=join_kind,
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
            f"logical spec [{self.join_kind}] eps={self.eps:g}",
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
