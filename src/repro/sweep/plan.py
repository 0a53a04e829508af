"""The declarative description of one threshold-grid sweep.

A :class:`SweepPlan` is the cartesian grid of ``(per, min_ps,
min_rec)`` triples plus the execution knobs (engine, jobs, resilience,
reuse switches).  It validates eagerly — every cell's thresholds are
checked with the shared :mod:`repro._validation` messages before any
mining starts, exactly like the façade — and knows how the sweep
engine will iterate it: :meth:`cells` in deterministic grid order and
:meth:`mined_cells`, the cells that are actually mined (the rest are
derived by the ``min_rec`` derivation layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro._validation import Number
from repro.core.engines import get_engine
from repro.core.model import MiningParameters
from repro.core.options import ResilienceOptions
from repro.exceptions import ParameterError

__all__ = ["GridKey", "SweepPlan"]

#: One grid cell: ``(per, min_ps, min_rec)``.
GridKey = Tuple[Number, Union[int, float], int]


@dataclass(frozen=True)
class SweepPlan:
    """A validated threshold grid plus how to execute it.

    Attributes
    ----------
    pers, min_ps_values, min_recs:
        The three grid axes; the sweep covers their cartesian product.
        Axes must be non-empty and duplicate-free (a duplicated value
        would silently double the work the sweep exists to avoid).
    engine:
        Engine-registry name mined for every cell (default
        ``"rp-growth"``).
    jobs:
        Worker processes (``None``/1 = serial; >1 requires the
        engine's ``supports_jobs`` capability).  When the sweep mines
        two or more cells, the cells themselves are fanned out to one
        supervised pool of ``min(jobs, mined cells)`` workers, each
        cell mined serially; a sweep that mines a single cell gives it
        the façade's in-cell :class:`~repro.parallel.ParallelMiner`
        instead.  Either way every cell is byte-identical to
        ``jobs=1``.
    derive_min_rec:
        Apply the min_rec-derivation theorem (reuse layer 2): mine
        each ``(per, min_ps)`` column only at its loosest ``min_rec``
        and derive the tighter cells by recurrence filtering.  On by
        default; runtime benchmarks that need a *measured* wall-clock
        per cell switch it off.
    repeats:
        Mine each mined cell this many times and keep the fastest
        execution's timing (the result is identical across repeats).
        Only runtime sweeps care; default 1.
    resilience:
        The :class:`~repro.core.options.ResilienceOptions` of the
        parallel path: per cell (timeout/retry/fallback, fault-plan
        chunk id = index in :meth:`mined_cells`) when cells fan out,
        per chunk inside the one mined cell otherwise.

    Examples
    --------
    >>> plan = SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1, 2))
    >>> plan.cells()
    [(2, 3, 1), (2, 3, 2)]
    >>> plan.mined_cells()
    [(2, 3, 1)]
    """

    pers: Tuple[Number, ...]
    min_ps_values: Tuple[Union[int, float], ...]
    min_recs: Tuple[int, ...]
    engine: str = "rp-growth"
    jobs: Optional[int] = None
    derive_min_rec: bool = True
    repeats: int = 1
    resilience: ResilienceOptions = field(default_factory=ResilienceOptions)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pers", tuple(self.pers))
        object.__setattr__(
            self, "min_ps_values", tuple(self.min_ps_values)
        )
        object.__setattr__(self, "min_recs", tuple(self.min_recs))
        for axis_name, axis in (
            ("pers", self.pers),
            ("min_ps_values", self.min_ps_values),
            ("min_recs", self.min_recs),
        ):
            if not axis:
                raise ParameterError(
                    f"sweep axis {axis_name!r} must not be empty"
                )
            if len(set(axis)) != len(axis):
                raise ParameterError(
                    f"sweep axis {axis_name!r} contains duplicates: "
                    f"{axis!r}"
                )
        # Validate every cell's thresholds eagerly, with the façade's
        # shared messages: the most expensive way to learn about a bad
        # corner cell is after mining the 26 cells before it.
        for per in self.pers:
            for min_ps in self.min_ps_values:
                for min_rec in self.min_recs:
                    MiningParameters(
                        per=per, min_ps=min_ps, min_rec=min_rec
                    )
        spec = get_engine(self.engine)
        jobs = self.jobs
        if jobs is None:
            jobs = 1
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ParameterError(
                f"jobs must be a positive int, got {self.jobs!r}"
            )
        if jobs > 1 and not spec.supports_jobs:
            raise ParameterError(
                f"engine {self.engine!r} does not support jobs > 1; its "
                "registry entry lacks the supports_jobs capability"
            )
        object.__setattr__(self, "jobs", jobs)
        if isinstance(self.repeats, bool) or not isinstance(
            self.repeats, int
        ) or self.repeats < 1:
            raise ParameterError(
                f"repeats must be a positive int, got {self.repeats!r}"
            )
        if not isinstance(self.resilience, ResilienceOptions):
            raise ParameterError(
                "resilience must be a ResilienceOptions, "
                f"got {type(self.resilience).__name__}"
            )

    # ------------------------------------------------------------------
    # Iteration orders
    # ------------------------------------------------------------------
    def cells(self) -> List[GridKey]:
        """Every grid cell in deterministic per → min_ps → min_rec order."""
        return [
            (per, min_ps, min_rec)
            for per in self.pers
            for min_ps in self.min_ps_values
            for min_rec in self.min_recs
        ]

    def mined_cells(self) -> List[GridKey]:
        """The cells the sweep engine mines, in plan order.

        With ``derive_min_rec`` that is each ``(per, min_ps)`` column's
        loosest-``min_rec`` cell: within a column the thresholds that
        shape the periodic intervals are fixed, so that one mine serves
        every cell of the column.  Without it, every cell.

        Examples
        --------
        >>> SweepPlan(pers=(1, 2), min_ps_values=(3,),
        ...           min_recs=(2, 1)).mined_cells()
        [(1, 3, 1), (2, 3, 1)]
        """
        if not self.derive_min_rec:
            return self.cells()
        base_rec = min(self.min_recs)
        return [
            (per, min_ps, base_rec)
            for per in self.pers
            for min_ps in self.min_ps_values
        ]

    @property
    def cell_count(self) -> int:
        """Total number of grid cells."""
        return (
            len(self.pers) * len(self.min_ps_values) * len(self.min_recs)
        )

    # ------------------------------------------------------------------
    # MiningRequest view
    # ------------------------------------------------------------------
    def cell_request(self, key: GridKey) -> "MiningRequest":
        """One cell as the unified :class:`~repro.core.request.MiningRequest`.

        The sweep engine executes mined cells through exactly this
        request (``repro.core.miner.run_request``), so a sweep cell and
        an independent façade call are the same code path — the basis
        of the byte-identity guarantee.

        Examples
        --------
        >>> plan = SweepPlan(pers=(2,), min_ps_values=(3,), min_recs=(1,))
        >>> plan.cell_request((2, 3, 1)).cache_key("d1")
        ('d1', 'rp-growth', 2, 3, 1)
        """
        from repro.core.request import MiningRequest

        per, min_ps, min_rec = key
        return MiningRequest(
            per=per,
            min_ps=min_ps,
            min_rec=min_rec,
            engine=self.engine,
            jobs=self.jobs,
            resilience=self.resilience,
        )
