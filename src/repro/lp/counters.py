"""Counters for linear-program solving activity.

The third panel of Figure 12 in the paper reports the *number of solved
linear programs*.  To reproduce that measurement faithfully, every LP that
is solved anywhere inside the geometry layer is recorded against an
:class:`LPStats` instance.  Optimizers create one instance per optimization
run and pass it down; a solver built without one counts into its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LPStats:
    """Mutable record of LP-solver activity.

    Attributes:
        solved: Total number of linear programs handed to a solver.
        infeasible: How many of those were reported infeasible.
        unbounded: How many were reported unbounded.
        feasibility_checks: LPs solved purely to test feasibility.
        optimizations: LPs solved with a non-trivial objective.
        cache_hits: Solves answered from an LP-result memo cache instead of
            a backend (not counted in ``solved`` — the paper's "#solved
            linear programs" metric reports actual solver work).
        seconds: Total wall-clock time spent inside LP backends.
        batch_solves: Always 0.  Kept for the end-to-end benchmark's
            ``lp.stacked_frac`` metric; every LP is solved one at a time.
        lowdim_deferred: LPs with at most two free variables that the
            closed-form path (:mod:`repro.lp.lowdim`) left to the simplex
            because it could not certify the verdict.  They are counted
            in ``solved`` like every other LP.
    """

    solved: int = 0
    infeasible: int = 0
    unbounded: int = 0
    feasibility_checks: int = 0
    optimizations: int = 0
    cache_hits: int = 0
    seconds: float = 0.0
    batch_solves: int = 0
    lowdim_deferred: int = 0
    _by_purpose: dict[str, int] = field(default_factory=dict)
    _seconds_by_purpose: dict[str, float] = field(default_factory=dict)

    def record(self, *, purpose: str = "generic", feasible: bool = True,
               bounded: bool = True, objective: bool = True,
               seconds: float = 0.0) -> None:
        """Record a solved LP.

        Args:
            purpose: Free-form tag describing why the LP was solved (e.g.
                ``"emptiness"``, ``"redundancy"``, ``"containment"``).
            feasible: Whether the LP was feasible.
            bounded: Whether the LP was bounded in the objective direction.
            objective: ``True`` when a real objective was optimized,
                ``False`` for pure feasibility checks.
            seconds: Wall-clock time the backend spent on this LP.
        """
        self.solved += 1
        if not feasible:
            self.infeasible += 1
        if not bounded:
            self.unbounded += 1
        if objective:
            self.optimizations += 1
        else:
            self.feasibility_checks += 1
        self.seconds += seconds
        self._by_purpose[purpose] = self._by_purpose.get(purpose, 0) + 1
        self._seconds_by_purpose[purpose] = (
            self._seconds_by_purpose.get(purpose, 0.0) + seconds)

    def record_cache_hit(self) -> None:
        """Record a solve answered from the memo cache (no solver work)."""
        self.cache_hits += 1

    def by_purpose(self) -> dict[str, int]:
        """Return a copy of the per-purpose LP counts."""
        return dict(self._by_purpose)

    def seconds_by_purpose(self) -> dict[str, float]:
        """Return a copy of the per-purpose backend wall-time totals."""
        return dict(self._seconds_by_purpose)
