"""The 2-approximate LP-rounding algorithm for active time (Sections 3.2–3.4).

Pipeline (Theorem 2):

1. solve ``LP1`` to optimality (:mod:`repro.lp.solve`);
2. right-shift the solution within each deadline block (Section 3.1);
3. sweep the distinct deadlines ``t_{d_1} < ... < t_{d_l}`` left to right.
   For block ``i`` with mass ``Y_i`` (merged with any carried *proxy*):

   * open the top ``floor(Y_i)`` slots of the block — they are fully open in
     the right-shifted solution;
   * if the fractional remainder is at least 1/2 (*half open*), open its slot
     integrally (it charges itself, factor <= 2);
   * if the remainder is positive but below 1/2 (*barely open*), first try to
     **close** it: probe, via the Figure-2 max-flow network, whether every job
     with deadline up to ``t_{d_i}`` fits in the slots opened so far.  On
     success, carry the remainder forward as a *proxy* (a safety deposit
     pointing at the closed slot); on failure, open the slot and charge it to
     an earlier slot as a dependent / trio / filler
     (:mod:`repro.activetime.charging`);

4. recover an integral assignment on the opened slots with one max-flow.

Invariants maintained per iteration (Lemmas 5 and 6): the prefix of jobs is
feasible in the opened slots, and the number of opened slots is at most twice
the LP mass seen so far.  Both are checked at runtime; violations raise in
``strict`` mode and are recorded otherwise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from ..flow.feasibility import ActiveTimeFeasibility
from ..lp.solve import ActiveTimeLPSolution, solve_active_time_lp
from .charging import ChargeRecord, ChargingError, ChargingLedger
from .rightshift import RightShiftedSolution, right_shift, snap
from .schedule import ActiveTimeSchedule, schedule_from_slots

__all__ = ["RoundedSolution", "IterationRecord", "round_active_time"]


@dataclass(frozen=True)
class IterationRecord:
    """Trace of one deadline iteration (useful for debugging and figures)."""

    index: int
    block: tuple[int, int]
    mass: float
    proxy_in: Optional[tuple[int, float]]
    opened_full: tuple[int, ...]
    action: str  # "none" | "half" | "carry" | "charged"
    frac_slot: Optional[int]
    frac_value: float
    charge: Optional[ChargeRecord]
    proxy_out: Optional[tuple[int, float]]


@dataclass
class RoundedSolution:
    """Output of :func:`round_active_time` with its full audit trail."""

    schedule: ActiveTimeSchedule
    lp: ActiveTimeLPSolution
    shifted: RightShiftedSolution
    iterations: list[IterationRecord]
    ledger: ChargingLedger
    charging_failures: list[str] = field(default_factory=list)
    repair_slots: list[int] = field(default_factory=list)

    @property
    def cost(self) -> int:
        """Number of active slots in the rounded schedule."""
        return self.schedule.cost

    @property
    def lp_objective(self) -> float:
        """Optimal LP value (lower bound on integral OPT)."""
        return self.lp.objective

    @property
    def ratio_vs_lp(self) -> float:
        """``cost / LP`` — Theorem 2 guarantees this is at most 2."""
        if self.lp_objective <= 0:
            return 0.0 if self.cost == 0 else float("inf")
        return self.cost / self.lp_objective

    @property
    def guarantee_holds(self) -> bool:
        """True when the 2-approximation bound is met (it always should be)."""
        return self.cost <= 2.0 * self.lp_objective + 1e-6


def round_active_time(
    instance: Instance,
    g: int,
    *,
    strict: bool = False,
    backend: str | None = None,
) -> RoundedSolution:
    """Run the Theorem-2 rounding algorithm end to end.

    Parameters
    ----------
    backend:
        LP backend name for the ``LP1`` solve; see :mod:`repro.solvers`.
    strict:
        When True, any violation of the proof's invariants (charging target
        missing, prefix infeasible after opening) raises immediately instead
        of being recorded in the result.

    Raises
    ------
    RuntimeError
        If the instance is LP-infeasible (no schedule exists at capacity
        ``g``), or in ``strict`` mode when an invariant breaks.
    """
    require_integral(instance)
    require_capacity(g)
    lp = solve_active_time_lp(instance, g, backend=backend)
    if instance.n == 0:
        return RoundedSolution(
            schedule=ActiveTimeSchedule(instance, g, tuple(), {}),
            lp=lp,
            shifted=right_shift(lp),
            iterations=[],
            ledger=ChargingLedger(),
        )

    shifted = right_shift(lp)
    blocks = shifted.blocks
    masses = shifted.masses

    ledger = ChargingLedger()
    iterations: list[IterationRecord] = []
    charging_failures: list[str] = []
    opened: set[int] = set()
    proxy: Optional[tuple[int, float]] = None  # (pointer slot, value)

    # One oracle answers every probe: the Lemma-5 and try-close checks pass
    # block i's job prefix, and the final extraction reuses the same flow.
    oracle = ActiveTimeFeasibility(instance, g)
    by_deadline = sorted(instance.jobs, key=lambda j: j.integral_window()[1])
    deadlines = [j.integral_window()[1] for j in by_deadline]
    ids = [j.id for j in by_deadline]

    def prefix_feasible(i: int, slots: set[int]) -> bool:
        k = bisect_right(deadlines, blocks[i][1])
        return k == 0 or oracle.is_feasible(slots, jobs=ids[:k])

    for i, ((a, b), y_mass) in enumerate(zip(blocks, masses)):
        proxy_in = proxy
        carried = proxy[1] if proxy is not None else 0.0
        y_eff = snap(y_mass + carried)
        whole = int(y_eff)
        frac = snap(y_eff - whole)
        if frac >= 1.0:  # defensive snap artifact
            whole, frac = whole + 1, 0.0

        # The top `whole` slots of the block open integrally; when the proxy
        # pushes `whole` past the block's own fully-open count, the extra slot
        # is the block's half-open slot absorbed to mass 1 (proxy Case 1).
        newly_full = [b - k for k in range(whole) if b - k >= a]
        if len(newly_full) < whole:
            # Remainder of the mass lives before the block: open the proxy's
            # pointer slot (it is the only earlier closed slot with mass).
            if proxy is not None and proxy[0] not in opened:
                newly_full.append(proxy[0])
        for t in sorted(newly_full):
            if t not in opened:
                opened.add(t)
                ledger.register_full(t)

        action = "none"
        charge: Optional[ChargeRecord] = None
        frac_slot: Optional[int] = None
        proxy_out: Optional[tuple[int, float]] = None

        if frac > 0.0:
            cand = b - whole
            if cand >= a:
                frac_slot = cand
            elif proxy is not None:
                frac_slot = proxy[0]
            else:  # pragma: no cover - unreachable for consistent LP data
                raise RuntimeError(
                    f"block {i} has fractional mass {frac} but no slot for it"
                )
            if frac >= 0.5:
                # half open: open integrally, charges itself (factor <= 2)
                action = "half"
                if frac_slot not in opened:
                    opened.add(frac_slot)
                    ledger.register_half(frac_slot, frac)
            else:
                # barely open: try to close it first
                if prefix_feasible(i, opened):
                    action = "carry"
                    proxy_out = (frac_slot, frac)
                else:
                    action = "charged"
                    opened.add(frac_slot)
                    try:
                        charge = ledger.charge_barely(frac_slot, frac)
                    except ChargingError as exc:
                        if strict:
                            raise
                        charging_failures.append(str(exc))
        proxy = proxy_out

        # Lemma 5 invariant: the job prefix fits into the opened slots.
        if action in ("none", "half", "charged") and not prefix_feasible(
            i, opened
        ):
            msg = (
                f"prefix of jobs with deadline <= {b} infeasible after "
                f"iteration {i} (action={action})"
            )
            if strict:
                raise RuntimeError(msg)
            charging_failures.append(msg)

        iterations.append(
            IterationRecord(
                index=i,
                block=(a, b),
                mass=float(y_mass),
                proxy_in=proxy_in,
                opened_full=tuple(sorted(newly_full)),
                action=action,
                frac_slot=frac_slot,
                frac_value=float(frac),
                charge=charge,
                proxy_out=proxy_out,
            )
        )

    # ------------------------------------------------------------------
    # Final extraction; repair loop is a safety net that theory says is
    # never taken (tests assert repair_slots == []).
    # ------------------------------------------------------------------
    repair_slots: list[int] = []
    if not oracle.is_feasible(opened):
        for t in range(1, instance.horizon + 1):
            if t in opened:
                continue
            opened.add(t)
            repair_slots.append(t)
            if oracle.is_feasible(opened):
                break
        if strict and repair_slots:
            raise RuntimeError(
                f"rounded slot set infeasible; repair opened {repair_slots}"
            )

    schedule = schedule_from_slots(instance, g, opened, oracle=oracle)
    return RoundedSolution(
        schedule=schedule,
        lp=lp,
        shifted=shifted,
        iterations=iterations,
        ledger=ledger,
        charging_failures=charging_failures,
        repair_slots=repair_slots,
    )
