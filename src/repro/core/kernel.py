"""The campaign loop and its vectorized batch-evaluation source.

:class:`CampaignKernel` is the one campaign loop (Figure 2's execution
phase): every campaign, whatever the machine, runs through
:meth:`CampaignKernel.execute`.  Only the source of each run's outcome
varies.  The scalar source calls :meth:`XGene2Machine.run_program`
(-> :meth:`EffectSampler.sample`), which rebuilds the per-unit failure
models and re-walks every probability curve once per run.  For a
campaign that is pure overhead: within one campaign the curves are
fixed functions of voltage, and the voltage schedule is known up
front.

This module compiles that fault surface **once per campaign** into a
:class:`VoltageTable` -- per-voltage arrays of every quantity the
scalar path evaluates (clock/uncore SC probability, the SRAM Poisson
event rates of every cache level, SDC and timing-crash probabilities,
the SDC->CE conversion of the protection-coverage ablation), indexed by
``(nominal_mv - vdd_mv) // step_mv`` -- and then feeds the campaign
loop from O(1) table lookups instead of ``run_program``.

Bit-identical randomness
------------------------

The contract is that the batch source yields **bit-identical** run
outcomes -- hence :class:`~repro.core.runs.RunRecord` streams and raw
log bytes -- to the scalar source.  Every run draws from the same
per-run ``Generator`` the machine would have built (same SHA-256 digest of
``seed|chip|program|core|voltage|freq|run_counter``, same PCG64
stream), reproduced without per-run ``default_rng`` construction by
:class:`RunGeneratorFactory`, which vectorizes numpy's ``SeedSequence``
entropy pool mix across all runs of a schedule chunk and then programs
a single reusable PCG64 with the resulting 128-bit state per run.

The per-run draw order of the scalar path (see
:meth:`EffectSampler.sample`) is collapsed into **one**
``rng.random(n)`` block per run using two stream facts of numpy's
PCG64 double path:

* ``rng.random(n)`` yields exactly the same values as ``n`` successive
  ``rng.random()`` calls (prefix property), so over-drawing is
  harmless as long as nothing reads the stream afterwards -- and every
  conditional draw of the scalar path is resolved inside the block;
* for ``lam < 10`` numpy's Poisson sampler uses the multiplication
  method, whose count is zero **iff** its first uniform is
  ``<= exp(-lam)``, consuming exactly one uniform from the same double
  stream (``lam == 0`` consumes nothing, ``lam >= 10`` switches to the
  PTRS algorithm and disqualifies the shortcut).

A run whose block shows any non-zero cache event count (or a voltage
step where some rate reaches the PTRS regime) is *replayed*: the
generator state is reset to the run's start and the campaign-persistent
:class:`EffectSampler` samples it scalar-style -- bit-identical by
construction, and rare by design (non-zero counts cluster in the crash
region where SC dominates).

:class:`CharacterizationFramework` builds each setup's kernel through
the machine's ``compile_batch_table`` hook and falls back to the scalar
source whenever the machine declines to compile (scripted injections
pending, unknown extension components, an undervolted SoC domain --
see :meth:`XGene2Machine.compile_batch_table`) or has no such hook.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..effects import EffectType, normalize_effects
from ..errors import CampaignError
from ..units import CHARACTERIZATION_TEMP_C, PMD_NOMINAL_MV, VOLTAGE_FLOOR_MV, VOLTAGE_STEP_MV
from ..hardware import MachineState
from .campaign import CampaignResult
from .effects import classify_run
from .parser import render_run_block, run_block_head
from .runs import CharacterizationSetup, RunRecord
from .watchdog import WatchdogAction

__all__ = [
    "CampaignKernel",
    "RunGeneratorFactory",
    "VoltageTable",
    "compile_voltage_table",
]

#: numpy switches from the multiplication method to the PTRS algorithm
#: at this Poisson rate; only below it does the one-uniform zero test
#: hold.
_POISSON_PTRS_LAM = 10.0

_SC_EFFECTS = frozenset({EffectType.SC})
_NO_EFFECTS = frozenset({EffectType.NO})

# ---------------------------------------------------------------------------
# Per-run generator states without per-run SeedSequence construction
# ---------------------------------------------------------------------------

# numpy SeedSequence entropy-pool constants (Melissa O'Neill's seeding
# algorithm, as implemented in numpy.random.bit_generator).
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: PCG64's 128-bit LCG multiplier, split into 64-bit limbs for the
#: vectorized seeding arithmetic.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _hashmix_chain(init: int, mult: int, count: int) -> np.ndarray:
    """The deterministic hash-constant chain ``hc *= mult`` (mod 2**32).

    SeedSequence's pool mix advances ``hc`` once per hashmix call, so
    the whole chain is known ahead of time and every per-source batch
    of hashmixes can run with a precomputed constant column.
    """
    out = [init]
    hc = init
    for _ in range(count):
        hc = (hc * mult) & 0xFFFFFFFF
        out.append(hc)
    return np.array(out, dtype=np.uint32)


#: hc chain of mix_entropy: 4 pool-init + 12 churn + 16 fold hashmixes.
_HCS = _hashmix_chain(0x43B0D7E5, 0x931E8875, 32)
#: hc chain of generate_state: 8 output-word hashmixes.
_GCS = _hashmix_chain(0x8B51F9DD, 0x58F38DED, 8)
#: Per-stage (hc-before, hc-after) constant columns for broadcasting.
_HC_INIT1 = _HCS[0:4].reshape(4, 1)
_HC_INIT2 = _HCS[1:5].reshape(4, 1)
_HC_CHURN1 = tuple(_HCS[4 + 3 * s : 7 + 3 * s].reshape(3, 1) for s in range(4))
_HC_CHURN2 = tuple(_HCS[5 + 3 * s : 8 + 3 * s].reshape(3, 1) for s in range(4))
_HC_FOLD1 = tuple(_HCS[16 + 4 * s : 20 + 4 * s].reshape(4, 1) for s in range(4))
_HC_FOLD2 = tuple(_HCS[17 + 4 * s : 21 + 4 * s].reshape(4, 1) for s in range(4))
_GC1 = _GCS[0:8].reshape(8, 1)
_GC2 = _GCS[1:9].reshape(8, 1)
#: Churn destinations: every pool word except the source itself.
_CHURN_DST = tuple(
    np.array([j for j in range(4) if j != s]) for s in range(4)
)


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.uint64, b_lo: np.uint64
) -> Tuple[np.ndarray, np.ndarray]:
    """``(a_hi, a_lo) * (b_hi, b_lo) mod 2**128`` over 64-bit limbs.

    The only widening product needed is ``a_lo * b_lo``, computed via
    32-bit half-limbs; the cross terms wrap in the high limb.
    """
    a0 = a_lo & _MASK32
    a1 = a_lo >> _SHIFT32
    b0 = b_lo & _MASK32
    b1 = b_lo >> _SHIFT32
    p0 = a0 * b0
    p1 = a0 * b1
    p2 = a1 * b0
    mid = (p0 >> _SHIFT32) + (p1 & _MASK32) + (p2 & _MASK32)
    lo = (p0 & _MASK32) | (mid << _SHIFT32)
    hi = (
        a1 * b1
        + (p1 >> _SHIFT32)
        + (p2 >> _SHIFT32)
        + (mid >> _SHIFT32)
        + a_lo * b_hi
        + a_hi * b_lo
    )
    return hi, lo


class RunGeneratorFactory:
    """Replays ``np.random.default_rng(sha256(key))`` streams cheaply.

    ``seed_states`` derives the 128-bit PCG64 ``(state, inc)`` pair of
    every key in one vectorized pass (the SeedSequence pool mix runs on
    uint32 arrays spanning all keys); ``activate`` programs a single
    reusable bit generator with one such pair.  Per-run construction
    cost drops from ~30us (``default_rng``) to ~2us amortized.

    The uint64 -> uint32 entropy word split assumes a little-endian
    platform (as numpy's own ``frombuffer`` view does everywhere else
    in this codebase).
    """

    def __init__(self) -> None:
        # reprolint: disable=RPR011 -- placeholder template; activate() overwrites the full (state, inc) pair with a sha256-derived one before any draw
        self._bitgen = np.random.PCG64(0)
        #: The reusable generator; valid between ``activate`` calls.
        self.generator = np.random.Generator(self._bitgen)
        self._template = self._bitgen.state

    def seed_states(self, keys: Sequence[bytes]) -> List[Tuple[int, int]]:
        """PCG64 ``(state, inc)`` of ``default_rng(sha256(key))`` per key."""
        limbs = self.seed_limbs(keys)
        if limbs is None:
            return []
        return self.fold_states(limbs)

    @staticmethod
    def fold_states(
        limbs: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> List[Tuple[int, int]]:
        """Limb arrays folded into ``(state, inc)`` python-int pairs."""
        st_hi, st_lo, inc_hi, inc_lo = limbs
        state_his = st_hi.tolist()
        state_los = st_lo.tolist()
        inc_his = inc_hi.tolist()
        inc_los = inc_lo.tolist()
        return [
            (
                (state_his[i] << 64) | state_los[i],
                (inc_his[i] << 64) | inc_los[i],
            )
            for i in range(len(state_his))
        ]

    def seed_limbs(
        self, keys: Sequence[bytes]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """``(state_hi, state_lo, inc_hi, inc_lo)`` uint64 limb arrays.

        The pool mix runs batched per hashmix *source*: with the hash
        constants precomputed (:func:`_hashmix_chain`), every source's
        destinations update in one ``(rows, n)`` matrix operation, so
        the ufunc-call count is independent of both the key count and
        the per-pair structure of SeedSequence's mix.  Returns None for
        an empty key list.
        """
        n = len(keys)
        if n == 0:
            return None
        entropy = np.frombuffer(
            b"".join([hashlib.sha256(key).digest() for key in keys]),
            dtype=np.uint64,
        ).reshape(n, 4)
        # Little-endian: each uint64 entropy word becomes (low, high)
        # uint32 words, matching SeedSequence's coercion.  Transposing
        # to C order makes every per-word row contiguous (and ours to
        # mutate).
        words = np.ascontiguousarray(entropy.view(np.uint32).reshape(n, 8).T)
        with np.errstate(over="ignore"):
            # mix_entropy: hashmix the first four entropy words into the
            # pool in one batched pass...
            pool = (words[:4] ^ _HC_INIT1) * _HC_INIT2
            pool ^= pool >> _XSHIFT
            # ...churn the pool (per source, the three other pool words
            # mix with that source's three hashmix variants at once)...
            for s in range(4):
                m = (pool[s] ^ _HC_CHURN1[s]) * _HC_CHURN2[s]
                m ^= m >> _XSHIFT
                m *= _MIX_MULT_R
                idx = _CHURN_DST[s]
                d = pool[idx]
                d *= _MIX_MULT_L
                d -= m
                d ^= d >> _XSHIFT
                pool[idx] = d
            # ...then fold the remaining entropy words into all four
            # pool words, one batched mix per source.
            for s in range(4):
                m = (words[4 + s] ^ _HC_FOLD1[s]) * _HC_FOLD2[s]
                m ^= m >> _XSHIFT
                m *= _MIX_MULT_R
                pool *= _MIX_MULT_L
                pool -= m
                pool ^= pool >> _XSHIFT
            # generate_state(4, uint64) == 8 hashed uint32 words (the
            # pool read twice over), folded into four uint64 rows.
            g = (np.concatenate((pool, pool)) ^ _GC1) * _GC2
            g ^= g >> _XSHIFT
            folded = g[0::2].astype(np.uint64) | (
                g[1::2].astype(np.uint64) << _SHIFT32
            )
            w0, w1, w2, w3 = folded
            # PCG64 seeding, in 64-bit limbs: inc = (stream << 1) | 1,
            # state = ((inc + seed) * MULT + inc) mod 2^128, where
            # seed = (w0, w1) and stream = (w2, w3) hi/lo.
            one = np.uint64(1)
            s63 = np.uint64(63)
            inc_hi = (w2 << one) | (w3 >> s63)
            inc_lo = (w3 << one) | one
            t_lo = inc_lo + w1
            t_hi = inc_hi + w0 + (t_lo < inc_lo)
            p_hi, p_lo = _mul128(t_hi, t_lo, _PCG_MULT_HI, _PCG_MULT_LO)
            st_lo = p_lo + inc_lo
            st_hi = p_hi + inc_hi + (st_lo < p_lo)
        return st_hi, st_lo, inc_hi, inc_lo

    #: Per-draw LCG jump constants ``A_j = MULT**j`` and
    #: ``B_j = (MULT**j - 1) / (MULT - 1)`` (mod 2**128) as python
    #: ints, extended on demand; ``_STEP_ARRAYS`` caches the limb /
    #: half-limb column arrays per requested block width.
    _STEP_A: List[int] = []
    _STEP_B: List[int] = []
    _STEP_ARRAYS: Dict[int, Tuple[np.ndarray, ...]] = {}

    @classmethod
    def _step_arrays(cls, n_draws: int) -> Tuple[np.ndarray, ...]:
        """Column-vector jump constants for an ``n_draws``-wide block."""
        cached = cls._STEP_ARRAYS.get(n_draws)
        if cached is not None:
            return cached
        mask = (1 << 128) - 1
        while len(cls._STEP_A) < n_draws:
            if cls._STEP_A:
                a = (cls._STEP_A[-1] * _PCG_MULT) & mask
                b = (cls._STEP_B[-1] * _PCG_MULT + 1) & mask
            else:
                # Draw 0 reads the state after one advance.
                a, b = _PCG_MULT, 1
            cls._STEP_A.append(a)
            cls._STEP_B.append(b)
        m64 = 0xFFFFFFFFFFFFFFFF
        column = lambda vals: np.array(  # noqa: E731
            vals, dtype=np.uint64
        ).reshape(n_draws, 1)
        a_lo = column([a & m64 for a in cls._STEP_A[:n_draws]])
        b_lo = column([b & m64 for b in cls._STEP_B[:n_draws]])
        arrays = (
            column([a >> 64 for a in cls._STEP_A[:n_draws]]),
            a_lo,
            a_lo & _MASK32,
            a_lo >> _SHIFT32,
            column([b >> 64 for b in cls._STEP_B[:n_draws]]),
            b_lo,
            b_lo & _MASK32,
            b_lo >> _SHIFT32,
        )
        cls._STEP_ARRAYS[n_draws] = arrays
        return arrays

    @classmethod
    def uniform_block(
        cls,
        limbs: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        n_draws: int,
    ) -> np.ndarray:
        """First ``n_draws`` doubles of every stream, shape ``(n, k)``.

        Vectorized PCG64 (XSL-RR output on 64-bit limbs), bit-identical
        to ``Generator(PCG64(...)).random(n_draws)`` per stream.
        Instead of stepping the LCG sequentially, every (draw, stream)
        state is computed in one closed-form broadcast --
        ``state_j = A_j * state_0 + B_j * inc`` with precomputed jump
        constants -- so the ufunc count is independent of the draw
        count and the per-call overhead of small-array ops amortizes
        over the whole ``(k, n)`` grid.  The limb arrays are not
        mutated.
        """
        st_hi, st_lo, inc_hi, inc_lo = limbs
        a_hi, a_lo, a0, a1, b_hi, b_lo, b0, b1 = cls._step_arrays(n_draws)
        s11 = np.uint64(11)
        s58 = np.uint64(58)
        s63 = np.uint64(63)
        s64 = np.uint64(64)
        scale = 1.0 / 9007199254740992.0  # 2**-53
        with np.errstate(over="ignore"):
            # (k, 1) jump constants x (n,) stream limbs -> (k, n)
            # states after j+1 advances, in two full 128-bit broadcast
            # products (the half-limb splits of the constants are
            # precomputed).
            c0 = st_lo & _MASK32
            c1 = st_lo >> _SHIFT32
            p0 = a0 * c0
            p1 = a0 * c1
            p2 = a1 * c0
            mid = (p0 >> _SHIFT32) + (p1 & _MASK32) + (p2 & _MASK32)
            lo_a = (p0 & _MASK32) | (mid << _SHIFT32)
            hi_a = (
                a1 * c1
                + (p1 >> _SHIFT32)
                + (p2 >> _SHIFT32)
                + (mid >> _SHIFT32)
                + a_lo * st_hi
                + a_hi * st_lo
            )
            c0 = inc_lo & _MASK32
            c1 = inc_lo >> _SHIFT32
            p0 = b0 * c0
            p1 = b0 * c1
            p2 = b1 * c0
            mid = (p0 >> _SHIFT32) + (p1 & _MASK32) + (p2 & _MASK32)
            lo = (p0 & _MASK32) | (mid << _SHIFT32)
            lo += lo_a
            hi_a += (
                b1 * c1
                + (p1 >> _SHIFT32)
                + (p2 >> _SHIFT32)
                + (mid >> _SHIFT32)
                + b_lo * inc_hi
                + b_hi * inc_lo
            )
            hi_a += lo < lo_a
            # out64 = rotr64(hi ^ lo, hi >> 58); double = (out64 >> 11)
            # * 2**-53.
            x = hi_a ^ lo
            rot = hi_a >> s58
            lshift = x << ((s64 - rot) & s63)
            x >>= rot
            x |= lshift
            x >>= s11
            out = x * scale
        return out.T

    def activate(self, state: Tuple[int, int]) -> np.random.Generator:
        """Point the shared generator at one run's stream start."""
        template = self._template
        template["state"]["state"] = state[0]
        template["state"]["inc"] = state[1]
        template["has_uint32"] = 0
        template["uinteger"] = 0
        self._bitgen.state = template
        return self.generator


# ---------------------------------------------------------------------------
# The compiled fault surface
# ---------------------------------------------------------------------------


class _StepPlan:
    """Everything :meth:`VoltageTable.sample_u` needs at one voltage."""

    __slots__ = (
        "voltage_mv",
        "p_sc",
        "thresholds",
        "n_channels",
        "conv",
        "p_ac",
        "p_sdc",
        "p_ce",
        "p_ue",
        "n_uniform",
        "analytic",
    )


class VoltageTable:
    """Per-voltage fault surface of one (program, core, freq) setup.

    Built by :func:`compile_voltage_table`; every probability is the
    *exact* float the scalar path computes at run time (the compile
    loop calls the same curve code, it just calls it once per voltage
    instead of once per run).  ``sampler`` is kept for the rare replay
    path and stays valid for the whole campaign because the sampler is
    stateless across runs.
    """

    __slots__ = (
        "program",
        "core",
        "freq_mhz",
        "nominal_mv",
        "step_mv",
        "voltages",
        "sampler",
        "rollback_coverage",
        "ue_ac_fraction",
        "expected_output",
        "_plans",
        "_power",
    )

    def __init__(
        self,
        program: object,
        core: int,
        freq_mhz: int,
        nominal_mv: int,
        step_mv: int,
        voltages: Tuple[int, ...],
        plans: List[Optional[_StepPlan]],
        sampler: object,
        rollback_coverage: Optional[float],
        expected_output: str,
    ) -> None:
        self.program = program
        self.core = core
        self.freq_mhz = freq_mhz
        self.nominal_mv = nominal_mv
        self.step_mv = step_mv
        self.voltages = voltages
        self._plans = plans
        self.sampler = sampler
        self.rollback_coverage = rollback_coverage
        self.ue_ac_fraction = sampler.ue_ac_fraction
        self.expected_output = expected_output
        self._power: Dict[int, float] = {}

    def index_of(self, voltage_mv: int) -> int:
        """Table row of a scheduled voltage (the O(1) grid lookup)."""
        idx = (self.nominal_mv - voltage_mv) // self.step_mv
        if not 0 <= idx < len(self._plans) or self.voltages[idx] != voltage_mv:
            raise CampaignError(
                f"voltage {voltage_mv} mV outside the compiled table"
            )
        return idx

    def plan(self, vidx: int) -> _StepPlan:
        """The materialized row at one index.

        Rows are materialized on first visit and memoized: a campaign
        stopped by the crash-level rule touches a dozen of the 50+ grid
        rows, so evaluating the curves eagerly for the full grid would
        dominate the compile cost without being read.
        """
        plan = self._plans[vidx]
        if plan is None:
            plan = _build_plan(
                self.sampler, self.voltages[vidx], self.rollback_coverage
            )
            self._plans[vidx] = plan
        return plan

    def power_w(self, vidx: int, machine: object) -> float:
        """Chip power at one table row (memoized: V/F state is fixed
        per prepared run within a campaign)."""
        power = self._power.get(vidx)
        if power is None:
            power = machine.power_model.chip_power_w(
                self.voltages[vidx],
                machine.clocks.frequencies(),
                temp_c=CHARACTERIZATION_TEMP_C,
            )
            self._power[vidx] = power
        return power

    # -- sampling ---------------------------------------------------------

    def sample_u(
        self,
        plan: "_StepPlan",
        u: List[float],
        fresh_rng: Callable[[], np.random.Generator],
    ) -> Tuple[FrozenSet[EffectType], Dict[str, int]]:
        """Classify one run from its precomputed uniform block ``u``.

        ``u`` must hold (at least) the first ``plan.n_uniform`` doubles
        of the run's stream -- excess entries are ignored, which is
        what lets a chunk share one over-drawn block width.
        ``fresh_rng`` returns a generator positioned at the run's
        stream start; it is only invoked on the scalar-replay path.
        """
        if u[0] < plan.p_sc:
            return _SC_EFFECTS, {"system_crash": 1}
        if plan.analytic:
            return self._sample_analytic(plan, u)
        thresholds = plan.thresholds
        if thresholds is None:
            return self._replay(plan, fresh_rng())
        idx = 1
        for threshold in thresholds:
            if u[idx] > threshold:
                return self._replay(plan, fresh_rng())
            idx += 1
        detail: Dict[str, int] = {}
        effects = set()
        if plan.conv > 0.0:
            if u[idx] < plan.conv:
                effects.add(EffectType.CE)
                detail["corrected_errors"] = 1
            idx += 1
        if u[idx] < plan.p_ac:
            effects.add(EffectType.AC)
            detail["application_crash"] = 1
            return normalize_effects(effects), detail
        idx += 1
        if u[idx] < plan.p_sdc:
            idx += 1
            if (
                self.rollback_coverage is not None
                and u[idx] < self.rollback_coverage
            ):
                detail["rollbacks"] = 1
            else:
                effects.add(EffectType.SDC)
                detail["output_mismatch"] = 1
        if not effects:
            return _NO_EFFECTS, detail
        return normalize_effects(effects), detail

    def _sample_analytic(self, plan: _StepPlan, u: List[float]):
        """The no-cache-models draw order (always fast-pathable)."""
        detail: Dict[str, int] = {}
        effects = set()
        ce = u[1] < plan.p_ce
        ue = u[2] < plan.p_ue
        if ce:
            effects.add(EffectType.CE)
            detail["corrected_errors"] = 1
        if ue:
            effects.add(EffectType.UE)
            detail["uncorrected_errors"] = 1
        crashed = u[3] < plan.p_ac
        idx = 4
        if not crashed and ue:
            crashed = u[idx] < self.ue_ac_fraction
            idx += 1
        if crashed:
            effects.add(EffectType.AC)
            detail["application_crash"] = 1
            return normalize_effects(effects), detail
        if u[idx] < plan.p_sdc:
            idx += 1
            if (
                self.rollback_coverage is not None
                and u[idx] < self.rollback_coverage
            ):
                detail["rollbacks"] = 1
            else:
                effects.add(EffectType.SDC)
                detail["output_mismatch"] = 1
        if not effects:
            return _NO_EFFECTS, detail
        return normalize_effects(effects), detail

    def _replay(self, plan: _StepPlan, rng: np.random.Generator):
        """Scalar-exact replay of one run; ``rng`` sits at stream start."""
        sampled = self.sampler.sample(plan.voltage_mv, rng)
        effects = sampled.effects
        detail = dict(sampled.detail)
        if (
            self.rollback_coverage is not None
            and EffectType.SDC in effects
            and rng.random() < self.rollback_coverage
        ):
            detail.pop("output_mismatch", None)
            detail["rollbacks"] = detail.get("rollbacks", 0) + 1
            effects = normalize_effects(set(effects) - {EffectType.SDC})
        return effects, detail


def _build_plan(
    sampler: object, voltage_mv: int, rollback_coverage: Optional[float]
) -> _StepPlan:
    """Materialize one grid row from the sampler's scalar curves."""
    probs = sampler.probability_table((voltage_mv,))
    stack = sampler.cache_stack
    rollback_slot = 1 if rollback_coverage is not None else 0
    plan = _StepPlan()
    plan.voltage_mv = voltage_mv
    plan.p_sc = float(probs["sc"][0])
    plan.p_ac = float(probs["ac_timing"][0])
    plan.p_sdc = float(probs["sdc"][0])
    plan.conv = float(probs["sdc_to_ce"][0])
    if stack is None:
        plan.analytic = True
        plan.thresholds = None
        plan.n_channels = 0
        plan.p_ce = float(probs["ce"][0])
        plan.p_ue = float(probs["ue"][0])
        # SC + CE + UE + AC + (UE->AC) + SDC [+ rollback]
        plan.n_uniform = 6 + rollback_slot
    else:
        plan.analytic = False
        plan.p_ce = 0.0
        plan.p_ue = 0.0
        lams = [float(lam) for lam in stack.poisson_rate_table((voltage_mv,))[0]]
        if max(lams) >= _POISSON_PTRS_LAM:
            # PTRS regime: the one-uniform zero test no longer
            # holds; every surviving run replays scalar-style.
            plan.thresholds = None
            plan.n_channels = 0
            plan.n_uniform = 1
        else:
            plan.thresholds = [math.exp(-lam) for lam in lams if lam > 0.0]
            plan.n_channels = len(plan.thresholds)
            # SC + channels + (conv) + AC + SDC [+ rollback]
            plan.n_uniform = (
                3
                + plan.n_channels
                + (1 if plan.conv > 0.0 else 0)
                + rollback_slot
            )
    return plan


def compile_voltage_table(
    sampler: object,
    program: object,
    core: int,
    freq_mhz: int,
    expected_output: str,
    rollback_coverage: Optional[float] = None,
    nominal_mv: int = PMD_NOMINAL_MV,
    floor_mv: int = VOLTAGE_FLOOR_MV,
    step_mv: int = VOLTAGE_STEP_MV,
) -> VoltageTable:
    """Lay out the sampler's fault surface over the full sweep grid.

    All probabilities come from the sampler's own scalar evaluation
    methods (:meth:`EffectSampler.probability_table`,
    :meth:`CacheStack.poisson_rate_table`), so every table entry is
    bit-equal to what the scalar path would compute per run;
    ``exp(-lam)`` thresholds use :func:`math.exp` to match numpy's C
    Poisson implementation to the last ulp.  Rows are materialized on
    first visit (see :meth:`VoltageTable.plan`).
    """
    voltages = tuple(range(nominal_mv, floor_mv - 1, -step_mv))
    plans: List[Optional[_StepPlan]] = [None] * len(voltages)
    return VoltageTable(
        program=program,
        core=core,
        freq_mhz=freq_mhz,
        nominal_mv=nominal_mv,
        step_mv=step_mv,
        voltages=voltages,
        plans=plans,
        sampler=sampler,
        rollback_coverage=rollback_coverage,
        expected_output=expected_output,
    )


# ---------------------------------------------------------------------------
# The campaign loop against the table
# ---------------------------------------------------------------------------

#: Levels worth of generator states derived per vectorization chunk --
#: large enough to amortize the pool mix, small enough that a campaign
#: stopped by the crash-level rule wastes at most one chunk's tail (a
#: default sweep crosses the ~40-60 mV margin region in 10-13 levels
#: before the two all-crash stop levels).
_CHUNK_LEVELS = 12

#: One run's outcome, as the campaign loop logs and classifies it:
#: ``(exit_code, output, expected_output, edac_ce, edac_ue,
#: locations)``; ``exit_code=None`` is a system crash.
_Outcome = Tuple[Optional[int], Optional[str], str, int, int, Dict[str, int]]
#: An outcome source: ``(level_index, voltage_mv)`` -> that level's
#: per-run callable, which executes run ``run_index`` on the prepared
#: machine.
_Source = Callable[[int, int], Callable[[int], _Outcome]]


class _ScheduleStates:
    """Lazily derives per-run generator states for a campaign schedule.

    Run-counter values are predictable (the machine consumes one per
    executed run, and the kernel executes the schedule prefix in
    order), so the keys of whole level chunks can be derived in one
    vectorized pass ahead of execution.
    """

    def __init__(
        self,
        factory: RunGeneratorFactory,
        machine: object,
        program_name: str,
        core: int,
        freq_mhz: int,
        schedule: Sequence[int],
        runs_per_level: int,
    ) -> None:
        self._factory = factory
        self._prefix = f"{machine.seed}|{machine.chip.name}|{program_name}|{core}|"
        self._freq_mhz = freq_mhz
        self._schedule = list(schedule)
        self._runs = runs_per_level
        self._base_counter = machine.run_counter
        self._seeded = 0
        self._chunk_limbs: List[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = []

    def state_at(self, index: int) -> Tuple[int, int]:
        """The (state, inc) pair of one run by schedule position.

        Folded from the chunk's limb arrays on demand -- only the
        scalar-replay path ever needs a python-int pair, so whole-chunk
        folding would be wasted work.
        """
        chunk_size = _CHUNK_LEVELS * self._runs
        chunk_index, offset = divmod(index, chunk_size)
        st_hi, st_lo, inc_hi, inc_lo = self.chunk_limbs(chunk_index)
        return (
            (int(st_hi[offset]) << 64) | int(st_lo[offset]),
            (int(inc_hi[offset]) << 64) | int(inc_lo[offset]),
        )

    def chunk_limbs(
        self, chunk_index: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Limb arrays of one seeded chunk, in level-major run order."""
        while len(self._chunk_limbs) <= chunk_index:
            self._extend()
        return self._chunk_limbs[chunk_index]

    def _extend(self) -> None:
        start_level = self._seeded // self._runs
        counter = self._base_counter + self._seeded
        keys: List[bytes] = []
        for voltage_mv in self._schedule[start_level : start_level + _CHUNK_LEVELS]:
            suffix = f"|{voltage_mv}|{self._freq_mhz}|"
            for _ in range(self._runs):
                counter += 1
                keys.append(f"{self._prefix[:-1]}{suffix}{counter}".encode())
        limbs = self._factory.seed_limbs(keys)
        if limbs is None:
            return
        self._chunk_limbs.append(limbs)
        self._seeded += len(keys)


class CampaignKernel:
    """The campaign loop: one setup's voltage schedule, run by run.

    Owns every per-run step of Figure 2's execution phase: V/F
    programming with the reliable-cores setup, the run itself, the
    responsiveness probe and watchdog recovery, the restore to nominal
    before the log is stored, the raw log block, the
    :class:`RunRecord` (built through the same :func:`classify_run`
    the parser applies, never by re-parsing the log), the
    ``voltage_step`` telemetry spans and the crash-level stop rule.

    Only the source of each run's outcome differs.  With a compiled
    ``table`` it is the :class:`VoltageTable` (``sample_u`` plus the
    machine's ``kernel_execute``); without one -- the machine declined
    to compile, or has no ``compile_batch_table`` hook -- it is
    ``machine.run_program``.  Both sources yield bit-identical
    outcomes for the same machine state.
    """

    def __init__(
        self,
        machine: object,
        program: object,
        core: int,
        config: object,
        watchdog: object,
        table: Optional[VoltageTable] = None,
    ) -> None:
        self.machine = machine
        self.program = program
        self.core = core
        self.config = config
        self.watchdog = watchdog
        self.table = table
        self._factory = RunGeneratorFactory() if table is not None else None

    def _prepare(self, voltage_mv: int) -> None:
        """Reliable-cores setup + V/F programming for one run."""
        machine = self.machine
        if machine.state is not MachineState.RUNNING:
            self.watchdog.ensure_alive()
        machine.clocks.set_pmd_frequency_mhz(
            self.core // 2, self.config.freq_mhz
        )
        machine.clocks.park_all_except([self.core])
        machine.slimpro.set_pmd_voltage_mv(voltage_mv)

    def _restore(self) -> None:
        """Back to nominal before logs are persisted (Section 2.2.1)."""
        if self.machine.state is MachineState.RUNNING:
            self.machine.slimpro.restore_nominal_voltages()

    def execute(
        self, schedule: Sequence[int], campaign_index: int
    ) -> Tuple[str, CampaignResult]:
        """Run the schedule; returns ``(raw_log_text, CampaignResult)``."""
        cfg = self.config
        chip = self.machine.chip.name
        benchmark = self.program.name
        core = self.core
        freq_mhz = cfg.freq_mhz
        runs_per_level = cfg.runs_per_level
        outcomes = (
            self._machine_outcomes()
            if self.table is None
            else self._table_outcomes(schedule)
        )

        prepare = self._prepare
        restore = self._restore
        is_responsive = self.machine.is_responsive
        ensure_alive = self.watchdog.ensure_alive
        no_action = WatchdogAction.NONE
        new_record = RunRecord.__new__

        log_parts: List[str] = []
        log_append = log_parts.append
        records: List[RunRecord] = []
        record_append = records.append
        consecutive_crash_levels = 0
        for level_index, voltage_mv in enumerate(schedule):
            run = outcomes(level_index, voltage_mv)
            setup = CharacterizationSetup(
                voltage_mv=voltage_mv, freq_mhz=freq_mhz, core=core
            )
            head = run_block_head(
                chip, benchmark, core, voltage_mv, freq_mhz, campaign_index
            )
            level_all_crashed = True
            with telemetry.span(
                "voltage_step", voltage_mv=voltage_mv, runs=runs_per_level
            ):
                for run_index in range(1, runs_per_level + 1):
                    prepare(voltage_mv)
                    (exit_code, output, expected, edac_ce, edac_ue,
                     locations) = run(run_index)
                    responsive = is_responsive()
                    action = no_action if responsive else ensure_alive()
                    restore()
                    if exit_code is None or not responsive:
                        # System crash: the in-band lines were never
                        # flushed, so nothing but the crash survives.
                        responsive = False
                        exit_code = output = None
                        edac_ce = edac_ue = 0
                        locations = {}
                    else:
                        level_all_crashed = False
                    log_append(render_run_block(
                        head, run_index, exit_code, output, expected,
                        edac_ce, edac_ue, locations, action.value,
                    ))
                    # Classification goes through the same classify_run
                    # the log parser applies, fed the parser-visible
                    # observables (an unflushed output line parses as
                    # output=None/expected="").  The record is laid out
                    # directly into a fresh instance: RunRecord is a
                    # frozen dataclass, whose generated __init__ pays
                    # one object.__setattr__ per field -- the dominant
                    # cost of record construction at this scale.
                    # ``locations`` is a fresh dict owned by this run;
                    # the parser sees its entries in formatted (sorted)
                    # order, which only needs an explicit sort past one
                    # entry.
                    record = new_record(RunRecord)
                    record.__dict__.update(
                        chip=chip,
                        benchmark=benchmark,
                        setup=setup,
                        campaign_index=campaign_index,
                        run_index=run_index,
                        effects=classify_run(
                            responsive=responsive,
                            exit_code=exit_code,
                            output=output,
                            expected_output=(
                                expected if output is not None else ""
                            ),
                            edac_ce=edac_ce,
                            edac_ue=edac_ue,
                        ),
                        exit_code=exit_code,
                        output_matches=(
                            None if output is None else output == expected
                        ),
                        edac_ce=edac_ce,
                        edac_ue=edac_ue,
                        watchdog_intervened=action is not no_action,
                        detail=(
                            locations
                            if len(locations) < 2
                            else dict(sorted(locations.items()))
                        ),
                    )
                    record_append(record)
            if level_all_crashed:
                consecutive_crash_levels += 1
                if (
                    cfg.stop_mv is None
                    and consecutive_crash_levels >= cfg.stop_after_crash_levels
                ):
                    break
            else:
                consecutive_crash_levels = 0

        if not records:
            raise CampaignError("campaign produced no runs")
        result = CampaignResult(
            chip=chip,
            benchmark=benchmark,
            core=core,
            freq_mhz=freq_mhz,
            campaign_index=campaign_index,
            records=tuple(records),
        )
        return "".join(log_parts), result

    # -- outcome sources ------------------------------------------------------

    def _machine_outcomes(self) -> _Source:
        """The scalar source: every run through ``machine.run_program``."""
        run_program = self.machine.run_program
        program = self.program
        core = self.core
        timeout_s = self.config.run_timeout_s

        def run(run_index: int) -> _Outcome:
            outcome = run_program(program, core, timeout_s=timeout_s)
            locations = {
                key: count for key, count in outcome.detail.items()
                if key.startswith(("ce_", "ue_"))
            }
            return (
                outcome.exit_code,
                outcome.output,
                outcome.expected_output,
                outcome.edac_ce,
                outcome.edac_ue,
                locations,
            )

        return lambda level_index, voltage_mv: run

    def _table_outcomes(self, schedule: Sequence[int]) -> _Source:
        """The batch source: table lookups on pre-derived uniform blocks."""
        table = self.table
        factory = self._factory
        runs_per_level = self.config.runs_per_level
        states = _ScheduleStates(
            factory, self.machine, self.program.name, self.core,
            self.config.freq_mhz, schedule, runs_per_level,
        )
        activate = factory.activate
        sample_u = table.sample_u
        kernel_execute = self.machine.kernel_execute
        expected = table.expected_output
        chunk_index = -1
        chunk_u: List[List[float]] = []

        def level(
            level_index: int, voltage_mv: int
        ) -> Callable[[int], _Outcome]:
            nonlocal chunk_index, chunk_u
            vidx = table.index_of(voltage_mv)
            plan = table.plan(vidx)
            ci = level_index // _CHUNK_LEVELS
            if ci != chunk_index:
                # One vectorized PCG64 pass yields the whole chunk's
                # uniform blocks, over-drawn to the widest plan in the
                # chunk (sample_u ignores the excess columns).
                hi = min((ci + 1) * _CHUNK_LEVELS, len(schedule))
                width = 1
                for lvl in range(ci * _CHUNK_LEVELS, hi):
                    lvl_plan = table.plan(table.index_of(schedule[lvl]))
                    if lvl_plan.n_uniform > width:
                        width = lvl_plan.n_uniform
                chunk_index = ci
                chunk_u = factory.uniform_block(
                    states.chunk_limbs(ci), width
                ).tolist()
            u = chunk_u
            u_base = (level_index % _CHUNK_LEVELS) * runs_per_level - 1
            run_base = level_index * runs_per_level - 1

            def run(run_index: int) -> _Outcome:
                # The generator is only ever built on the scalar-replay
                # path, positioned at this run's stream start.
                effects, detail = sample_u(
                    plan,
                    u[u_base + run_index],
                    lambda: activate(states.state_at(run_base + run_index)),
                )
                _, exit_code, output, edac_ce, edac_ue, locations = (
                    kernel_execute(table, vidx, effects, detail)
                )
                return exit_code, output, expected, edac_ce, edac_ue, locations

            return run

        return level
