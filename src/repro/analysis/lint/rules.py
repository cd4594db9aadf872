"""The per-file RPR001-RPR010 rule set.

(The interprocedural RPR011-RPR013 rules live in
:mod:`repro.analysis.lint.interproc`, on top of the project model and
dataflow summaries.)

Each rule encodes one invariant the reproduction's results rest on;
the canonical values a rule compares against (Table-4 weights, the
effect vocabulary, the 5 mV regulator step) are imported from their
single source of truth rather than re-stated here, so the linter can
never drift from the library.

================  =====================================================
RPR001            no unseeded randomness inside ``src/repro``
RPR002            no wall-clock / entropy sources in simulation paths
RPR003            machine-protocol boundary: no ``repro.hardware.xgene2``
                  import and no ``XGene2Machine`` binding outside
                  ``hardware/`` and ``machines/``
RPR004            unit safety: millivolt discipline, no bare V<->mV
                  magnitude mixing, no hardcoded 5 mV step
RPR005            Table-3 classes / Table-4 weights must come from
                  :mod:`repro.effects`, never re-hardcoded
RPR006            parallel-safety: engine callables must be
                  module-level; no module-global mutation in tasks
RPR007            single persistence path: no ad-hoc csv.writer /
                  json.dump of run data outside ``repro.store`` and
                  ``repro.core.results``; no ``os`` replace / rename /
                  fsync calls outside ``repro.store``
RPR008            no bare ``print()`` in library code outside
                  ``cli.py``, ``analysis/ascii_plots.py`` and
                  ``parallel/progress.py``; output routes through
                  :mod:`repro.telemetry`
RPR009            no voltage-curve evaluation inside per-run loops in
                  ``core/`` / ``hardware/``; compile the curve into a
                  table (:mod:`repro.core.kernel`) once per campaign
RPR010            single model path: fitted-model coefficients and
                  artifacts serialize only through
                  ``repro.store.models``; no ad-hoc json/pickle dumps
                  of models elsewhere
================  =====================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from ...effects import SEVERITY_WEIGHTS, EffectType
from ...units import VOLTAGE_STEP_MV
from .diagnostics import Diagnostic
from .registry import FileContext, Rule, register_rule

#: Packages whose modules are "simulation/characterization paths":
#: anything whose output can flow into classification or severity.
SIMULATION_PACKAGES = frozenset({
    "core", "hardware", "faults", "scheduling", "workloads",
    "prediction", "energy", "data", "machines", "parallel",
})

#: The canonical Table-3 vocabulary, derived from the enum (not
#: re-spelled as literals).
EFFECT_NAMES = frozenset(effect.value for effect in EffectType)

#: Table-4 weights keyed by lowercase field name, derived from the
#: canonical mapping.
_CANONICAL_WEIGHTS = {
    effect.value.lower(): weight for effect, weight in SEVERITY_WEIGHTS.items()
}


def _is_repro_module(ctx: FileContext) -> bool:
    return ctx.module is not None and (
        ctx.module == "repro" or ctx.module.startswith("repro.")
    )


def _module_package(ctx: FileContext) -> Optional[str]:
    """The first package below ``repro`` (``repro.core.x`` -> ``core``)."""
    if not _is_repro_module(ctx) or ctx.module is None:
        return None
    parts = ctx.module.split(".")
    return parts[1] if len(parts) > 1 else None


def _attr_or_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# RPR001 -- unseeded randomness
# ---------------------------------------------------------------------------

#: Module-level numpy RNG entry points (shared global state).
_NP_GLOBAL_RNG = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_integers",
    "random_sample", "ranf", "sample", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "exponential", "poisson",
    "binomial", "beta", "gamma", "dirichlet", "bytes",
    "get_state", "set_state",
})

#: Stdlib ``random`` module functions backed by the shared global RNG.
_STDLIB_RNG = frozenset({
    "seed", "random", "randint", "randrange", "uniform", "choice",
    "choices", "shuffle", "sample", "gauss", "normalvariate",
    "betavariate", "expovariate", "gammavariate", "lognormvariate",
    "paretovariate", "triangular", "vonmisesvariate", "weibullvariate",
    "getrandbits", "randbytes",
})


def _call_is_unseeded(node: ast.Call) -> bool:
    """True when a constructor call carries no seed argument."""
    if node.args and not (
        isinstance(node.args[0], ast.Constant) and node.args[0].value is None
    ):
        return False
    seedy = {"seed", "x"}  # default_rng(seed=...) / Random(x=...)
    if any(kw.arg in seedy and not (
        isinstance(kw.value, ast.Constant) and kw.value.value is None
    ) for kw in node.keywords):
        return False
    return True


@register_rule
class UnseededRandomness(Rule):
    rule_id = "RPR001"
    name = "unseeded-randomness"
    description = (
        "src/repro must draw every random number from an explicitly "
        "seeded generator; module-level np.random.* / random.* and "
        "default_rng() without a seed break bit-reproducibility"
    )
    protects = "SeedSequence determinism (jobs=N == jobs=1)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not _is_repro_module(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = ctx.resolve(node.func)
            if path is None:
                continue
            if path == "numpy.random.default_rng":
                if _call_is_unseeded(node):
                    yield self.diagnostic(
                        ctx, node,
                        "default_rng() without an explicit seed; derive "
                        "seeds from the campaign SeedSequence instead",
                    )
                continue
            if path.startswith("numpy.random."):
                tail = path.rsplit(".", 1)[1]
                if tail in _NP_GLOBAL_RNG:
                    yield self.diagnostic(
                        ctx, node,
                        f"np.random.{tail} uses numpy's shared global "
                        "RNG; use an explicitly seeded Generator",
                    )
                elif tail == "RandomState" and _call_is_unseeded(node):
                    yield self.diagnostic(
                        ctx, node, "RandomState() without an explicit seed",
                    )
                continue
            if path.startswith("random."):
                tail = path.rsplit(".", 1)[1]
                if tail in _STDLIB_RNG:
                    yield self.diagnostic(
                        ctx, node,
                        f"random.{tail} uses the stdlib's shared global "
                        "RNG; use an explicitly seeded "
                        "random.Random/np Generator",
                    )
                elif tail == "Random" and _call_is_unseeded(node):
                    yield self.diagnostic(
                        ctx, node, "random.Random() without an explicit seed",
                    )


# ---------------------------------------------------------------------------
# RPR002 -- wall-clock / entropy sources
# ---------------------------------------------------------------------------

_BANNED_CLOCK_PATHS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
})


@register_rule
class WallClockSource(Rule):
    rule_id = "RPR002"
    name = "wall-clock-source"
    description = (
        "simulation/characterization paths must not read wall clocks "
        "or entropy sources (time.time, datetime.now, os.urandom, "
        "uuid.uuid4, ...); time is logical and randomness is seeded"
    )
    protects = "bit-identical reruns of every campaign"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if _module_package(ctx) not in SIMULATION_PACKAGES:
            return
        seen: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            path = ctx.resolve(node)
            if path in _BANNED_CLOCK_PATHS and node.lineno not in seen:
                seen.add(node.lineno)
                yield self.diagnostic(
                    ctx, node,
                    f"{path} is a wall-clock/entropy source; simulation "
                    "paths must stay deterministic (logical ticks, "
                    "seeded RNG)",
                )


# ---------------------------------------------------------------------------
# RPR003 -- machine-protocol boundary
# ---------------------------------------------------------------------------

_CONCRETE_MODULE = "repro.hardware.xgene2"
_CONCRETE_NAME = "XGene2Machine"


@register_rule
class MachineProtocolBoundary(Rule):
    rule_id = "RPR003"
    name = "machine-protocol-boundary"
    description = (
        "outside hardware/ and machines/, code must stay on the "
        "Machine protocol: importing repro.hardware.xgene2 or binding "
        "XGene2Machine re-couples consumers to one concrete machine"
    )
    protects = "the Machine protocol decoupling (PR 2)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_dirs("hardware", "machines"):
            return
        import_bound = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _CONCRETE_MODULE or alias.name.startswith(
                        _CONCRETE_MODULE + "."
                    ):
                        yield self.diagnostic(
                            ctx, node,
                            f"import of concrete machine module "
                            f"{_CONCRETE_MODULE}; use the repro.machines "
                            "protocol/spec layer",
                        )
            elif isinstance(node, ast.ImportFrom):
                target = ctx.import_target(node)
                if target is not None and (
                    target == _CONCRETE_MODULE
                    or target.startswith(_CONCRETE_MODULE + ".")
                ):
                    yield self.diagnostic(
                        ctx, node,
                        f"import from concrete machine module {target}; "
                        "import from repro.hardware (protocol types) or "
                        "build via repro.machines.MachineSpec",
                    )
                for alias in node.names:
                    if alias.name == _CONCRETE_NAME:
                        import_bound = True
                        yield self.diagnostic(
                            ctx, node,
                            f"binding {_CONCRETE_NAME} couples this file "
                            "to one concrete machine; build through "
                            "repro.machines.build_machine(MachineSpec(...))",
                        )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == _CONCRETE_NAME
            ):
                yield self.diagnostic(
                    ctx, node,
                    f"attribute access to {_CONCRETE_NAME}; use the "
                    "Machine protocol instead of the concrete class",
                )
            elif (
                isinstance(node, ast.Name)
                and node.id == _CONCRETE_NAME
                and isinstance(node.ctx, ast.Load)
                and not import_bound
            ):
                # Uses of an already-flagged import are not re-flagged
                # (one finding per boundary crossing: the import site).
                yield self.diagnostic(
                    ctx, node,
                    f"reference to {_CONCRETE_NAME} outside hardware/ "
                    "and machines/",
                )


# ---------------------------------------------------------------------------
# RPR004 -- unit safety
# ---------------------------------------------------------------------------

def _mv_named(node: ast.AST) -> bool:
    name = _attr_or_name(node)
    if name is None:
        return False
    lowered = name.lower()
    if lowered.endswith("_per_mv"):
        return False  # a rate denominated in mV, not a voltage
    return lowered.endswith("_mv") or lowered.endswith("_millivolts")


#: Name stems that denote an absolute voltage *level* (as opposed to a
#: width, scale, margin or offset, where sub-volt floats are ordinary).
_LEVEL_HINTS = (
    "voltage", "vmin", "vmax", "vdd", "vnom", "nominal", "supply",
    "crash", "onset", "level", "setpoint", "start", "stop",
)


def _mv_level_named(node: ast.AST) -> bool:
    if not _mv_named(node):
        return False
    name = _attr_or_name(node)
    assert name is not None
    lowered = name.lower()
    return any(hint in lowered for hint in _LEVEL_HINTS)


def _volt_named(node: ast.AST) -> bool:
    name = _attr_or_name(node)
    if name is None:
        return False
    lowered = name.lower()
    return lowered.endswith("_v") or lowered.endswith("_volts")


def _is_const(node: ast.AST, *values: float) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and float(node.value) in values
    )


def _volt_scale_literal(node: ast.AST) -> bool:
    """A float literal in volt magnitude (0 < x < 2.0)."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value < 2.0
    )


@register_rule
class UnitSafety(Rule):
    rule_id = "RPR004"
    name = "unit-safety"
    description = (
        "voltages are integer millivolts on the regulator grid; "
        "volt-scale floats in *_mv slots, bare *1000//1000 "
        "conversions, V-with-mV arithmetic and hardcoded 5 mV steps "
        "must flow through repro.units helpers"
    )
    protects = "the 5 mV regulator-step discipline (Section 2.1)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module == "repro.units":
            return  # the single place conversions are allowed to live
        for node in ast.walk(ctx.tree):
            yield from self._check_bindings(ctx, node)
            if isinstance(node, ast.BinOp):
                yield from self._check_binop(ctx, node)
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                if any(map(_mv_named, operands)) and any(
                    map(_volt_named, operands)
                ):
                    yield self.diagnostic(
                        ctx, node,
                        "comparison mixes millivolt- and volt-named "
                        "values; convert through repro.units first",
                    )

    def _check_bindings(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Diagnostic]:
        pairs = []
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.keyword) and node.arg is not None:
            pairs = [(ast.Name(id=node.arg, ctx=ast.Store()), node.value)]
        for target, value in pairs:
            if (
                _mv_level_named(target)
                and isinstance(value, ast.Constant)
                and _volt_scale_literal(value)
            ):
                yield Diagnostic(
                    path=ctx.path,
                    line=value.lineno, col=value.col_offset + 1,
                    rule=self.rule_id, name=self.name,
                    message=f"volt-scale literal {value.value!r} bound to "
                            "a millivolt-named target; voltages are "
                            "integer mV (see repro.units)",
                )

    def _check_binop(
        self, ctx: FileContext, node: ast.BinOp
    ) -> Iterator[Diagnostic]:
        left, right = node.left, node.right
        mv_side = _mv_named(left) or _mv_named(right)
        if isinstance(node.op, (ast.Mult, ast.Div)) and mv_side and (
            _is_const(left, 1000.0) or _is_const(right, 1000.0)
        ):
            yield self.diagnostic(
                ctx, node,
                "manual V<->mV magnitude conversion on a millivolt "
                "value; keep voltages in integer mV end to end "
                "(repro.units)",
            )
        if isinstance(node.op, (ast.Add, ast.Sub)) and mv_side and (
            _is_const(left, float(VOLTAGE_STEP_MV))
            or _is_const(right, float(VOLTAGE_STEP_MV))
        ):
            yield self.diagnostic(
                ctx, node,
                f"hardcoded {VOLTAGE_STEP_MV} mV regulator step; use "
                "repro.units.VOLTAGE_STEP_MV / voltage_sweep so the "
                "grid stays in one place",
            )
        if (_mv_named(left) and _volt_named(right)) or (
            _volt_named(left) and _mv_named(right)
        ):
            yield self.diagnostic(
                ctx, node,
                "arithmetic mixes millivolt- and volt-named values; "
                "convert through repro.units first",
            )


# ---------------------------------------------------------------------------
# RPR005 -- effect classes and severity weights
# ---------------------------------------------------------------------------

_WEIGHT_NAME_RE = re.compile(
    r"^W_?(SC|AC|SDC|UE|CE|NO)$|SEVERITY_WEIGHT", re.IGNORECASE
)


def _effect_key_name(node: ast.AST) -> Optional[str]:
    """Effect-class name a dict key spells, literally or via the enum.

    ``EffectType.SC`` attributes count here (for the weight-table
    check the *numbers* are the problem, not the keys); the
    vocabulary check below deliberately counts string literals only,
    because enum references *are* the sanctioned spelling.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in EFFECT_NAMES else None
    attr = node.attr if isinstance(node, ast.Attribute) else None
    return attr if attr in EFFECT_NAMES else None


def _effect_string_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in EFFECT_NAMES
    )


def _numeric_const(node: ast.AST) -> Optional[float]:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return float(node.value)
    return None


@register_rule
class CanonicalEffectConstants(Rule):
    rule_id = "RPR005"
    name = "canonical-effect-constants"
    description = (
        "Table-3 effect classes and Table-4 severity weights have one "
        "home (repro.effects); re-hardcoding the vocabulary or the "
        "16/8/4/2/1/0 weight table lets copies drift from the paper"
    )
    protects = "Table 3 classification and Table 4 weights"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module in ("repro.effects", "repro.analysis.lint.rules"):
            return  # the source of truth, and this rule's own encoding
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Dict):
                yield from self._check_dict(ctx, node)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                if sum(map(_effect_string_literal, node.elts)) >= 4:
                    yield self.diagnostic(
                        ctx, node,
                        "re-hardcoded effect vocabulary; iterate "
                        "repro.effects.EFFECT_ORDER / EffectType instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_weights_call(ctx, node)
            elif isinstance(node, ast.Assign):
                yield from self._check_weight_assign(ctx, node)

    def _check_dict(
        self, ctx: FileContext, node: ast.Dict
    ) -> Iterator[Diagnostic]:
        # Only a mapping that re-states the actual Table-4 numbers is a
        # re-hardcode; effect->count dicts (run tallies) are ordinary.
        hits = 0
        for key, value in zip(node.keys, node.values):
            if key is None:
                continue
            name = _effect_key_name(key)
            number = _numeric_const(value)
            if name is None or number is None:
                continue
            if number != _CANONICAL_WEIGHTS[name.lower()]:
                return
            hits += 1
        if hits >= 3:
            yield self.diagnostic(
                ctx, node,
                "effect->number mapping re-hardcodes the Table-4 "
                "severity weights; import repro.effects.SEVERITY_WEIGHTS",
            )

    def _check_weights_call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Diagnostic]:
        if _attr_or_name(node.func) != "SeverityWeights":
            return
        literal = {
            kw.arg: _numeric_const(kw.value)
            for kw in node.keywords
            if kw.arg in _CANONICAL_WEIGHTS
            and _numeric_const(kw.value) is not None
        }
        if len(literal) >= 3 and all(
            value == _CANONICAL_WEIGHTS[arg] for arg, value in literal.items()
        ):
            yield self.diagnostic(
                ctx, node,
                "SeverityWeights(...) re-states the Table-4 defaults; "
                "use SeverityWeights() / DEFAULT_WEIGHTS (custom "
                "studies may pass *different* weights)",
            )

    def _check_weight_assign(
        self, ctx: FileContext, node: ast.Assign
    ) -> Iterator[Diagnostic]:
        values = set(_CANONICAL_WEIGHTS.values())
        for target in node.targets:
            name = _attr_or_name(target)
            if name is None or not _WEIGHT_NAME_RE.search(name):
                continue
            value = _numeric_const(node.value)
            if value is not None and value in values:
                yield self.diagnostic(
                    ctx, node,
                    f"severity weight re-hardcoded as {name}; import "
                    "repro.effects.SEVERITY_WEIGHTS / severity_weight",
                )


# ---------------------------------------------------------------------------
# RPR006 -- parallel-safety
# ---------------------------------------------------------------------------

#: Call targets whose callable/workload arguments cross (potential)
#: process boundaries and therefore must be picklable.
_ENGINE_APIS = frozenset({
    "ParallelCampaignEngine", "characterize_many", "submit",
})


def _engine_call_name(node: ast.Call) -> Optional[str]:
    name = _attr_or_name(node.func)
    return name if name in _ENGINE_APIS else None


@register_rule
class ParallelSafety(Rule):
    rule_id = "RPR006"
    name = "parallel-safety"
    description = (
        "callables handed to the parallel engine must be module-level "
        "(lambdas/closures do not pickle and silently pin the run to "
        "one worker semantics), and task functions must not mutate "
        "module globals (workers never share them back)"
    )
    protects = "serial/parallel bit-equivalence of the engine"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                api = _engine_call_name(node)
                if api is not None:
                    yield from self._check_engine_args(ctx, node, api)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_closures(ctx, node)
                if _is_repro_module(ctx):
                    for stmt in ast.walk(node):
                        if isinstance(stmt, ast.Global):
                            yield self.diagnostic(
                                ctx, stmt,
                                f"function {node.name!r} mutates module "
                                "globals; worker processes never share "
                                "them back -- thread state through "
                                "arguments and return values",
                            )

    def _check_engine_args(
        self, ctx: FileContext, node: ast.Call, api: str
    ) -> Iterator[Diagnostic]:
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            for sub in ast.walk(value):
                if isinstance(sub, ast.Lambda):
                    yield self.diagnostic(
                        ctx, sub,
                        f"lambda passed into {api}(...); engine "
                        "callables must be module-level functions so "
                        "they pickle into worker processes",
                    )

    def _check_closures(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Diagnostic]:
        nested: Set[str] = set()
        body: List[ast.stmt] = getattr(func, "body", [])
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(sub.name)
        if not nested:
            return
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and _engine_call_name(sub):
                    values = list(sub.args) + [kw.value for kw in sub.keywords]
                    for value in values:
                        if isinstance(value, ast.Name) and value.id in nested:
                            yield self.diagnostic(
                                ctx, value,
                                f"closure {value.id!r} passed into "
                                f"{_engine_call_name(sub)}(...); define "
                                "it at module level so it pickles into "
                                "worker processes",
                            )


# ---------------------------------------------------------------------------
# RPR007 -- single persistence path for run data
# ---------------------------------------------------------------------------

#: Serializer entry points whose use on run data bypasses the store.
_SERIALIZER_PATHS = frozenset({
    "csv.writer", "csv.DictWriter", "json.dump", "json.dumps",
})

#: Identifiers that mark a scope as handling run-level campaign data.
#: Spec/figure/report serialization is fine -- those are different
#: artifacts; what must not be serialized ad hoc is the run record
#: stream the store journals -- and, since the fleet refactor, the
#: fleet manifest and the warm index answers derived from it: a second
#: writer of ``fleet.json`` or of index payloads would fork the schema
#: exactly the way an ad-hoc run-record CSV would (indexes are only
#: provably reparse-identical while ``repro.store`` owns their bytes).
_RUN_DATA_MARKERS = frozenset({
    "RunRecord", "StoredCampaign", "all_records", "csv_row",
    "from_csv_row", "RUN_FIELDS", "SEVERITY_FIELDS", "severity_by_voltage",
    # fleet manifest writers
    "FleetManifest", "ShardEntry", "FleetStore", "refresh_watermarks",
    # warm index writers
    "StoreIndexes", "FleetIndexes", "VminIndex", "SeverityIndex",
    "PredictionFeatureIndex",
})

#: Crash-safety calls only ``repro.store`` (its durable module) may make.
_DURABLE_CALLS = frozenset(f"os.{name}" for name in ("replace", "rename", "fsync"))

#: The sanctioned homes of run-data serialization.
_PERSISTENCE_MODULES = ("repro.core.results", "repro.store")


def _in_persistence_layer(ctx: FileContext) -> bool:
    return ctx.module is not None and any(
        ctx.module == home or ctx.module.startswith(home + ".")
        for home in _PERSISTENCE_MODULES
    )


@register_rule
class SinglePersistencePath(Rule):
    rule_id = "RPR007"
    name = "single-persistence-path"
    description = (
        "run data has one persistence path (repro.store journals, "
        "repro.core.results derived CSVs) and durable files one primitive "
        "(repro.store.durable); ad-hoc csv.writer/json.dump of run records "
        "or os-level replace/rename/fsync elsewhere forks them and breaks resume"
    )
    protects = "the repro-campaign/v1 journal as the single source of truth"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not _is_repro_module(ctx) or _module_package(ctx) == "store":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = ctx.resolve(node.func)
            if path in _DURABLE_CALLS:
                yield self.diagnostic(
                    ctx, node,
                    f"{path} outside repro.store; write durable files "
                    "through repro.store.durable (atomic_write / AppendLog)",
                )
            if path not in _SERIALIZER_PATHS or _in_persistence_layer(ctx):
                continue
            scope = self._enclosing_scope(ctx.tree, node)
            marker = self._run_data_marker(scope)
            if marker is not None:
                yield self.diagnostic(
                    ctx, node,
                    f"{path} in a scope handling run data ({marker}); "
                    "persist through repro.store.CampaignStore (or the "
                    "derived repro.core.results.ResultStore exports)",
                )

    @staticmethod
    def _enclosing_scope(tree: ast.AST, node: ast.AST) -> ast.AST:
        """Innermost function containing ``node`` (module tree if none).

        Nested functions start on later lines than their enclosers, so
        the latest-starting container is the innermost scope.
        """
        best = tree
        best_line = -1
        for candidate in ast.walk(tree):
            if not isinstance(candidate, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if candidate.lineno <= best_line:
                continue
            if any(sub is node for sub in ast.walk(candidate)):
                best = candidate
                best_line = candidate.lineno
        return best

    @staticmethod
    def _run_data_marker(scope: ast.AST) -> Optional[str]:
        """First run-data identifier the scope mentions, if any."""
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Name) and sub.id in _RUN_DATA_MARKERS:
                return sub.id
            if isinstance(sub, ast.Attribute) and sub.attr in _RUN_DATA_MARKERS:
                return sub.attr
        return None


#: Modules whose job *is* console output (RPR008 exemptions, besides
#: any file named ``cli.py``).
_PRINT_ALLOWED_MODULES = frozenset({
    "repro.analysis.ascii_plots",
    "repro.parallel.progress",
})


@register_rule
class NoBarePrint(Rule):
    """RPR008: library code must not ``print()``; use repro.telemetry.

    A six-month unattended campaign is monitored through traces,
    metrics and the structured logger -- output scattered over stdout
    is invisible to all three and garbles the CLI's own rendering.
    Only the user-facing surfaces may print: any ``cli.py``, the ASCII
    plot renderer, and the console progress reporter.
    """

    rule_id = "RPR008"
    name = "no-bare-print"
    description = (
        "bare print() in library code; route diagnostics through "
        "repro.telemetry (structured logger / tracer / metrics)"
    )
    protects = "observability: every signal reaches the telemetry layer"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not _is_repro_module(ctx):
            return
        if ctx.path_parts and ctx.path_parts[-1] == "cli.py":
            return
        if ctx.module in _PRINT_ALLOWED_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.diagnostic(
                    ctx, node,
                    "bare print() in library code; route output through "
                    "repro.telemetry (get_logger/event/metrics) or move "
                    "it to a cli.py surface",
                )


# ---------------------------------------------------------------------------
# RPR010 -- single serialization path for model artifacts
# ---------------------------------------------------------------------------

#: Serializer entry points whose use on fitted models bypasses the
#: model store (pickle included: a pickled estimator is neither
#: versioned nor digest-checked, and stops loading across refactors).
_MODEL_SERIALIZER_PATHS = frozenset({
    "json.dump", "json.dumps", "pickle.dump", "pickle.dumps",
})

#: Identifiers that mark a scope as handling fitted-model state.
#: Dataset/metrics serialization is fine -- what must not leave through
#: an ad-hoc dump is coefficient/selection state, which only the
#: ``repro-model/v1`` artifact series may persist.
_MODEL_DATA_MARKERS = frozenset({
    "ModelArtifact", "FittedModel", "OrdinaryLeastSquares",
    "OnlineLeastSquares", "StreamingTrainer", "coefficients_by_name",
    "standardized_coef", "selected_features", "trainer_state",
    "MODEL_FORMAT", "train_set_digest",
})

#: The sanctioned home of model serialization.
_MODEL_STORE_MODULE = "repro.store.models"


@register_rule
class SingleModelPath(Rule):
    rule_id = "RPR010"
    name = "single-model-path"
    description = (
        "fitted models have one serialization path (repro.store.models "
        "repro-model/v1 artifacts); ad-hoc json.dump/pickle of "
        "coefficients elsewhere forks the artifact schema and loses "
        "versioning, digests and journal offsets"
    )
    protects = "the repro-model/v1 artifact series as the single model source"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not _is_repro_module(ctx) or ctx.module == _MODEL_STORE_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = ctx.resolve(node.func)
            if path not in _MODEL_SERIALIZER_PATHS:
                continue
            scope = SinglePersistencePath._enclosing_scope(ctx.tree, node)
            marker = self._model_marker(scope)
            if marker is not None:
                yield self.diagnostic(
                    ctx, node,
                    f"{path} in a scope handling fitted-model state "
                    f"({marker}); persist models through "
                    "repro.store.models.ModelStore (repro-model/v1 "
                    "artifacts)",
                )

    @staticmethod
    def _model_marker(scope: ast.AST) -> Optional[str]:
        """First fitted-model identifier the scope mentions, if any."""
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Name) and sub.id in _MODEL_DATA_MARKERS:
                return sub.id
            if isinstance(sub, ast.Attribute) and sub.attr in _MODEL_DATA_MARKERS:
                return sub.attr
        return None


# ---------------------------------------------------------------------------
# RPR009 -- voltage-curve evaluation inside per-run loops
# ---------------------------------------------------------------------------

#: Methods that evaluate a voltage/fault curve.  Each is pure in the
#: voltage argument, so inside a per-run loop every call after the
#: first recomputes a value the batch kernel compiles exactly once.
_CURVE_EVAL_METHODS = frozenset({
    "probability", "effect_probabilities", "probability_table",
    "single_event_rate", "double_event_rate", "poisson_rate_table",
    "event_rate_table",
})

#: Packages where per-run loops are hot paths (campaign execution).
_RUN_LOOP_PACKAGES = frozenset({"core", "hardware"})


def _function_uses_rng(node: ast.AST) -> bool:
    """True when a function takes or references an ``rng`` -- the
    signature of a per-*run* body rather than per-campaign setup."""
    args = getattr(node, "args", None)
    if args is not None:
        every = (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        )
        if any(arg.arg == "rng" for arg in every):
            return True
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "rng":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "rng":
            return True
    return False


@register_rule
class CurveEvalInRunLoop(Rule):
    """RPR009: curve objects are compiled, not re-evaluated per run.

    The batch kernel (:mod:`repro.core.kernel`) exists because the
    fault surface is a pure function of voltage: it can be tabulated
    once per campaign and indexed thereafter.  A call to a curve-eval
    method (``probability``, ``poisson_rate_table``, ...) inside a
    ``for``/``while`` body of an rng-driven function in ``core/`` or
    ``hardware/`` re-derives that table on every run -- the exact
    pattern whose removal bought the kernel its speedup, and the first
    thing a future refactor is likely to reintroduce.
    """

    rule_id = "RPR009"
    name = "no-curve-eval-in-run-loop"
    description = (
        "voltage-curve evaluation inside a per-run loop; hoist it out "
        "of the loop or compile a VoltageTable (repro.core.kernel) "
        "once per campaign"
    )
    protects = "throughput: the batch kernel's compile-once contract"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if _module_package(ctx) not in _RUN_LOOP_PACKAGES:
            return
        seen: Set[int] = set()
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _function_uses_rng(func):
                continue
            for loop in ast.walk(func):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _CURVE_EVAL_METHODS
                        and id(node) not in seen
                    ):
                        seen.add(id(node))
                        yield self.diagnostic(
                            ctx, node,
                            f"{node.func.attr}() evaluated inside a "
                            "per-run loop; the curve is pure in voltage "
                            "-- evaluate it once before the loop or "
                            "compile a VoltageTable "
                            "(repro.core.kernel) per campaign",
                        )
