"""Parsing phase (Figure 2): raw campaign logs -> classified runs.

The execution phase appends plain-text blocks to a log (one block per
run, the shape a shell-script harness would produce); the parsing phase
turns them back into structured, classified results.  Keeping this a
real text round-trip -- rather than passing Python objects through --
preserves the paper's architecture and its failure mode: a system crash
truncates the run's block (no exit-code line is ever written), and the
parser classifies exactly from what survived.

:func:`parse_log` yields :class:`ParsedRun` s, :func:`parse_records`
the :class:`~repro.core.runs.RunRecord` s the rest of the stack
aggregates; both read the log through one block scanner.  The raw log
is the measurement: the campaign store journals only the log and
re-derives the records through :func:`parse_records`.

Diagnostics go through the structured telemetry logger (silent unless
a telemetry session is active) instead of the :mod:`logging` module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from .. import telemetry
from ..effects import EffectType
from ..errors import ParseError
from .effects import classify_run
from .runs import CharacterizationSetup, RunRecord

_LOG = telemetry.get_logger("repro.core.parser")

#: Start-of-block marker written by the execution phase.
RUN_HEADER = "=== RUN"

_HEADER_RE = re.compile(
    r"^=== RUN chip=(?P<chip>\S+) benchmark=(?P<benchmark>\S+) "
    r"core=(?P<core>\d+) voltage_mv=(?P<voltage>\d+) freq_mhz=(?P<freq>\d+) "
    r"campaign=(?P<campaign>\d+) run=(?P<run>\d+) ===$"
)
_KV_RE = re.compile(r"(\w+)=(\S+)")
#: Line boundaries :meth:`str.splitlines` honours besides ``"\n"``.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@dataclass(frozen=True)
class ParsedRun:
    """One run block, parsed and classified."""

    chip: str
    benchmark: str
    core: int
    voltage_mv: int
    freq_mhz: int
    campaign_index: int
    run_index: int
    effects: FrozenSet[EffectType]
    exit_code: Optional[int]
    output_matches: Optional[bool]
    edac_ce: int
    edac_ue: int
    watchdog_action: str
    #: Per-location error attribution (``{"ce_L2": 1, ...}``) from the
    #: execution phase's logging (Section 2.2's parser extension).
    edac_locations: Mapping[str, int] = field(default_factory=dict)


def format_run_block(
    chip: str,
    benchmark: str,
    core: int,
    voltage_mv: int,
    freq_mhz: int,
    campaign_index: int,
    run_index: int,
    exit_code: Optional[int],
    output: Optional[str],
    expected_output: str,
    edac_ce: int,
    edac_ue: int,
    responsive: bool,
    watchdog_action: str = "none",
    edac_locations: Optional[Mapping[str, int]] = None,
) -> str:
    """Render one run as the log block the execution phase stores.

    Mirrors the real framework: a system crash means the in-band lines
    (exit code, output, EDAC) were never flushed; only the header and
    the post-recovery status/watchdog lines exist.
    """
    return render_run_block(
        run_block_head(
            chip, benchmark, core, voltage_mv, freq_mhz, campaign_index
        ),
        run_index,
        exit_code if responsive else None,
        output,
        expected_output,
        edac_ce,
        edac_ue,
        edac_locations,
        watchdog_action,
    )


def run_block_head(
    chip: str,
    benchmark: str,
    core: int,
    voltage_mv: int,
    freq_mhz: int,
    campaign_index: int,
) -> str:
    """A block's header line up to (not including) its run index.

    Every run of one voltage level shares it, so the campaign loop
    builds it once per level.
    """
    return (
        f"{RUN_HEADER} chip={chip} benchmark={benchmark} core={core} "
        f"voltage_mv={voltage_mv} freq_mhz={freq_mhz} "
        f"campaign={campaign_index} run="
    )


def render_run_block(
    head: str,
    run_index: int,
    exit_code: Optional[int],
    output: Optional[str],
    expected_output: str,
    edac_ce: int,
    edac_ue: int,
    edac_locations: Optional[Mapping[str, int]],
    watchdog_action: str,
) -> str:
    """The one block layout: ``head`` (see :func:`run_block_head`) plus
    the run index, then the body.

    ``exit_code=None`` is a system crash: only the post-recovery
    status/watchdog lines follow the header.
    """
    if exit_code is None:
        return (
            f"{head}{run_index} ===\n"
            f"status=system_crash\n"
            f"watchdog={watchdog_action}\n"
        )
    if edac_locations:
        encoded = ",".join(
            f"{key}:{count}" for key, count in sorted(edac_locations.items())
        )
        loc_line = f"edac_locations={encoded}\n"
    else:
        loc_line = ""
    if output is None:
        out_line = ""
    else:
        out_line = f"output={output} expected={expected_output}\n"
    status = "completed" if exit_code == 0 else "app_crash"
    return (
        f"{head}{run_index} ===\n"
        f"exit_code={exit_code}\n"
        f"{out_line}"
        f"edac_ce={edac_ce} edac_ue={edac_ue}\n"
        f"{loc_line}"
        f"status={status}\n"
        f"watchdog={watchdog_action}\n"
    )


#: What a header fixes short of the run index:
#: (chip, benchmark, core, voltage_mv, freq_mhz, campaign_index).
_Head = Tuple[str, str, int, int, int, int]
#: What a block's body -- every line after its header -- fixes:
#: (effects, exit_code, output_matches, edac_ce, edac_ue,
#: watchdog_action, edac_locations).
_Body = Tuple[
    FrozenSet[EffectType], Optional[int], Optional[bool], int, int, str,
    Dict[str, int],
]


def _parse_header(line: str) -> _Head:
    """The fields one header line fixes short of its run index."""
    match = _HEADER_RE.match(line)
    if match is None:
        _LOG.error("malformed run header", header=line)
        raise ParseError(f"malformed run header: {line!r}")
    return (
        match["chip"],
        match["benchmark"],
        int(match["core"]),
        int(match["voltage"]),
        int(match["freq"]),
        int(match["campaign"]),
    )


def _parse_body(header: str, body: str) -> _Body:
    """Classify one block from the text after its ``header`` line.

    A ``key=value`` pair never spans a line break, so the whole body
    is scanned at once.
    """
    fields: Dict[str, str] = {}
    for key, value in _KV_RE.findall(body):
        fields[key] = value

    status = fields.get("status")
    if status is None:
        _LOG.error("run block missing status line", header=header)
        raise ParseError(f"run block missing status line: {header!r}")
    responsive = status != "system_crash"
    exit_code = int(fields["exit_code"]) if "exit_code" in fields else None
    output = fields.get("output")
    expected = fields.get("expected", "")
    edac_ce = int(fields.get("edac_ce", 0))
    edac_ue = int(fields.get("edac_ue", 0))
    effects = classify_run(
        responsive=responsive,
        exit_code=exit_code,
        output=output,
        expected_output=expected,
        edac_ce=edac_ce,
        edac_ue=edac_ue,
    )
    output_matches = None if output is None else output == expected
    locations: Dict[str, int] = {}
    if "edac_locations" in fields:
        for pair in fields["edac_locations"].split(","):
            key, _colon, count = pair.partition(":")
            if not key or not count.isdigit():
                raise ParseError(f"malformed edac_locations entry: {pair!r}")
            locations[key] = int(count)
    return (
        effects,
        exit_code,
        output_matches,
        edac_ce,
        edac_ue,
        fields.get("watchdog", "none"),
        locations,
    )


def _scan(text: str) -> Iterator[Tuple[_Head, int, _Body]]:
    """The block scanner behind :func:`parse_log` and
    :func:`parse_records`: ``(head, run index, body)`` per run block.

    A block starts at every line that starts with :data:`RUN_HEADER`
    (lines as :meth:`str.splitlines` cuts them); anything but blank
    lines before the first block is an error.  A block's body -- the
    text after its header line -- fully determines its classified
    fields, and a campaign repeats a few dozen distinct bodies over
    its runs, so each distinct body is classified once per log.
    """
    if any(brk in text for brk in _OTHER_BREAKS):
        # The split below cuts on "\n" alone.
        text = "\n".join(text.splitlines())
    lead, *blocks = ("\n" + text).split("\n" + RUN_HEADER)
    for line in lead.splitlines():
        if line.strip():
            raise ParseError(f"content before first run header: {line!r}")
    heads: Dict[str, _Head] = {}
    bodies: Dict[str, _Body] = {}
    for block in blocks:
        rest, _newline, body_text = block.partition("\n")
        # The headers of one voltage level differ only in their run
        # index: the regex runs once per distinct prefix, and a header
        # sharing a matched prefix matches it iff its tail does.
        prefix, _run, tail = rest.rpartition(" run=")
        head = heads.get(prefix)
        if head is None or not (
            tail.endswith(" ===") and tail[:-4].isdecimal()
        ):
            head = heads[prefix] = _parse_header(RUN_HEADER + rest)
        body = bodies.get(body_text)
        if body is None:
            body = bodies[body_text] = _parse_body(
                RUN_HEADER + rest, body_text
            )
        yield head, int(tail[:-4]), body


def parse_log(text: str) -> List[ParsedRun]:
    """Parse a whole campaign log into classified runs."""
    runs = [
        ParsedRun(
            chip=head[0],
            benchmark=head[1],
            core=head[2],
            voltage_mv=head[3],
            freq_mhz=head[4],
            campaign_index=head[5],
            run_index=run_index,
            effects=body[0],
            exit_code=body[1],
            output_matches=body[2],
            edac_ce=body[3],
            edac_ue=body[4],
            watchdog_action=body[5],
            edac_locations=dict(body[6]),
        )
        for head, run_index, body in _scan(text)
    ]
    telemetry.inc_counter(telemetry.M_PARSER_RUNS, amount=len(runs))
    _LOG.debug("parsed campaign log", runs=len(runs))
    return runs


def parse_records(text: str) -> Tuple[RunRecord, ...]:
    """Parse a whole campaign log straight into :class:`RunRecord` s.

    Field-equal to the records the execution phase builds for the same
    log (the batch kernel's, or the parsing phase's), ``detail`` and
    watchdog flags included -- the campaign store derives every
    journaled record through here.  Raises the same
    :class:`~repro.errors.ParseError` s as :func:`parse_log` and bumps
    no metric: run and effect counters belong to the framework's
    parsing phase, not to every re-derivation of a stored log.
    """
    new_record = RunRecord.__new__
    setups: Dict[Tuple[int, int, int], CharacterizationSetup] = {}
    records: List[RunRecord] = []
    for head, run_index, body in _scan(text):
        chip, benchmark, core, voltage_mv, freq_mhz, campaign_index = head
        key = (voltage_mv, freq_mhz, core)
        setup = setups.get(key)
        if setup is None:
            setup = setups[key] = CharacterizationSetup(
                voltage_mv=voltage_mv, freq_mhz=freq_mhz, core=core
            )
        effects, exit_code, matches, edac_ce, edac_ue, action, locations = body
        # Laid out directly into a fresh instance, as the batch kernel
        # does: the frozen dataclass __init__ pays one
        # object.__setattr__ per field.
        record = new_record(RunRecord)
        record.__dict__.update(
            chip=chip,
            benchmark=benchmark,
            setup=setup,
            campaign_index=campaign_index,
            run_index=run_index,
            effects=effects,
            exit_code=exit_code,
            output_matches=matches,
            edac_ce=edac_ce,
            edac_ue=edac_ue,
            watchdog_intervened=action != "none",
            detail=dict(locations),
        )
        records.append(record)
    return tuple(records)
