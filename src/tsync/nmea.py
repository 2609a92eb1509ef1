"""NMEA-0183 sentence parsing, generation and serial delivery modelling.

Only the time-bearing sentences a timing receiver needs are interpreted:
RMC (time of day, date, validity), GGA (time of day, fix quality,
satellite count) and ZDA (time of day, date). Position fields are carried
verbatim but never interpreted. A run's logs hold RMC and GGA only, so
those are the two kinds generated.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass, field
from enum import Enum

from .timebase import check_bounds, config_field

NS_PER_S = 1_000_000_000
NS_PER_DAY = 86_400 * NS_PER_S

# Satellites a receiver needs for a full position-and-time fix.
MIN_FIX_NSAT = 4
# The date of a run's second 0; sentence logs name times from its midnight.
SIM_EPOCH_DATE = datetime.date(2021, 1, 1)

_TALKER_TO_MASK = {
    "GP": frozenset({"GPS"}),
    "GL": frozenset({"GLONASS"}),
    "GB": frozenset({"BEIDOU"}),
    "BD": frozenset({"BEIDOU"}),
    "GA": frozenset({"GALILEO"}),
    "GN": frozenset({"GPS", "GLONASS", "BEIDOU", "GALILEO"}),
}
# A node tracks GPS, BeiDou or both; generated sentences use these
# talkers, and GN for both.
_MASK_TO_TALKER = {frozenset({"GPS"}): "GP", frozenset({"BEIDOU"}): "GB"}

# Minimum field counts for structural validation per sentence type.
_MIN_FIELDS = {"RMC": 9, "GGA": 7, "ZDA": 4}


class BadChecksum(ValueError):
    pass


class Truncated(ValueError):
    pass


class MalformedField(ValueError):
    pass


class NoTimeField(ValueError):
    pass


class MissingField(ValueError):
    pass


class SentenceKind(str, Enum):
    RMC = "RMC"
    GGA = "GGA"
    ZDA = "ZDA"
    OTHER = "OTHER"


def checksum(payload: str | bytes) -> str:
    """XOR fold of the payload bytes as two uppercase hex digits.

    The payload is everything between '$' and '*', exclusive; those
    delimiters must not appear inside it.
    """
    data = payload.encode("ascii") if isinstance(payload, str) else payload
    if b"$" in data or b"*" in data:
        raise ValueError("payload must exclude '$' and '*'")
    acc = 0
    for b in data:
        acc ^= b
    return f"{acc:02X}"


@dataclass(frozen=True)
class NmeaSentence:
    """One parsed sentence: talker, type, raw fields and checksum."""

    talker: str
    kind: SentenceKind
    fields: tuple[str, ...]
    checksum: str
    type_code: str = ""


def parse_sentence(line: str) -> NmeaSentence:
    """Parse and checksum-verify one sentence.

    Unknown sentence types are accepted with kind OTHER; structural
    problems raise Truncated / MalformedField, checksum mismatches raise
    BadChecksum.
    """
    text = line.rstrip("\r\n")
    if not text.startswith("$"):
        raise Truncated(f"sentence does not start with '$': {text[:20]!r}")
    star = text.rfind("*")
    if star < 0 or len(text) - star != 3:
        raise Truncated(f"missing or short checksum: {text[-6:]!r}")
    payload, given = text[1:star], text[star + 1:]
    try:
        int(given, 16)
    except ValueError:
        raise Truncated(f"non-hex checksum {given!r}") from None
    want = checksum(payload)
    if given.upper() != want:
        raise BadChecksum(f"checksum {given} != computed {want}")
    parts = payload.split(",")
    address = parts[0]
    if len(address) < 5:
        raise MalformedField(f"short address field {address!r}")
    talker, code = address[:2], address[2:]
    try:
        kind = SentenceKind(code)
    except ValueError:
        kind = SentenceKind.OTHER
    fields = tuple(parts[1:])
    if kind is not SentenceKind.OTHER and len(fields) < _MIN_FIELDS[kind.value]:
        raise MalformedField(
            f"{code} carries {len(fields)} fields, needs {_MIN_FIELDS[kind.value]}")
    return NmeaSentence(talker, kind, fields, want, code)


@dataclass(frozen=True)
class GnssFix:
    """Time-of-day fix extracted from a sentence.

    tod_ns is nanoseconds since UTC midnight; nsat is None when the
    sentence type does not report satellite counts. fix_valid mirrors the
    receiver's position-fix validity flag, not time validity.
    """

    tod_ns: int | None = None
    date: datetime.date | None = None
    fix_valid: bool = False
    nsat: int | None = None
    constellation_mask: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.tod_ns is not None and not 0 <= self.tod_ns < NS_PER_DAY:
            raise ValueError("tod_ns outside one day")
        if self.fix_valid and self.tod_ns is None:
            raise ValueError("a valid fix must carry a time of day")
        if self.nsat is not None:
            if self.nsat < 0:
                raise ValueError("nsat must be >= 0")
            if self.nsat == 0 and self.fix_valid:
                raise ValueError("zero satellites cannot give a valid fix")


def _parse_tod(text: str) -> int:
    if len(text) < 6:
        raise MalformedField(f"bad time-of-day field {text!r}")
    try:
        h, m = int(text[0:2]), int(text[2:4])
        s = float(text[4:])
    except ValueError:
        raise MalformedField(f"bad time-of-day field {text!r}") from None
    if not (0 <= h < 24 and 0 <= m < 60 and 0 <= s < 61):
        raise MalformedField(f"time-of-day out of range {text!r}")
    return (h * 3600 + m * 60) * NS_PER_S + round(s * NS_PER_S)


@functools.lru_cache(maxsize=1)
def _time_field(tod_ns: int) -> tuple[str, int]:
    """`hhmmss.sss`, the time truncated to whole milliseconds, and the XOR
    of its bytes; the sentences of a burst share it."""
    s, frac = divmod(tod_ns, NS_PER_S)
    h, rem = divmod(s, 3600)
    m, s = divmod(rem, 60)
    text = f"{h:02d}{m:02d}{s:02d}.{frac // 1_000_000:03d}"
    return text, int(checksum(text), 16)


def extract_fix(s: NmeaSentence, last_date: datetime.date | None = None) -> GnssFix:
    """Pull the timing content out of an RMC, GGA or ZDA sentence.

    GGA carries no date, so the caller's last known date is attached.
    """
    if s.kind not in (SentenceKind.RMC, SentenceKind.GGA, SentenceKind.ZDA):
        raise ValueError(f"no timing content in {s.kind} sentences")
    mask = _TALKER_TO_MASK.get(s.talker, frozenset())
    if not s.fields[0]:
        raise NoTimeField(f"{s.kind.value} sentence with empty time field")
    tod = _parse_tod(s.fields[0])
    if s.kind is SentenceKind.RMC:
        status = s.fields[1]
        raw = s.fields[8]
        if len(raw) != 6 or not raw.isdigit():
            raise MalformedField(f"bad RMC date {raw!r}")
        date = datetime.date(2000 + int(raw[4:6]), int(raw[2:4]), int(raw[0:2]))
        return GnssFix(tod, date, status == "A", None, mask)
    if s.kind is SentenceKind.GGA:
        try:
            quality = int(s.fields[5])
            nsat = int(s.fields[6])
        except ValueError:
            raise MalformedField("bad GGA quality/satellite fields") from None
        return GnssFix(tod, last_date, quality > 0 and nsat > 0, nsat, mask)
    try:
        date = datetime.date(int(s.fields[3]), int(s.fields[2]), int(s.fields[1]))
    except ValueError:
        raise MalformedField("bad ZDA date fields") from None
    return GnssFix(tod, date, True, None, mask)


@functools.lru_cache(maxsize=64)
def _frame(talker: str, kind: SentenceKind, date: datetime.date | None,
           fix_valid: bool, nsat: int | None) -> tuple[str, str, int]:
    """A sentence less its time field: the text before and after that
    field, and the XOR of the payload bytes in both."""
    if kind is SentenceKind.RMC:
        if date is None:
            raise MissingField("RMC needs a date")
        status = "A" if fix_valid else "V"
        ddmmyy = f"{date.day:02d}{date.month:02d}{date.year % 100:02d}"
        rest = [status, "", "", "", "", "", "", ddmmyy, "", ""]
    elif kind is SentenceKind.GGA:
        if nsat is None:
            raise MissingField("GGA needs a satellite count")
        quality = "1" if fix_valid else "0"
        rest = ["", "", "", "", quality, f"{nsat:02d}", "", "", "M", "", "M"]
    else:
        raise ValueError(f"cannot generate {kind} sentences")
    head = f"{talker}{kind.value},"
    tail = "," + ",".join(rest)
    return "$" + head, tail + "*", int(checksum(head + tail), 16)


def generate(fix: GnssFix, kind: SentenceKind) -> str:
    """Render a fix as a sentence line (no line terminator).

    The time of day is truncated to whole milliseconds; position fields
    are emitted blank. parse_sentence + extract_fix round-trips the
    carried fields. Only the time field is rendered per call: the rest
    of the sentence comes from a cached frame.
    """
    if fix.tod_ns is None:
        raise MissingField("fix has no time of day")
    head, tail, acc = _frame(
        _MASK_TO_TALKER.get(fix.constellation_mask, "GN"), kind, fix.date,
        fix.fix_valid, fix.nsat)
    tod, tod_acc = _time_field(fix.tod_ns)
    return f"{head}{tod}{tail}{acc ^ tod_acc:02X}"


def absolute_second_ns(fix: GnssFix, epoch_date: datetime.date) -> int:
    """Absolute time named by the fix, in ns since epoch_date midnight."""
    if fix.tod_ns is None:
        raise NoTimeField("fix has no time of day")
    if fix.date is None:
        raise MissingField("fix has no date to anchor the time of day")
    days = (fix.date - epoch_date).days
    return days * NS_PER_DAY + fix.tod_ns


@dataclass(frozen=True)
class SerialDeliveryModel:
    """Latency model for the RS232 sentence stream.

    Arrival = second boundary + base latency + uniform jitter; a draw may
    be dropped with drop_prob.
    """

    base_latency_ms: float = config_field(80.0, minimum=0)
    jitter_ms: float = config_field(10.0, minimum=0)
    drop_prob: float = config_field(0.0, minimum=0, exclusiveMaximum=1)

    def __post_init__(self):
        check_bounds(self)

    def delivery_delay_ns(self, rng) -> int | None:
        """Latency draw in ns, or None when the sentence is lost.

        `rng` needs only a `random()` method; the jitter is numpy's scalar
        `uniform(lo, hi)`, `lo + (hi - lo) * random()`, written out.
        """
        if self.drop_prob and rng.random() < self.drop_prob:
            return None
        jitter = 0.0
        if self.jitter_ms:
            lo = -self.jitter_ms
            jitter = lo + (self.jitter_ms - lo) * rng.random()
        return round((self.base_latency_ms + jitter) * 1e6)


def fix_for_second(second: int, nsat: int, mask) -> GnssFix:
    """The fix a receiver reports for an absolute second of the run."""
    days, rem = divmod(second, 86_400)
    date = SIM_EPOCH_DATE + datetime.timedelta(days=days)
    return GnssFix(rem * NS_PER_S, date, nsat >= MIN_FIX_NSAT, nsat, mask)


def format_log(bursts, constellations) -> str:
    """A run's sentence log. Each `(arrival_ns, second, nsat)` burst is an
    RMC and a GGA for that second, each line prefixed with the arrival
    time in ns."""
    out = []
    for arrival_ns, second, nsat in bursts:
        fix = fix_for_second(second, nsat, constellations)
        out.append(f"{arrival_ns} {generate(fix, SentenceKind.RMC)}\n"
                   f"{arrival_ns} {generate(fix, SentenceKind.GGA)}\n")
    return "".join(out)


def read_log(path, assumed_latency_ms: float) -> list[tuple[int, int, bool]]:
    """Read a sentence log as (arrival_ns, named_ns, fix_valid) events.

    A bare sentence, one without an '<arrival_ns> ' prefix, arrives
    `assumed_latency_ms` after the time it names. The first bad prefix or
    byte, sentence that does not parse, or arrival earlier than the one
    before it raises MalformedField naming the file (and line).
    """
    events = []
    last_date = None
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line, rx_ns = raw.rstrip("\r\n"), None
            if not line:
                continue
            if not line.isascii():
                raise MalformedField(f"{path}:{lineno}: non-ASCII byte")
            head, _, rest = line.partition(" ")
            if rest.startswith("$"):
                try:
                    rx_ns, line = int(head), rest
                except ValueError:
                    raise MalformedField(
                        f"{path}:{lineno}: bad arrival time {head!r}") from None
                if abs(rx_ns) >= 2**63:
                    raise MalformedField(f"{path}:{lineno}: arrival time "
                                         f"{head} past the 64-bit ns range")
            try:
                sentence = parse_sentence(line)
                if sentence.kind is SentenceKind.OTHER:
                    continue
                fix = extract_fix(sentence, last_date)
            except ValueError as exc:
                raise MalformedField(f"{path}:{lineno}: {exc}") from exc
            if fix.date is None:  # a GGA before any dated sentence
                continue
            last_date = fix.date
            named_ns = absolute_second_ns(fix, SIM_EPOCH_DATE)
            arrival = rx_ns if rx_ns is not None else named_ns + round(
                assumed_latency_ms * 1e6)
            if events and arrival < events[-1][0]:
                raise MalformedField(f"{path}: arrivals not time-sorted")
            events.append((arrival, named_ns, fix.fix_valid))
    return events
