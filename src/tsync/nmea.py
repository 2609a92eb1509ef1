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
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .timebase import CSV_BLOCK, NS_PER_S, Bounded, config_field

NS_PER_DAY = 86_400 * NS_PER_S

# Satellites a receiver needs for a full position-and-time fix.
MIN_FIX_NSAT = 4
# The date of a run's second 0; sentence logs name times from its midnight.
SIM_EPOCH_DATE = datetime.date(2021, 1, 1)

# A node tracks GPS, BeiDou or both; generated sentences use these
# talkers, and GN for both.
_MASK_TO_TALKER = {frozenset({"GPS"}): "GP", frozenset({"BEIDOU"}): "GB"}


class SentenceKind(str, Enum):
    RMC = "RMC"
    GGA = "GGA"
    ZDA = "ZDA"
    OTHER = "OTHER"


# The kinds as module globals: the parsers test a sentence's kind at every
# line, and reading a member off its Enum class costs a descriptor call.
_RMC, _GGA, _ZDA, _OTHER = (SentenceKind.RMC, SentenceKind.GGA,
                            SentenceKind.ZDA, SentenceKind.OTHER)
# Each interpreted sentence code: its kind and the fields it must carry.
# Any other code is OTHER, with no minimum.
_KINDS = {"RMC": (_RMC, 9), "GGA": (_GGA, 7), "ZDA": (_ZDA, 4)}
_OTHER_CODE = (_OTHER, 0)

# Builds a NamedTuple from a tuple of its fields, without the Python-level
# __new__ that keyword support costs.
_new_tuple = tuple.__new__


# Each byte value as two uppercase hex digits.
_HEX = tuple(f"{i:02X}" for i in range(256))


def checksum(payload: str) -> str:
    """XOR fold of the payload bytes as two uppercase hex digits.

    The payload is everything between '$' and '*', exclusive; those
    delimiters must not appear inside it. (They are looked for in the
    text: a search of the bytes costs several times as much.)
    """
    data = payload.encode("ascii")
    if "$" in payload or "*" in payload:
        raise ValueError("payload must exclude '$' and '*'")
    acc = 0
    for b in data:
        acc ^= b
    return _HEX[acc]


class NmeaSentence(NamedTuple):
    """One parsed sentence: talker, type and raw fields."""

    talker: str
    kind: SentenceKind
    fields: tuple[str, ...]


def parse_sentence(line: str) -> NmeaSentence:
    """Parse and checksum-verify one sentence.

    Unknown sentence types are accepted with kind OTHER; a structural
    problem or a checksum mismatch raises ValueError.
    """
    text = line.rstrip("\r\n")
    if not text.startswith("$"):
        raise ValueError(f"sentence does not start with '$': {text[:20]!r}")
    star = text.rfind("*")
    if star < 0 or len(text) - star != 3:
        raise ValueError(f"missing or short checksum: {text[-6:]!r}")
    payload, given = text[1:star], text[star + 1:]
    try:
        int(given, 16)
    except ValueError:
        raise ValueError(f"non-hex checksum {given!r}") from None
    want = checksum(payload)
    if given.upper() != want:
        raise ValueError(f"checksum {given} != computed {want}")
    parts = payload.split(",")
    address = parts[0]
    if len(address) < 5:
        raise ValueError(f"short address field {address!r}")
    code = address[2:]
    kind, need = _KINDS.get(code, _OTHER_CODE)
    fields = tuple(parts[1:])
    if len(fields) < need:
        raise ValueError(f"{code} carries {len(fields)} fields, needs {need}")
    return _new_tuple(NmeaSentence, (address[:2], kind, fields))


class GnssFix(NamedTuple):
    """Time-of-day fix extracted from a sentence.

    tod_ns is nanoseconds since UTC midnight; nsat is None when the
    sentence type does not report satellite counts, and date for a GGA
    read before any dated sentence. fix_valid mirrors the receiver's
    position-fix validity flag, not time validity. talker is the
    sentence's two-letter talker ID.
    """

    tod_ns: int
    date: datetime.date | None
    fix_valid: bool
    nsat: int | None
    talker: str


def _digits(text: str) -> bool:
    """Whether a field is a plain string of ASCII digits; int() alone would
    also take signs, spaces and underscores."""
    return text.isdigit() and text.isascii()


# A time-of-day field: `hhmmss`, optionally followed by `.` and one or
# more digits, in ASCII digits only; int() and float() alone would also
# take signs, spaces and underscores.
_TOD_FIELD = re.compile(r"([0-9]{2})([0-9]{2})([0-9]{2}(?:\.[0-9]+)?)")


@functools.lru_cache(maxsize=1)
def _parse_tod(text: str) -> int:
    """Nanoseconds since midnight named by a time-of-day field; the
    sentences of a burst share it."""
    match = _TOD_FIELD.fullmatch(text)
    if match is None:
        raise ValueError(f"bad time-of-day field {text!r}")
    h, m, s = match.groups()
    h, m, s = int(h), int(m), float(s)
    if h < 24 and m < 60 and s < 61:
        tod = (h * 3600 + m * 60) * NS_PER_S + round(s * NS_PER_S)
        if tod < NS_PER_DAY:
            return tod
    raise ValueError(f"time-of-day out of range {text!r}")


@functools.lru_cache(maxsize=1)
def _parse_rmc_date(raw: str) -> datetime.date:
    """The date an RMC's `ddmmyy` field names; a log repeats it."""
    if len(raw) != 6 or not _digits(raw):
        raise ValueError(f"bad RMC date {raw!r}")
    return datetime.date(2000 + int(raw[4:6]), int(raw[2:4]), int(raw[0:2]))


# The XOR of the bytes of "00".."99" and of ".000"..".999". Tables of the
# strings themselves render faster still, but their 1 100 long-lived
# objects raised the peak RSS of most run-replay-analyze processes by
# 1 MiB.
_PAIRS_XOR = [int(checksum(f"{i:02d}"), 16) for i in range(100)]
_MILLIS_XOR = [int(checksum(f".{i:03d}"), 16) for i in range(1000)]


@functools.lru_cache(maxsize=1)
def _time_field(tod_ns: int) -> tuple[str, int]:
    """`hhmmss.sss`, the time truncated to whole milliseconds, and the XOR
    of its bytes; the sentences of a burst share it. The divisions run on
    small ints, and `hhmmss` is formatted as one number."""
    s, ms = divmod(tod_ns // 1_000_000, 1000)
    m, s = divmod(s, 60)
    h, m = divmod(m, 60)
    return ("%06d.%03d" % ((h * 100 + m) * 100 + s, ms),
            _PAIRS_XOR[h] ^ _PAIRS_XOR[m] ^ _PAIRS_XOR[s] ^ _MILLIS_XOR[ms])


def extract_fix(s: NmeaSentence, last_date: datetime.date | None = None) -> GnssFix:
    """Pull the timing content out of an RMC, GGA or ZDA sentence.

    GGA carries no date, so the caller's last known date is attached. The
    number fields take ASCII digits only.
    """
    talker, kind, fields = s
    if kind is not _RMC and kind is not _GGA and kind is not _ZDA:
        raise ValueError(f"no timing content in {kind} sentences")
    if not fields[0]:
        raise ValueError(f"{kind.value} sentence with empty time field")
    tod = _parse_tod(fields[0])
    if kind is _RMC:
        return _new_tuple(GnssFix, (tod, _parse_rmc_date(fields[8]),
                                    fields[1] == "A", None, talker))
    if kind is _GGA:
        quality, nsat = fields[5], fields[6]
        if not (_digits(quality) and _digits(nsat)):
            raise ValueError("bad GGA quality/satellite fields")
        nsat = int(nsat)
        return _new_tuple(GnssFix, (tod, last_date,
                                    int(quality) > 0 and nsat > 0, nsat,
                                    talker))
    day, month, year = fields[1:4]
    if _digits(day) and _digits(month) and _digits(year):
        try:
            return GnssFix(tod, datetime.date(int(year), int(month), int(day)),
                           True, None, talker)
        except ValueError:
            pass
    raise ValueError("bad ZDA date fields")


@functools.lru_cache(maxsize=64)
def _frame(talker: str, kind: SentenceKind, date: datetime.date | None,
           fix_valid: bool, nsat: int | None) -> tuple[str, str, int]:
    """A sentence less its time field: the text before and after that
    field, and the XOR of the payload bytes in both."""
    if kind is SentenceKind.RMC:
        status = "A" if fix_valid else "V"
        ddmmyy = f"{date.day:02d}{date.month:02d}{date.year % 100:02d}"
        rest = [status, "", "", "", "", "", "", ddmmyy, "", ""]
    elif kind is SentenceKind.GGA:
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
    tod_ns, date, fix_valid, nsat, talker = fix
    head, tail, acc = _frame(talker, kind, date, fix_valid, nsat)
    tod, tod_acc = _time_field(tod_ns)
    return f"{head}{tod}{tail}{acc ^ tod_acc:02X}"


_EPOCH_DAY = SIM_EPOCH_DATE.toordinal()


def _midnight_ns(date: datetime.date) -> int:
    """The start of `date`, in ns since SIM_EPOCH_DATE midnight."""
    return (date.toordinal() - _EPOCH_DAY) * NS_PER_DAY


def absolute_second_ns(fix: GnssFix) -> int:
    """Absolute time named by a dated fix, in ns since SIM_EPOCH_DATE
    midnight."""
    return _midnight_ns(fix.date) + fix.tod_ns


@dataclass(frozen=True)
class SerialDeliveryModel(Bounded):
    """Latency model for the RS232 sentence stream.

    Arrival = second boundary + base latency + uniform jitter; a draw may
    be dropped with drop_prob.
    """

    # Under a second each, so a second's burst leaves before the next one.
    base_latency_ms: float = config_field(80.0, minimum=0,
                                          exclusiveMaximum=1000)
    jitter_ms: float = config_field(10.0, minimum=0, exclusiveMaximum=1000)
    drop_prob: float = config_field(0.0, minimum=0, exclusiveMaximum=1)

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


def format_log(arrivals, seconds, nsats, constellations):
    """A run's sentence log, as text blocks of CSV_BLOCK bursts, from the
    bursts' equal-length columns of arrival times (ns), seconds and
    satellite counts. Each burst is an RMC and a GGA for its second, each
    line prefixed with its arrival time.

    A burst's fix is the one a receiver reports for its second of the run:
    the time of day and date from SIM_EPOCH_DATE, valid with at least
    MIN_FIX_NSAT satellites. It is built as a plain tuple of GnssFix's
    fields, and the date is worked out only when the day changes."""
    rmc, gga = SentenceKind.RMC, SentenceKind.GGA
    talker = _MASK_TO_TALKER.get(constellations, "GN")
    new_fix = tuple.__new__
    day = date = None
    for i in range(0, len(arrivals), CSV_BLOCK):
        j = i + CSV_BLOCK
        out = []
        for arrival, second, nsat in zip(map(str, arrivals[i:j]),
                                         seconds[i:j], nsats[i:j]):
            days, rem = divmod(second, 86_400)
            if days != day:
                day = days
                date = SIM_EPOCH_DATE + datetime.timedelta(days=days)
            fix = new_fix(GnssFix, (rem * NS_PER_S, date,
                                    nsat >= MIN_FIX_NSAT, nsat, talker))
            out.append(f"{arrival} {generate(fix, rmc)}\n"
                       f"{arrival} {generate(fix, gga)}\n")
        yield "".join(out)


def read_log(path, assumed_latency_ms: float) -> list[tuple[int, int, bool]]:
    """Read a sentence log as (arrival_ns, named_ns, fix_valid) events.

    A bare sentence, one without an '<arrival_ns> ' prefix, arrives
    `assumed_latency_ms` after the time it names. The first bad prefix or
    byte, sentence that does not parse, or arrival earlier than the one
    before it raises ValueError naming the file (and line).
    """
    events = []
    last_date = day_ns = None
    last = -math.inf  # the arrival of the last event
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line, rx_ns = raw.rstrip("\r\n"), None
            if not line:
                continue
            if not line.isascii():
                raise ValueError(f"{path}:{lineno}: non-ASCII byte")
            head, _, rest = line.partition(" ")
            if rest.startswith("$"):
                try:
                    rx_ns, line = int(head), rest
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad arrival time {head!r}") from None
                if abs(rx_ns) >= 2**63:
                    raise ValueError(f"{path}:{lineno}: arrival time "
                                     f"{head} past the 64-bit ns range")
            # Both parsers are looked up on the module at each line, so a
            # wrapper installed there sees every call.
            try:
                sentence = parse_sentence(line)
                if sentence.kind is _OTHER:
                    continue
                tod, date, valid, _, _ = extract_fix(sentence, last_date)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if date is None:  # a GGA before any dated sentence
                continue
            if date is not last_date:
                last_date, day_ns = date, _midnight_ns(date)
            named_ns = day_ns + tod
            arrival = rx_ns if rx_ns is not None else named_ns + round(
                assumed_latency_ms * 1e6)
            if arrival < last:
                raise ValueError(f"{path}: arrivals not time-sorted")
            last = arrival
            events.append((arrival, named_ns, valid))
    return events
