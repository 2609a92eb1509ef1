import datetime
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tsync import nmea, scenario
from tsync.nmea import (BadChecksum, GnssFix, MalformedField, MissingField,
                        NoTimeField, SentenceKind, SerialDeliveryModel,
                        Truncated, checksum, extract_fix, generate,
                        parse_sentence)


def xor_oracle(payload: str) -> str:
    acc = 0
    for ch in payload.encode("ascii"):
        acc ^= ch
    return f"{acc:02X}"


class TestChecksum:
    def test_empty_payload(self):
        assert checksum("") == "00"

    def test_known_payload_matches_oracle(self):
        assert checksum("GPGGA,123519") == xor_oracle("GPGGA,123519")

    @given(st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                 exclude_characters="$*"), max_size=60))
    def test_matches_oracle(self, payload):
        assert checksum(payload) == xor_oracle(payload)

    def test_repeated_sentence_same_checksum(self):
        assert checksum("GPRMC,1") == checksum("GPRMC,1")

    def test_delimiters_rejected(self):
        with pytest.raises(ValueError):
            checksum("GP$GA")


def make_line(payload: str) -> str:
    return f"${payload}*{xor_oracle(payload)}"


RMC_PAYLOAD = "GPRMC,083559.000,A,,,,,,,160321,,"
GGA_PAYLOAD = "GNGGA,083559.000,,,,,1,07,,,M,,M"
ZDA_PAYLOAD = "GPZDA,083559.000,16,03,2021,00,00"


class TestParse:
    def test_well_formed_rmc(self):
        s = parse_sentence(make_line(RMC_PAYLOAD) + "\r\n")
        assert s.kind is SentenceKind.RMC
        assert s.talker == "GP"
        assert s.fields[1] == "A"

    def test_lf_only_accepted(self):
        assert parse_sentence(make_line(GGA_PAYLOAD) + "\n").kind is SentenceKind.GGA

    def test_checksum_flip_detected(self):
        line = make_line(RMC_PAYLOAD)
        bad = line[:-1] + ("0" if line[-1] != "0" else "1")
        with pytest.raises(BadChecksum):
            parse_sentence(bad)

    @given(st.data())
    @settings(max_examples=60)
    def test_any_payload_byte_flip_rejected(self, data):
        line = make_line(RMC_PAYLOAD)
        idx = data.draw(st.integers(1, len(RMC_PAYLOAD)))
        flipped = chr(ord(line[idx]) ^ 0x01)
        if flipped in "$*\r\n":
            return
        mutated = line[:idx] + flipped + line[idx + 1:]
        with pytest.raises((BadChecksum, MalformedField, Truncated)):
            parse_sentence(mutated)

    def test_truncated_inputs(self):
        with pytest.raises(Truncated):
            parse_sentence("GPGGA,1*33")
        with pytest.raises(Truncated):
            parse_sentence("$GPGGA,1")
        with pytest.raises(Truncated):
            parse_sentence("$GPGGA,1*3")

    def test_missing_trailing_fields(self):
        with pytest.raises(MalformedField):
            parse_sentence(make_line("GPRMC,083559.000,A"))

    def test_unknown_type_is_other(self):
        s = parse_sentence(make_line("GPGSV,1,1,00"))
        assert s.kind is SentenceKind.OTHER
        assert s.type_code == "GSV"


class TestExtract:
    def test_rmc_active_status(self):
        fix = extract_fix(parse_sentence(make_line(RMC_PAYLOAD)))
        assert fix.fix_valid
        assert fix.date == datetime.date(2021, 3, 16)
        assert fix.tod_ns == (8 * 3600 + 35 * 60 + 59) * 10**9

    def test_rmc_void_status(self):
        payload = RMC_PAYLOAD.replace(",A,", ",V,")
        assert not extract_fix(parse_sentence(make_line(payload))).fix_valid

    def test_gga_satellite_count(self):
        fix = extract_fix(parse_sentence(make_line(GGA_PAYLOAD)),
                          last_date=datetime.date(2021, 3, 16))
        assert fix.nsat == 7
        assert fix.fix_valid
        assert fix.date == datetime.date(2021, 3, 16)

    def test_gga_quality_zero_invalid(self):
        payload = GGA_PAYLOAD.replace(",1,07,", ",0,07,")
        fix = extract_fix(parse_sentence(make_line(payload)))
        assert not fix.fix_valid
        assert fix.nsat == 7

    def test_zda(self):
        fix = extract_fix(parse_sentence(make_line(ZDA_PAYLOAD)))
        assert fix.date == datetime.date(2021, 3, 16)
        assert fix.fix_valid

    def test_zda_literal_sentence(self):
        fix = extract_fix(parse_sentence(
            "$GNZDA,235959.500,31,12,2021,00,00*4C\r\n"))
        assert fix == GnssFix(86_399_500_000_000, datetime.date(2021, 12, 31),
                              True, None,
                              frozenset({"GPS", "GLONASS", "BEIDOU",
                                         "GALILEO"}))

    @pytest.mark.parametrize("talker, mask", [
        ("GL", {"GLONASS"}), ("GA", {"GALILEO"}), ("BD", {"BEIDOU"})])
    def test_talkers_never_generated_still_parse(self, talker, mask):
        fix = extract_fix(parse_sentence(make_line(
            talker + RMC_PAYLOAD[2:])))
        assert fix.constellation_mask == frozenset(mask)

    def test_empty_time_field(self):
        payload = "GPRMC,,V,,,,,,,160321,,"
        with pytest.raises(NoTimeField):
            extract_fix(parse_sentence(make_line(payload)))

    def test_wrong_kind_rejected(self):
        s = parse_sentence(make_line("GPGSV,1,1,00"))
        with pytest.raises(ValueError):
            extract_fix(s)


# The masks a generated talker names: GP, GB and GN.
MASKS = st.sampled_from([
    frozenset({"GPS"}), frozenset({"BEIDOU"}),
    frozenset({"GPS", "GLONASS", "BEIDOU", "GALILEO"}),
])
TODS = st.integers(0, 86_399_999).map(lambda ms: ms * 10**6)
DATES = st.dates(datetime.date(2000, 1, 1), datetime.date(2099, 12, 31))


class TestGenerateRoundTrip:
    @given(TODS, DATES, st.booleans(), MASKS)
    @settings(max_examples=80)
    def test_rmc(self, tod, date, valid, mask):
        fix = GnssFix(tod, date, valid, None, mask)
        back = extract_fix(parse_sentence(generate(fix, SentenceKind.RMC)))
        assert back == fix

    @given(TODS, DATES, st.integers(1, 32), st.booleans(), MASKS)
    @settings(max_examples=80)
    def test_gga(self, tod, date, nsat, valid, mask):
        fix = GnssFix(tod, date, valid, nsat, mask)
        back = extract_fix(parse_sentence(generate(fix, SentenceKind.GGA)),
                           last_date=date)
        assert back == fix

    def test_invalid_fix_renders_void_status(self):
        fix = GnssFix(0, datetime.date(2021, 1, 1), False, None,
                      frozenset({"GPS"}))
        assert ",V," in generate(fix, SentenceKind.RMC)

    def test_nsat_formatting(self):
        fix = GnssFix(0, None, True, 12, frozenset({"GPS"}))
        assert ",12," in generate(fix, SentenceKind.GGA)

    def test_missing_fields(self):
        fix = GnssFix(0, None, False, None, frozenset({"GPS"}))
        with pytest.raises(MissingField):
            generate(fix, SentenceKind.RMC)
        with pytest.raises(MissingField):
            generate(fix, SentenceKind.GGA)


def reference_generate(fix: GnssFix, kind: SentenceKind) -> str:
    """Whole-sentence rendering: join every field, then checksum."""
    talker = {frozenset({"GPS"}): "GP",
              frozenset({"BEIDOU"}): "GB"}.get(fix.constellation_mask, "GN")
    s, frac = divmod(fix.tod_ns, 10**9)
    tod = f"{s // 3600:02d}{s // 60 % 60:02d}{s % 60:02d}.{frac // 10**6:03d}"
    d = fix.date
    if kind is SentenceKind.RMC:
        fields = [tod, "A" if fix.fix_valid else "V", "", "", "", "", "", "",
                  f"{d.day:02d}{d.month:02d}{d.year % 100:02d}", "", ""]
    else:
        fields = [tod, "", "", "", "", "1" if fix.fix_valid else "0",
                  f"{fix.nsat:02d}", "", "", "M", "", "M"]
    payload = ",".join((talker + kind.value, *fields))
    return f"${payload}*{xor_oracle(payload)}"


# Any mask; all but GPS alone and BeiDou alone render as GN.
ANY_MASK = st.sets(st.sampled_from(["GPS", "GLONASS", "BEIDOU", "GALILEO"]),
                   min_size=1).map(frozenset)


class TestGenerateMatchesReference:
    @given(TODS, DATES, st.booleans(), st.integers(1, 32), ANY_MASK,
           st.sampled_from([SentenceKind.RMC, SentenceKind.GGA]))
    @settings(max_examples=300)
    def test_cached_frames_render_the_same_bytes(self, tod, date, valid,
                                                 nsat, mask, kind):
        fix = GnssFix(tod, date, valid, nsat, mask)
        assert generate(fix, kind) == reference_generate(fix, kind)

    def test_other_kinds_rejected(self):
        fix = GnssFix(0, datetime.date(2021, 1, 1), True, 8,
                      frozenset({"GPS"}))
        with pytest.raises(ValueError, match="cannot generate"):
            generate(fix, SentenceKind.OTHER)
        with pytest.raises(ValueError, match="cannot generate"):
            generate(fix, SentenceKind.ZDA)


class TestTimeField:
    @pytest.mark.parametrize("tod_ns, text", [
        (0, "000000.000"),
        (999_600_000, "000000.999"),
        (59_999_700_000, "000059.999"),
        (86_399_999_999_999, "235959.999"),
        ((8 * 3600 + 35 * 60 + 59) * 10**9 + 250_000_000, "083559.250"),
    ])
    def test_truncated_to_the_millisecond(self, tod_ns, text):
        assert nmea._time_field(tod_ns)[0] == text

    def test_sentence_never_names_a_time_ahead(self):
        fix = GnssFix(59_999_700_000, datetime.date(2021, 1, 1), True, None,
                      frozenset({"GPS"}))
        back = extract_fix(parse_sentence(generate(fix, SentenceKind.RMC)))
        assert back.tod_ns == 59_999_000_000


def _bursts(seconds, nsats, delays):
    """Bursts of a run: one per second, each arriving inside its second."""
    return [(s * 10**9 + d, s, n) for s, n, d in zip(seconds, nsats, delays)]


# Seconds of a run, crowded around the first two midnights.
SECONDS = st.lists(st.integers(86_390, 86_410) | st.integers(172_790, 172_810)
                   | st.integers(0, 3 * 86_400), unique=True, max_size=30
                   ).map(sorted)
RUN_MASKS = st.sampled_from([frozenset({"GPS"}), frozenset({"BEIDOU"}),
                             frozenset(scenario.CONSTELLATIONS)])


class TestSentenceLog:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
              max_examples=80)
    @given(st.data(), SECONDS, RUN_MASKS)
    def test_read_log_inverts_format_log(self, tmp_path, data, seconds, mask):
        n = len(seconds)
        nsats = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        delays = data.draw(st.lists(st.integers(0, 10**9 - 1), min_size=n,
                                    max_size=n))
        bursts = _bursts(seconds, nsats, delays)
        path = tmp_path / "nmea.log"
        path.write_text(nmea.format_log(bursts, mask))
        want = [(rx, s * 10**9, nsat >= nmea.MIN_FIX_NSAT)
                for rx, s, nsat in bursts for _ in ("RMC", "GGA")]
        assert nmea.read_log(path, 80.0) == want

    def test_time_field_formatted_once_per_burst(self):
        nmea._time_field.cache_clear()
        text = nmea.format_log(_bursts([1, 2, 3], [8, 8, 2], [0, 0, 0]),
                               frozenset({"GPS"}))
        assert len(text.splitlines()) == 6
        assert nmea._time_field.cache_info().misses == 3

    def test_bare_sentences_arrive_after_the_assumed_latency(self, tmp_path):
        path = tmp_path / "nmea.log"
        text = nmea.format_log(_bursts([5], [8], [0]), frozenset({"GPS"}))
        path.write_text("".join(line.partition(" ")[2] + "\n"
                                for line in text.splitlines()))
        assert nmea.read_log(path, 12.5) == \
            [(5_012_500_000, 5 * 10**9, True)] * 2

    def test_unsorted_arrivals_rejected(self, tmp_path):
        path = tmp_path / "nmea.log"
        path.write_text(nmea.format_log(
            [(3 * 10**9, 2, 8), (2 * 10**9, 3, 8)], frozenset({"GPS"})))
        where = re.escape(str(path))
        with pytest.raises(MalformedField,
                           match=f"^{where}: arrivals not time-sorted$"):
            nmea.read_log(path, 80.0)

    def test_first_defect_is_reported(self, tmp_path):
        path = tmp_path / "nmea.log"
        path.write_text("5 $GPRMC,bad*01\n6 \u00b0\n", encoding="utf-8")
        with pytest.raises(MalformedField,
                           match=":1: checksum 01 != computed 00$"):
            nmea.read_log(path, 80.0)
        path.write_text("$GPGSV,1,1,00*79\n6 \u00b0\n", encoding="utf-8")
        with pytest.raises(MalformedField, match=":2: non-ASCII byte$"):
            nmea.read_log(path, 80.0)


class TestFixInvariants:
    def test_valid_fix_needs_time(self):
        with pytest.raises(ValueError):
            GnssFix(None, None, True, 5)

    def test_zero_sats_cannot_be_valid(self):
        with pytest.raises(ValueError):
            GnssFix(0, None, True, 0)

    def test_absolute_second(self):
        fix = GnssFix(3 * 10**9, datetime.date(2021, 1, 2), True, None)
        got = nmea.absolute_second_ns(fix, datetime.date(2021, 1, 1))
        assert got == (86_400 + 3) * 10**9


class TestSerialDelivery:
    def test_zero_jitter_is_exact_base_latency(self):
        model = SerialDeliveryModel(base_latency_ms=80.0, jitter_ms=0.0)
        rng = np.random.default_rng(1)
        assert all(model.delivery_delay_ns(rng) == 80_000_000
                   for _ in range(10))

    def test_jitter_bounded(self):
        model = SerialDeliveryModel(base_latency_ms=80.0, jitter_ms=10.0)
        rng = np.random.default_rng(2)
        draws = [model.delivery_delay_ns(rng) for _ in range(500)]
        assert all(70_000_000 <= d <= 90_000_000 for d in draws)

    def test_drop(self):
        model = SerialDeliveryModel(drop_prob=0.5)
        rng = np.random.default_rng(3)
        draws = [model.delivery_delay_ns(rng) for _ in range(200)]
        assert draws.count(None) > 50

    @pytest.mark.parametrize("jitter_ms", [10.0, 6.5, 2.4])
    def test_jitter_equals_numpy_uniform(self, jitter_ms):
        model = SerialDeliveryModel(base_latency_ms=80.0, jitter_ms=jitter_ms,
                                    drop_prob=0.3)
        ours, ref = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(2000):
            want = None
            if ref.random() >= 0.3:
                want = round((80.0 + ref.uniform(-jitter_ms, jitter_ms)) * 1e6)
            assert model.delivery_delay_ns(ours) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            SerialDeliveryModel(base_latency_ms=-1)
        with pytest.raises(ValueError):
            SerialDeliveryModel(drop_prob=1.0)
