import datetime
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tsync import nmea, scenario
from tsync.nmea import (GnssFix, SentenceKind, SerialDeliveryModel,
                        checksum, extract_fix, generate, parse_sentence)


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
        with pytest.raises(ValueError, match=r"^checksum \w\w != computed "):
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
        with pytest.raises(ValueError, match=r"^checksum \w\w != computed "
                           r"\w\w$"):
            parse_sentence(mutated)

    def test_truncated_inputs(self):
        with pytest.raises(ValueError, match="does not start with '\\$'"):
            parse_sentence("GPGGA,1*33")
        with pytest.raises(ValueError, match="missing or short checksum"):
            parse_sentence("$GPGGA,1")
        with pytest.raises(ValueError, match="missing or short checksum"):
            parse_sentence("$GPGGA,1*3")

    @pytest.mark.parametrize("line", ["$GP*GA,1*00", "$GP$GA,1*00"])
    def test_inner_delimiter_is_malformed(self, line):
        with pytest.raises(ValueError, match="must exclude '\\$' and"):
            parse_sentence(line)

    def test_missing_trailing_fields(self):
        with pytest.raises(ValueError, match="^RMC carries 2 fields, needs 9$"):
            parse_sentence(make_line("GPRMC,083559.000,A"))

    def test_unknown_type_is_other(self):
        s = parse_sentence(make_line("GPGSV,1,1,00"))
        assert s.kind is SentenceKind.OTHER


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
                              True, None, "GN")

    @pytest.mark.parametrize("talker", ["GL", "GA", "BD"])
    def test_talkers_never_generated_still_parse(self, talker):
        fix = extract_fix(parse_sentence(make_line(
            talker + RMC_PAYLOAD[2:])))
        assert fix.talker == talker

    def test_empty_time_field(self):
        payload = "GPRMC,,V,,,,,,,160321,,"
        with pytest.raises(ValueError,
                           match="^RMC sentence with empty time field$"):
            extract_fix(parse_sentence(make_line(payload)))

    def test_wrong_kind_rejected(self):
        s = parse_sentence(make_line("GPGSV,1,1,00"))
        with pytest.raises(ValueError):
            extract_fix(s)


# The talkers of generated sentences.
TALKERS = st.sampled_from(["GP", "GB", "GN"])
TODS = st.integers(0, 86_399_999).map(lambda ms: ms * 10**6)
DATES = st.dates(datetime.date(2000, 1, 1), datetime.date(2099, 12, 31))


class TestGenerateRoundTrip:
    @given(TODS, DATES, st.booleans(), TALKERS)
    @settings(max_examples=80)
    def test_rmc(self, tod, date, valid, talker):
        fix = GnssFix(tod, date, valid, None, talker)
        back = extract_fix(parse_sentence(generate(fix, SentenceKind.RMC)))
        assert back == fix

    @given(TODS, DATES, st.integers(1, 32), st.booleans(), TALKERS)
    @settings(max_examples=80)
    def test_gga(self, tod, date, nsat, valid, talker):
        fix = GnssFix(tod, date, valid, nsat, talker)
        back = extract_fix(parse_sentence(generate(fix, SentenceKind.GGA)),
                           last_date=date)
        assert back == fix

    def test_invalid_fix_renders_void_status(self):
        fix = GnssFix(0, datetime.date(2021, 1, 1), False, None, "GP")
        assert ",V," in generate(fix, SentenceKind.RMC)

    def test_nsat_formatting(self):
        fix = GnssFix(0, None, True, 12, "GP")
        assert ",12," in generate(fix, SentenceKind.GGA)


def reference_generate(fix: GnssFix, kind: SentenceKind) -> str:
    """Whole-sentence rendering: join every field, then checksum."""
    s, frac = divmod(fix.tod_ns, 10**9)
    tod = f"{s // 3600:02d}{s // 60 % 60:02d}{s % 60:02d}.{frac // 10**6:03d}"
    d = fix.date
    if kind is SentenceKind.RMC:
        fields = [tod, "A" if fix.fix_valid else "V", "", "", "", "", "", "",
                  f"{d.day:02d}{d.month:02d}{d.year % 100:02d}", "", ""]
    else:
        fields = [tod, "", "", "", "", "1" if fix.fix_valid else "0",
                  f"{fix.nsat:02d}", "", "", "M", "", "M"]
    payload = ",".join((fix.talker + kind.value, *fields))
    return f"${payload}*{xor_oracle(payload)}"


class TestGenerateMatchesReference:
    @given(TODS, DATES, st.booleans(), st.integers(1, 32), TALKERS,
           st.sampled_from([SentenceKind.RMC, SentenceKind.GGA]))
    @settings(max_examples=300)
    def test_cached_frames_render_the_same_bytes(self, tod, date, valid,
                                                 nsat, talker, kind):
        fix = GnssFix(tod, date, valid, nsat, talker)
        assert generate(fix, kind) == reference_generate(fix, kind)

    def test_other_kinds_rejected(self):
        fix = GnssFix(0, datetime.date(2021, 1, 1), True, 8, "GP")
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

    def test_xor_tables_match_per_call_checksum(self):
        # Every second of a day at the millisecond edges, each with a
        # sub-millisecond remainder that the field truncates.
        for s in range(86_400):
            h, m, sec = s // 3600, s // 60 % 60, s % 60
            for ms, sub_ns in ((0, 0), (1, 999_999), (999, 999_999)):
                text = f"{h:02d}{m:02d}{sec:02d}.{ms:03d}"
                tod_ns = s * 10**9 + ms * 10**6 + sub_ns
                assert nmea._time_field.__wrapped__(tod_ns) == \
                    (text, int(checksum(text), 16))
        assert nmea._time_field(86_399_999_999_999)[0] == "235959.999"

    def test_xor_tables_equal_the_checksums_of_their_strings(self):
        assert nmea._PAIRS_XOR == [int(checksum(f"{i:02d}"), 16)
                                   for i in range(100)]
        assert nmea._MILLIS_XOR == [int(checksum(f".{i:03d}"), 16)
                                    for i in range(1000)]

    def test_sentence_never_names_a_time_ahead(self):
        fix = GnssFix(59_999_700_000, datetime.date(2021, 1, 1), True, None,
                      "GP")
        back = extract_fix(parse_sentence(generate(fix, SentenceKind.RMC)))
        assert back.tod_ns == 59_999_000_000


def _bursts(seconds, nsats, delays):
    """The burst columns of a run (arrival times, seconds and satellite
    counts): one burst per second, each arriving inside its second."""
    return ([s * 10**9 + d for s, d in zip(seconds, delays)], list(seconds),
            list(nsats))


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
        path.write_text("".join(nmea.format_log(*bursts, mask)))
        want = [(rx, s * 10**9, nsat >= nmea.MIN_FIX_NSAT)
                for rx, s, nsat in zip(*bursts) for _ in ("RMC", "GGA")]
        assert nmea.read_log(path, 80.0) == want

    @pytest.mark.parametrize("mask", [frozenset({"GPS"}),
                                      frozenset({"BEIDOU"}),
                                      frozenset(scenario.CONSTELLATIONS)])
    def test_blocks_match_per_line_rendering(self, mask):
        # Past a block boundary and across midnight (86 399 -> 86 401,
        # where the date changes), with the satellite count changing.
        seconds = range(86_401 - nmea.CSV_BLOCK - 4, 86_402)
        nsats = [(8, 3, 0, 12, 4)[s % 5] for s in seconds]
        bursts = _bursts(seconds, nsats, [s % 7 * 10**8 for s in seconds])
        talker = {"GPS": "GP", "BEIDOU": "GB"}.get(",".join(mask), "GN")
        want = []
        for rx, s, nsat in zip(*bursts):
            day, tod = divmod(s, 86_400)
            date = nmea.SIM_EPOCH_DATE + datetime.timedelta(days=day)
            hms = f"{tod // 3600:02d}{tod // 60 % 60:02d}{tod % 60:02d}.000"
            valid = nsat >= nmea.MIN_FIX_NSAT
            for payload in (
                    f"{talker}RMC,{hms},{'A' if valid else 'V'},,,,,,,"
                    f"{date:%d%m%y},,",
                    f"{talker}GGA,{hms},,,,,{int(valid)},{nsat:02d},,,M,,M"):
                want.append(f"{rx} ${payload}*{checksum(payload)}\n")
        blocks = list(nmea.format_log(*bursts, mask))
        assert len(blocks) == 2
        assert "".join(blocks) == "".join(want)

    def test_time_field_formatted_once_per_burst(self):
        nmea._time_field.cache_clear()
        text = "".join(nmea.format_log(
            *_bursts([1, 2, 3], [8, 8, 2], [0, 0, 0]), frozenset({"GPS"})))
        assert len(text.splitlines()) == 6
        assert nmea._time_field.cache_info().misses == 3

    def test_bare_sentences_arrive_after_the_assumed_latency(self, tmp_path):
        path = tmp_path / "nmea.log"
        text = "".join(nmea.format_log(*_bursts([5], [8], [0]),
                                       frozenset({"GPS"})))
        path.write_text("".join(line.partition(" ")[2] + "\n"
                                for line in text.splitlines()))
        assert nmea.read_log(path, 12.5) == \
            [(5_012_500_000, 5 * 10**9, True)] * 2

    def test_unsorted_arrivals_rejected(self, tmp_path):
        path = tmp_path / "nmea.log"
        path.write_text("".join(nmea.format_log(
            [3 * 10**9, 2 * 10**9], [2, 3], [8, 8], frozenset({"GPS"}))))
        where = re.escape(str(path))
        with pytest.raises(ValueError,
                           match=f"^{where}: arrivals not time-sorted$"):
            nmea.read_log(path, 80.0)

    def test_first_defect_is_reported(self, tmp_path):
        path = tmp_path / "nmea.log"
        path.write_text("5 $GPRMC,bad*01\n6 \u00b0\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=":1: checksum 01 != computed 00$"):
            nmea.read_log(path, 80.0)
        path.write_text("$GPGSV,1,1,00*79\n6 \u00b0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: non-ASCII byte$"):
            nmea.read_log(path, 80.0)

    @pytest.mark.parametrize("payload", [
        "GPRMC,235960.000,A,,,,,,,010121,,",
        "GPGGA,000001.000,,,,,1,-1,,,M,,M",
    ], ids=["time-of-day-past-the-day", "negative-satellite-count"])
    def test_field_out_of_range_names_its_line(self, tmp_path, payload):
        path = tmp_path / "nmea.log"
        path.write_text(f"{make_line(RMC_PAYLOAD)}\n{make_line(payload)}\n")
        where = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{where}:2: "):
            nmea.read_log(path, 80.0)


    @pytest.mark.parametrize("payload, message", [
        ("GPRMC,+1+100.000,A,,,,,,,010121,,",
         "bad time-of-day field '+1+100.000'"),
        ("GPRMC,00001_0,A,,,,,,,010121,,", "bad time-of-day field '00001_0'"),
        ("GPRMC, 1 100.5,A,,,,,,,010121,,",
         "bad time-of-day field ' 1 100.5'"),
        ("GPGGA,083559.000,,,,,+1,0_8,,,M,,M",
         "bad GGA quality/satellite fields"),
        ("GPRMC,083600.,A,,,,,,,160321,,", "bad time-of-day field '083600.'"),
        ("GPZDA,083600.000,+7,03,2021,00,00", "bad ZDA date fields"),
    ], ids=["signed-time", "underscored-time", "spaced-time",
            "signed-gga-fields", "time-with-bare-point", "signed-zda-day"])
    def test_number_fields_take_ascii_digits_only(self, tmp_path, payload,
                                                  message):
        # int() and float() alone would take each of these fields.
        path = tmp_path / "nmea.log"
        path.write_text(f"{make_line(RMC_PAYLOAD)}\n{make_line(payload)}\n")
        where = re.escape(str(path))
        with pytest.raises(ValueError, match=f"^{where}:2: "
                           f"{re.escape(message)}$"):
            nmea.read_log(path, 80.0)

    @pytest.mark.parametrize("field, tod_ns", [
        ("083600", 30_960 * 10**9), ("083600.5", 30_960_500_000_000),
        ("083600.000000001", 30_960_000_000_001)])
    def test_time_field_grammar(self, field, tod_ns):
        fix = extract_fix(parse_sentence(make_line(
            f"GPRMC,{field},A,,,,,,,160321,,")))
        assert fix.tod_ns == tod_ns

    def test_read_log_parses_through_the_module(self, tmp_path,
                                                monkeypatch):
        # The benchmark's tracer wraps both functions on the module: read_log
        # must look them up there at each line, once per sentence line.
        calls = {"parse_sentence": 0, "extract_fix": 0}
        for name in calls:
            real = getattr(nmea, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(nmea, name, spy)
        path = tmp_path / "nmea.log"
        text = "".join(nmea.format_log(*_bursts([7, 8, 9], [8, 2, 8],
                                                [0, 0, 0]),
                                       frozenset({"GPS"})))
        path.write_text("$GPGSV,1,1,00*79\n" + text)
        assert len(nmea.read_log(path, 80.0)) == 6
        assert calls == {"parse_sentence": 7, "extract_fix": 6}


class TestFixInvariants:
    def test_absolute_second(self):
        fix = GnssFix(3 * 10**9, datetime.date(2021, 1, 2), True, None, "GP")
        got = nmea.absolute_second_ns(fix)
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
