import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kusent import normalize
from kusent.normalize import (
    NormalizationRules,
    default_rules,
    load_rules,
    normalize_stream,
    normalize_text,
    save_rules,
)

# Documented unification pairs: Arabic Kaf -> Keheh, Arabic Yeh -> Farsi Yeh.
MAPPING_PAIRS = [("ك", "ک"), ("ي", "ی")]


def test_kaf_unification():
    assert normalize_text("ك") == "ک"


def test_yeh_unification():
    assert normalize_text("ي") == "ی"


def test_empty_input_is_identity():
    assert normalize_text("") == ""


def test_whitespace_collapse():
    assert normalize_text("a  b ") == "a b"


@pytest.mark.parametrize("raw, out, passes", [
    ("ک a", "ک a", 1),  # already normalized: the first pass is the fixpoint check
    ("", "", 1),
    ("ك  a", "ک a", 2),  # a changed line is passed once more to confirm the fixpoint
    (" a", "a", 2),
])
def test_unchanged_line_takes_one_pass(monkeypatch, raw, out, passes):
    calls = []
    one_pass = normalize._one_pass

    def counting_pass(text, rules):
        calls.append(text)
        return one_pass(text, rules)

    monkeypatch.setattr(normalize, "_one_pass", counting_pass)
    assert normalize_text(raw) == out
    assert len(calls) == passes


def test_digit_unification_to_ascii():
    assert normalize_text("١٢۳") == "123"


def test_digit_policy_arabic():
    rules = NormalizationRules(digit_policy="arabic")
    assert normalize_text("12", rules) == "١٢"


def test_digit_policy_keep():
    rules = NormalizationRules(digit_policy="keep")
    assert normalize_text("1١۱", rules) == "1١۱"


def test_tatweel_and_zwnj_stripped():
    assert normalize_text("aـb‌c") == "abc"


def test_diacritics_stripped():
    assert normalize_text("بَاْ") == "با"


def test_final_heh_off_by_default():
    assert normalize_text("سه") == "سه"


def test_final_heh_flag():
    rules = NormalizationRules(final_heh_to_ae=True)
    out = normalize_text("سه هس", rules)
    assert out == "سە هس"


def test_rules_reject_replacement_that_is_a_source():
    with pytest.raises(ValueError, match="mapped source"):
        NormalizationRules(char_map={"a": "b", "b": "c"})


def test_rules_reject_replacement_in_strip_set():
    with pytest.raises(ValueError, match="stripped code point"):
        NormalizationRules(char_map={"a": "ـ"})


def test_rules_reject_bad_digit_policy():
    with pytest.raises(ValueError, match="digit_policy"):
        NormalizationRules(digit_policy="roman")


def test_normalize_stream_drops_empty_lines():
    assert list(normalize_stream(["x", "", "y"])) == ["x", "y"]


def test_normalize_stream_yeh():
    assert list(normalize_stream(["ي"])) == ["ی"]


def test_normalize_stream_preserves_order():
    lines = [f"w{i}" for i in range(50)]
    assert list(normalize_stream(lines)) == lines


def test_rules_file_round_trip(tmp_path):
    rules = default_rules()
    path = tmp_path / "default.rules"
    save_rules(rules, str(path))
    loaded = load_rules(str(path))
    assert loaded.char_map == rules.char_map
    assert loaded.strip_set == rules.strip_set
    assert loaded.digit_policy == rules.digit_policy


def test_rules_file_failed_overwrite_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "default.rules"
    save_rules(default_rules(), str(path))
    old = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_rules(NormalizationRules(digit_policy="keep"), str(path))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["default.rules"]

def test_rules_file_parsing(tmp_path):
    path = tmp_path / "custom.rules"
    path.write_text("# comment\nmap 0041 0042 0043\nstrip 005A\ndigits keep\n")
    rules = load_rules(str(path))
    assert normalize_text("AZ", rules) == "BC"
    assert rules.digit_policy == "keep"


def test_rules_file_bad_directive_names_line(tmp_path):
    path = tmp_path / "bad.rules"
    path.write_text("map 0041 0042\nfrob 1234\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_rules(str(path))


ARABIC_SCRIPT = (
    [chr(c) for c in range(0x0621, 0x0653)]
    + [chr(c) for c in range(0x0660, 0x066A)]
    + [chr(c) for c in range(0x06A0, 0x06D6)]
    + [chr(c) for c in range(0x06F0, 0x06FA)]
    + list("abcdefgh0123456789 \tـ‌​.?!")
)


def _fuzz_corpus(n_lines, seed=20240801):
    rng = random.Random(seed)
    lines = []
    for _ in range(n_lines):
        length = rng.randrange(0, 80)
        lines.append("".join(rng.choice(ARABIC_SCRIPT) for _ in range(length)))
    return lines


def test_idempotence_on_fuzz_corpus():
    rules = default_rules()
    for line in _fuzz_corpus(10_000):
        once = normalize_text(line, rules)
        assert normalize_text(once, rules) == once


def test_no_strip_set_survivors_on_fuzz_corpus():
    rules = default_rules()
    for line in _fuzz_corpus(10_000, seed=7):
        out = normalize_text(line, rules)
        assert not (set(out) & rules.strip_set)
        assert "  " not in out
        assert out == out.strip()


def test_length_monotone_under_strip_only_rules():
    rules = NormalizationRules(char_map={}, digit_policy="keep")
    for line in _fuzz_corpus(2_000, seed=11):
        out = normalize_text(line, rules)
        assert len(out) <= len(line)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_idempotence_arbitrary_unicode(s):
    rules = default_rules()
    once = normalize_text(s, rules)
    assert normalize_text(once, rules) == once


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_determinism(s):
    assert normalize_text(s) == normalize_text(s)
