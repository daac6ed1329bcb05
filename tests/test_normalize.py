import os
import random
import unicodedata

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
from kusent.normalize import _default_strip_set

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


def count_passes(monkeypatch):
    """Record the text of every ``_one_pass`` call from here on."""
    calls = []
    one_pass = normalize._one_pass

    def counting_pass(text, rules):
        calls.append(text)
        return one_pass(text, rules)

    monkeypatch.setattr(normalize, "_one_pass", counting_pass)
    return calls


@pytest.mark.parametrize("raw, out, passes", [
    ("ک a", "ک a", 1),  # already normalized: the first pass is the fixpoint check
    ("", "", 1),
    ("ك  a", "ک a", 1),  # a changed line whose output is NFC is the fixpoint too
    (" a", "a", 1),
    # stripping the tatweel leaves alef + hamza above, which NFC composes to
    # U+0623 only in the second pass; the third confirms
    ("\u0627\u0640\u0654", "\u0623", 3),
])
def test_unchanged_line_takes_one_pass(monkeypatch, raw, out, passes):
    calls = count_passes(monkeypatch)
    assert normalize_text(raw) == out
    assert len(calls) == passes


def test_rules_that_rewrite_space_confirm_the_fixpoint(monkeypatch):
    rules = NormalizationRules(strip_set=_default_strip_set() | {" "})
    calls = count_passes(monkeypatch)
    assert normalize_text("a b", rules) == "ab"
    assert len(calls) == 2


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


def oracle_normalize_text(raw, rules):
    """The normalizer as whole passes repeated until one changes nothing, each
    rewriting through ``str.translate``."""
    table = {ord(c): None for c in rules.strip_set}
    table.update({ord(src): repl for src, repl in rules.char_map.items()})
    table.update({ord(src): repl for src, repl in rules._digit_map().items()})

    def one_pass(text):
        text = unicodedata.normalize("NFC", text).translate(table)
        text = " ".join(text.split())
        if rules.final_heh_to_ae and "ه" in text:
            text = " ".join(w[:-1] + "ە" if w.endswith("ه") else w for w in text.split(" "))
        return text

    text = one_pass(raw)
    if text == raw:
        return text
    for _ in range(normalize._MAX_PASSES - 1):
        nxt = one_pass(text)
        if nxt == text:
            return text
        text = nxt
    raise ValueError("normalization did not converge; rule table is pathological")


RULE_TABLES = {
    "default": NormalizationRules(),
    "digits_arabic": NormalizationRules(digit_policy="arabic"),
    "keep_final_heh": NormalizationRules(digit_policy="keep", final_heh_to_ae=True),
    "decomposing_map": NormalizationRules(char_map={"ي": "ی", "ك": "ک", "\u00e9": "e\u0301"}),
    "strips_space": NormalizationRules(strip_set=_default_strip_set() | {" "}),
    "empty": NormalizationRules(char_map={}, strip_set=set(), digit_policy="keep"),
}

# Arabic script plus what the tables above rewrite or compose: hamza and
# maddah above and below, é and its decomposition, other whitespace and two
# stripped code points.
ORACLE_ALPHABET = ARABIC_SCRIPT + list("\u0653\u0654\u0655\u00e9e\u0301\u00a0\u2028\n\r\ufeff\x01")


def outcome(fn, raw, rules):
    try:
        return fn(raw, rules)
    except ValueError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("name", list(RULE_TABLES))
def test_one_scan_matches_oracle_on_fuzz_corpus(name):
    rules = RULE_TABLES[name]
    rng = random.Random(name)
    for _ in range(3_000):
        raw = "".join(rng.choice(ORACLE_ALPHABET) for _ in range(rng.randrange(0, 40)))
        assert outcome(normalize_text, raw, rules) == outcome(oracle_normalize_text, raw, rules), raw


@pytest.mark.parametrize("name", list(RULE_TABLES))
def test_one_scan_matches_oracle_on_every_table_key(name):
    rules = RULE_TABLES[name]
    keys = set(rules.strip_set) | set(rules.char_map) | set(rules._digit_map())
    for key in sorted(keys):
        raw = f"a{key}b {key}ه"
        assert normalize_text(raw, rules) == oracle_normalize_text(raw, rules), f"U+{ord(key):04X}"


@pytest.mark.parametrize("name", list(RULE_TABLES))
@given(s=st.text(alphabet=st.one_of(st.sampled_from(ORACLE_ALPHABET), st.characters()), max_size=60))
@settings(max_examples=150, deadline=None)
def test_one_scan_matches_oracle_on_arbitrary_text(name, s):
    rules = RULE_TABLES[name]
    assert outcome(normalize_text, s, rules) == outcome(oracle_normalize_text, s, rules)


def test_pass_cap_error_matches_oracle(monkeypatch):
    monkeypatch.setattr(normalize, "_MAX_PASSES", 2)
    raw = "\u0627\u0640\u0654"  # takes 3 passes
    with pytest.raises(ValueError, match="did not converge"):
        normalize_text(raw)
    assert outcome(normalize_text, raw, default_rules()) == outcome(oracle_normalize_text, raw, default_rules())
