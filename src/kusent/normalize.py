"""Character-level cleaning and unification of Central Kurdish text.

Arabic-script Kurdish text in the wild mixes Arabic and Farsi code points for
the same letters (Kaf/Yeh), carries tatweel and diacritics, and uses three
digit systems. The normalizer applies a deterministic rule table so that
downstream tokenization sees one spelling per word.

The default table covers the uncontroversial unifications only; the full rule
inventory is site-specific, so rules load from a plain-text file and callers
can override everything.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .checkpoint import atomic_write_text, text_lines

DIGIT_POLICIES = ("ascii", "arabic", "keep")

_ASCII_DIGITS = "0123456789"
_ARABIC_INDIC_DIGITS = "".join(chr(0x0660 + i) for i in range(10))
_EXT_ARABIC_INDIC_DIGITS = "".join(chr(0x06F0 + i) for i in range(10))

RULES_VERSION = 1

# Stripping can make previously separated code points adjacent, and NFC may
# then compose them into a new character. A pass whose output is NFC is
# already the fixpoint unless the table rewrites U+0020 (see normalize_text);
# any other output is passed again until it stops changing, at most this many
# passes in all. Converges in 2-3 passes for anything non-pathological.
_MAX_PASSES = 10


def _default_char_map() -> dict[str, str]:
    return {
        "ي": "ی",  # Arabic Yeh -> Farsi Yeh
        "ك": "ک",  # Arabic Kaf -> Keheh
    }


def _default_strip_set() -> set[str]:
    strip = {"ـ", "‌"}  # tatweel, zero-width non-joiner
    strip.update(chr(c) for c in range(0x064B, 0x0653))  # Arabic diacritics
    strip.add("​")  # zero-width space
    strip.add("﻿")  # BOM
    # C0 controls except tab/newline/CR, which whitespace collapse absorbs
    strip.update(chr(c) for c in range(0x00, 0x20) if chr(c) not in "\t\n\r")
    return strip


@dataclass(frozen=True)
class NormalizationRules:
    """One character-rewrite rule set: map, strip, digit policy, whitespace collapse.

    ``final_heh_to_ae`` optionally rewrites word-final U+0647 to U+06D5 (the
    Kurdish AE vowel). It is context-sensitive and off by default.
    """

    char_map: dict[str, str] = field(default_factory=_default_char_map)
    strip_set: set[str] = field(default_factory=_default_strip_set)
    digit_policy: str = "ascii"
    final_heh_to_ae: bool = False

    def __post_init__(self) -> None:
        if self.digit_policy not in DIGIT_POLICIES:
            raise ValueError(
                f"digit_policy must be one of {DIGIT_POLICIES}, got {self.digit_policy!r}"
            )
        for src in self.char_map:
            if len(src) != 1:
                raise ValueError(f"char_map source must be a single code point, got {src!r}")
        effective = dict(self.char_map)
        effective.update(self._digit_map())
        if self.final_heh_to_ae:
            effective["ه"] = "ە"
        # No replacement may reintroduce a mapped source or a stripped code
        # point: guarantees the rule pass itself is one-pass idempotent.
        for src, repl in effective.items():
            for ch in repl:
                if ch in effective:
                    raise ValueError(
                        f"replacement for U+{ord(src):04X} contains mapped source U+{ord(ch):04X}"
                    )
                if ch in self.strip_set:
                    raise ValueError(
                        f"replacement for U+{ord(src):04X} contains stripped code point U+{ord(ch):04X}"
                    )
        # The word-final heh rule is context-sensitive and applied separately;
        # the table holds only position-independent rewrites, a stripped code
        # point rewritten to "". One character class of its keys finds them.
        table = dict.fromkeys(self.strip_set, "")
        table.update(self.char_map)
        table.update(self._digit_map())
        keys = re.compile("[" + re.escape("".join(table)) + "]") if table else None
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_keys", keys)

    def _digit_map(self) -> dict[str, str]:
        if self.digit_policy == "keep":
            return {}
        if self.digit_policy == "ascii":
            target = _ASCII_DIGITS
            sources = (_ARABIC_INDIC_DIGITS, _EXT_ARABIC_INDIC_DIGITS)
        else:  # arabic
            target = _ARABIC_INDIC_DIGITS
            sources = (_ASCII_DIGITS, _EXT_ARABIC_INDIC_DIGITS)
        out: dict[str, str] = {}
        for src in sources:
            for s, t in zip(src, target):
                out[s] = t
        return out


def default_rules() -> NormalizationRules:
    return NormalizationRules()


def _one_pass(text: str, rules: NormalizationRules) -> str:
    text = unicodedata.normalize("NFC", text)
    keys, table = rules._keys, rules._table  # type: ignore[attr-defined]
    if keys is not None:
        text = keys.sub(lambda m: table[m[0]], text)
    text = " ".join(text.split())
    if rules.final_heh_to_ae and "ه" in text:
        text = " ".join(
            w[:-1] + "ە" if w.endswith("ه") else w for w in text.split(" ")
        )
    return text


def normalize_text(raw: str, rules: NormalizationRules | None = None) -> str:
    """Normalize one string: NFC, rule table, digit policy, whitespace collapse.

    One pass reaches the fixpoint when it changes nothing, or when its output
    is NFC and the table has no entry for U+0020. A pass leaves no table key
    (no replacement holds one, and U+06D5 of the heh rewrite is none), and the
    collapse leaves no whitespace but single U+0020s, so then only NFC could
    change the line again. Otherwise passes repeat until one changes nothing.
    """
    if rules is None:
        rules = default_rules()
    text = _one_pass(raw, rules)
    if text == raw:  # a pass that changes nothing has reached the fixpoint
        return text
    if " " not in rules._table and unicodedata.is_normalized("NFC", text):  # type: ignore[attr-defined]
        return text
    for _ in range(_MAX_PASSES - 1):
        nxt = _one_pass(text, rules)
        if nxt == text:
            return text
        text = nxt
    raise ValueError("normalization did not converge; rule table is pathological")


def normalize_stream(
    lines: Iterable[str], rules: NormalizationRules | None = None
) -> Iterator[str]:
    """Normalize a line sequence, dropping lines that normalize to empty."""
    if rules is None:
        rules = default_rules()
    for lineno, line in enumerate(lines, start=1):
        try:
            out = normalize_text(line, rules)
        except Exception as exc:  # surface the offending line
            raise ValueError(f"normalization failed at line {lineno}: {exc}") from exc
        if out:
            yield out


def _char(hex_text: str) -> str:
    """The character at a hex code point; a ValueError outside 0..10FFFF or at a surrogate."""
    code = int(hex_text, 16)
    if not 0 <= code <= 0x10FFFF:
        raise ValueError(f"code point {hex_text} is outside 0..10FFFF")
    if 0xD800 <= code <= 0xDFFF:
        raise ValueError(f"code point {hex_text} is a surrogate")
    return chr(code)


def load_rules(path: str) -> NormalizationRules:
    """Parse a rules file: `map <hex> <hex...>`, `strip <hex>`, `digits ascii|arabic|keep`.

    Lines starting with `#` are comments. Later `map` lines override earlier
    ones for the same source.
    """
    char_map: dict[str, str] = {}
    strip_set: set[str] = set()
    digit_policy = "ascii"
    for lineno, raw_line in enumerate(text_lines(path), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        directive = parts[0]
        try:
            if directive == "map":
                if len(parts) < 3:
                    raise ValueError("map needs a source and at least one target")
                char_map[_char(parts[1])] = "".join(_char(p) for p in parts[2:])
            elif directive == "strip":
                if len(parts) != 2:
                    raise ValueError("strip needs exactly one code point")
                strip_set.add(_char(parts[1]))
            elif directive == "digits":
                if len(parts) != 2 or parts[1] not in DIGIT_POLICIES:
                    raise ValueError(f"digits needs one of {DIGIT_POLICIES}")
                digit_policy = parts[1]
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return NormalizationRules(
        char_map=char_map, strip_set=strip_set, digit_policy=digit_policy
    )


def save_rules(rules: NormalizationRules, path: str) -> None:
    lines = [f"# normalization rules, version {RULES_VERSION}"]
    for src, repl in rules.char_map.items():
        targets = " ".join(f"{ord(c):04X}" for c in repl)
        lines.append(f"map {ord(src):04X} {targets}")
    for ch in sorted(rules.strip_set):
        lines.append(f"strip {ord(ch):04X}")
    lines.append(f"digits {rules.digit_policy}")
    atomic_write_text(path, "\n".join(lines) + "\n")
