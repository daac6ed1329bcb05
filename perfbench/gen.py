"""Seeded input generation for the pipeline benchmark.

Every input file of a run is a pure function of (workload, size, seed): the
same seed gives byte-identical files, another seed gives different ones.
The program under test only ever sees these files.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Central Kurdish letters (Arabic script, Sorani orthography).
LETTERS = "ئابپتجچحخدرڕزژسشعغفڤقکگلڵمنوۆەهھیێ"
# Never in any training text: the held-out slice of `text` uses them to force UNK.
UNSEEN = "ثذصضطظ"
FOREIGN = "xqz@"  # a rare pretrain/classify word carries one, so it encodes as UNK
ARABIC_YEH, ARABIC_KAF, TATWEEL, ZWNJ = "ي", "ك", "ـ", "‌"
DIACRITICS = [chr(c) for c in range(0x064B, 0x0653)]
DIGIT_SETS = ["0123456789", "٠١٢٣٤٥٦٧٨٩", "۰۱۲۳۴۵۶۷۸۹"]
SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
LABELS = ["positive", "negative", "neutral"]
NOISY_VARIANTS = 4  # noisy spellings per lexicon word in `text`
NUMBERS = 300  # distinct numbers in `text`

# Shapes per size. `full` is what BENCHMARK.json runs; `smoke` keeps the same
# code paths at toy scale for the benchmark's own tests.
SIZES = {
    "full": {
        "bert": dict(hidden_size=384, num_hidden_layers=6, num_attention_heads=12,
                     intermediate_size=1536, vocab_size=8000),
        "batch_size": 12, "max_len": 128, "mask_rate": 0.15,
        "pretrain_lines": 24, "pretrain_tokens": (10, 170), "score_lines": 16,
        "classify_train": 16, "classify_test": 32, "classify_tokens": (4, 40),
        "text_lexicon": 2500, "text_lines": 6000, "text_heldout": 500,
        "text_words": (4, 16), "text_vocab": 300, "text_max_len": 64,
    },
    "smoke": {
        "bert": dict(hidden_size=16, num_hidden_layers=1, num_attention_heads=2,
                     intermediate_size=32, vocab_size=300),
        "batch_size": 4, "max_len": 32, "mask_rate": 0.15,
        "pretrain_lines": 8, "pretrain_tokens": (2, 40), "score_lines": 4,
        "classify_train": 6, "classify_test": 6, "classify_tokens": (2, 12),
        "text_lexicon": 80, "text_lines": 200, "text_heldout": 20,
        "text_words": (2, 8), "text_vocab": 120, "text_max_len": 16,
    },
}

WORKLOADS = ("pretrain", "classify", "text")


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _random_string(rng, letters: str, lo: int, hi: int) -> str:
    return "".join(letters[i] for i in rng.integers(0, len(letters), size=int(rng.integers(lo, hi + 1))))


def make_vocab_pieces(rng, size: int) -> list[str]:
    """A generated (not trained) WordPiece vocabulary of exactly ``size`` pieces.

    Every letter exists as an initial and a ``##`` continuation piece; all
    other pieces are exactly three letters. Greedy longest-match therefore
    splits a word glued from three-letter pieces back into those pieces, so
    the generator knows every line's token count by construction.
    """
    pieces = list(SPECIALS) + list(LETTERS) + ["##" + ch for ch in LETTERS]
    seen = set(pieces)
    while len(pieces) < size:
        piece = _random_string(rng, LETTERS, 3, 3)
        if rng.random() < 0.5:
            piece = "##" + piece
        if piece not in seen:
            seen.add(piece)
            pieces.append(piece)
    return pieces


def _piece_lines(rng, pieces: list[str], n_lines: int, tokens: tuple[int, int]) -> list[str]:
    """Lines whose token counts are spread evenly over ``tokens`` (shuffled):
    the seed changes the words and the order, never the length profile.

    Words are one initial piece plus 0-3 continuation pieces; ~1% of words
    carry a foreign character and encode as a single UNK.
    """
    initial = [p for p in pieces[len(SPECIALS):] if not p.startswith("##") and len(p) == 3]
    cont = [p[2:] for p in pieces[len(SPECIALS):] if p.startswith("##") and len(p) == 5]
    targets = np.round(np.linspace(tokens[0], tokens[1], n_lines)).astype(int)
    lines = []
    for target in rng.permutation(targets):
        words, left = [], int(target)
        while left > 0:
            if rng.random() < 0.01:
                words.append(initial[int(rng.integers(len(initial)))] + FOREIGN[int(rng.integers(len(FOREIGN)))])
                left -= 1
                continue
            k = min(left, int(rng.integers(1, 5)))
            word = initial[int(rng.integers(len(initial)))]
            word += "".join(cont[int(i)] for i in rng.integers(0, len(cont), size=k - 1))
            words.append(word)
            left -= k
        lines.append(" ".join(words))
    return lines


def _write_encoder(directory: str, rng, bert: dict) -> None:
    """Random-init encoder checkpoint, written through the library's own writer."""
    from kusent.autodiff import Parameter
    from kusent.bert import BertConfig, ModelParams, expected_shapes, save_checkpoint

    config = BertConfig(**bert)
    params = []
    for name, shape in expected_shapes(config).items():
        if name.endswith(".gain"):
            data = np.ones(shape, dtype=np.float32)
        else:
            data = rng.standard_normal(shape, dtype=np.float32) * np.float32(0.02)
        params.append(Parameter(name, data))
    save_checkpoint(directory, ModelParams(config, params))


def _noisy_word(rng, word: str) -> str:
    """Surface noise the normalizer must undo: letter variants, tatweel, ZWNJ, diacritics."""
    out = []
    for ch in word:
        if ch == "ی" and rng.random() < 0.3:
            ch = ARABIC_YEH
        elif ch == "ک" and rng.random() < 0.3:
            ch = ARABIC_KAF
        out.append(ch)
        roll = rng.random()
        if roll < 0.03:
            out.append(TATWEEL)
        elif roll < 0.05:
            out.append(ZWNJ)
        elif roll < 0.08:
            out.append(DIACRITICS[int(rng.integers(len(DIACRITICS)))])
    return "".join(out)


def _noisy_lines(rng, lexicon, probs, n_lines, words_range, unseen=False) -> list[str]:
    """Zipf-sampled lines; each lexicon word appears in a few noisy spellings,
    ~3% of words are numbers in one of three digit systems, and words are
    separated by runs of spaces or tabs."""
    variants = [[_noisy_word(rng, word) for _ in range(NOISY_VARIANTS)] for word in lexicon]
    numbers = [_random_string(rng, DIGIT_SETS[i % 3], 1, 3) for i in range(NUMBERS)]
    lo, hi = words_range
    # A fixed length profile, shuffled: the seed changes the words, not their number.
    counts = np.round(np.linspace(lo, hi, n_lines)).astype(int)
    counts[::50] *= 6  # 2% of lines overflow max_len
    counts = rng.permutation(counts)
    picks = rng.choice(len(lexicon), size=int(counts.sum()), p=probs)
    rolls = rng.random((int(counts.sum()), 4))
    seps = rng.integers(0, 4, size=int(counts.sum()))
    lines = []
    offset = 0
    for n in counts:
        words = []
        for idx, (r_num, r_var, r_unseen, r_sep) in zip(picks[offset:offset + n], rolls[offset:offset + n]):
            if r_num < 0.03:
                words.append(numbers[int(r_var * NUMBERS)])
                continue
            word = variants[int(idx)][int(r_var * NOISY_VARIANTS)]
            if unseen and r_unseen < 0.1:
                pos = int(r_unseen * 10 * (len(word) + 1))
                word = word[:pos] + UNSEEN[int(r_sep * len(UNSEEN))] + word[pos:]
            words.append(word)
        lines.append("".join(w + ("\t" if s == 0 else " " * int(s))
                             for w, s in zip(words, seps[offset:offset + n])).rstrip())
        offset += n
    return lines


def generate(workload: str, size: str, seed: int, out_dir: str) -> None:
    """Write the inputs of one run into ``out_dir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = SIZES[size]
    os.makedirs(out_dir, exist_ok=True)
    rng = rng_for(workload, seed)
    bert = dict(shape["bert"], batch_size=shape["batch_size"], epochs=1)
    config = {"seed": seed, "bert": bert,
              "pretrain": {"max_len": shape["max_len"], "mask_rate": shape["mask_rate"]},
              "train": {"num_classes": 3}}

    if workload in ("pretrain", "classify"):
        pieces = make_vocab_pieces(rng, bert["vocab_size"])
        _write_lines(os.path.join(out_dir, "vocab.txt"), pieces)
    if workload == "pretrain":
        corpus = _piece_lines(rng, pieces, shape["pretrain_lines"], shape["pretrain_tokens"])
        score = _piece_lines(rng, pieces, shape["score_lines"], shape["pretrain_tokens"])
        _write_lines(os.path.join(out_dir, "corpus.txt"), corpus)
        _write_lines(os.path.join(out_dir, "score.txt"), score)
    elif workload == "classify":
        _write_encoder(os.path.join(out_dir, "encoder"), rng, shape["bert"])
        for name, n in (("train", shape["classify_train"]), ("test", shape["classify_test"])):
            lines = _piece_lines(rng, pieces, n, shape["classify_tokens"])
            rows = [f"{line}\t{LABELS[i % 3]}" for i, line in enumerate(lines)]
            _write_lines(os.path.join(out_dir, f"{name}.tsv"), rows)
    else:
        # The lexicon and its Zipf ranks are part of the workload, like the
        # language of a corpus: tokenizer training cost depends on which
        # words exist and how often. The seed draws the text from it.
        lexicon_rng = np.random.default_rng(np.random.SeedSequence([WORKLOADS.index("text")]))
        lexicon = sorted({_random_string(lexicon_rng, LETTERS, 2, 8) for _ in range(shape["text_lexicon"])})
        lexicon_rng.shuffle(lexicon)
        probs = 1.0 / np.arange(1, len(lexicon) + 1)
        probs /= probs.sum()
        corpus = _noisy_lines(rng, lexicon, probs, shape["text_lines"], shape["text_words"])
        heldout = _noisy_lines(rng, lexicon, probs, shape["text_heldout"], shape["text_words"], unseen=True)
        _write_lines(os.path.join(out_dir, "corpus.txt"), corpus)
        _write_lines(os.path.join(out_dir, "heldout.txt"), heldout)
        config["tokenizer"] = {"vocab_size": shape["text_vocab"], "min_freq": 1}

    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True, indent=2)
