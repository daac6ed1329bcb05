"""Time `train_wordpiece` up to the paper's 50k-piece vocabulary, and `encode` with it.

Generates a seeded corpus in-process (no download): a lexicon of distinct
Central Kurdish-script words built from random syllables, every word used at
least once, plus Zipf-distributed repeats. Then trains 5k and 50k pieces in
separate calls and prints seconds per 1k merges and the time to each size.
With each trained vocabulary it encodes the whole corpus five times at
``max_len`` 128, where no line is cut, and prints the lines and words
encoded per second in the median pass; then five times at ``max_len`` 16,
where lines are cut and the words past the cut are never segmented, with the
share of lines cut. Last comes the process's peak RSS.

    PYTHONPATH=src python tools/time_wordpiece.py
"""

from __future__ import annotations

import random
import resource
import statistics
import time

from kusent.wordpiece import CONTINUATION_PREFIX, SPECIAL_TOKENS, encode, train_wordpiece

CONSONANTS = "بپتجچحخدرڕزژسشعغفڤقکگلڵمنهھ"
VOWELS = "اوۆەیێ"
WORDS = 54_000
SEED = 0
SIZES = (5_000, 50_000)
MAX_LEN = 128
TRUNCATING_MAX_LEN = 16
ENCODE_PASSES = 5


def generate_corpus(n_words: int, seed: int, words_per_line: int = 12) -> list[str]:
    """Lines holding ``n_words`` distinct words, each at least once, plus as many Zipf repeats."""
    rng = random.Random(seed)
    lexicon: dict[str, None] = {}
    while len(lexicon) < n_words:
        syllables = rng.randint(1, 4)
        word = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) + rng.choice(["", rng.choice(CONSONANTS)])
                       for _ in range(syllables))
        lexicon.setdefault(word, None)
    words = list(lexicon)
    weights = [1.0 / (rank + 1) for rank in range(len(words))]
    tokens = words + rng.choices(words, weights=weights, k=len(words))
    rng.shuffle(tokens)
    return [" ".join(tokens[i:i + words_per_line]) for i in range(0, len(tokens), words_per_line)]


def main() -> None:
    corpus = generate_corpus(WORDS, SEED)
    alphabet = {ch if pos == 0 else CONTINUATION_PREFIX + ch
                for line in corpus for word in line.split() for pos, ch in enumerate(word)}
    minimum = len(SPECIAL_TOKENS) + len(alphabet)
    n_words = sum(len(line.split()) for line in corpus)
    print(f"corpus: {len(corpus)} lines, {n_words} words, {WORDS} distinct, {minimum} specials + alphabet")
    for size in SIZES:
        started = time.perf_counter()
        vocab = train_wordpiece(corpus, vocab_size=size)
        seconds = time.perf_counter() - started
        merges = len(vocab) - minimum
        print(f"{size} pieces: {len(vocab)} reached in {seconds:.2f} s, "
              f"{1000 * seconds / merges:.3f} s per 1k merges")
        for max_len in (MAX_LEN, TRUNCATING_MAX_LEN):
            passes = []
            for _ in range(ENCODE_PASSES):
                started = time.perf_counter()
                cut = sum(encode(line, vocab, max_len).overflow for line in corpus)
                passes.append(time.perf_counter() - started)
            seconds = statistics.median(passes)
            print(f"{size} pieces: encode max_len {max_len}: {len(corpus) / seconds:,.0f} lines/s, "
                  f"{n_words / seconds:,.0f} words/s, {cut / len(corpus):.1%} of lines cut "
                  f"(median of {ENCODE_PASSES} passes)")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
