"""Seeded synthetic inputs for the three benchmark workloads.

Every workload is one Collect-then-Score pipeline over a generated corpus:
mock replies plant the candidate ("llm") spans as surface strings, so
`spanagree annotate --mock` turns them into a campaign, and
`spanagree evaluate` scores that campaign against a generated gold
campaign. The workload profile decides which layer carries the work.

Counts that drive cost (examples, spans per side, routes, truncated
replies, bad items) are fixed multisets that the seed only shuffles, so
different seeds cost about the same; the seed moves positions, words and
categories. The program receives only the files written by `write_inputs`.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# Pseudo-words from a fixed generator, independent of the workload seed.
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_VOCAB_RNG = random.Random(20250411)
VOCAB = sorted({
    "".join(_VOCAB_RNG.choice(_SYLLABLES) for _ in range(_VOCAB_RNG.randint(2, 4)))
    for _ in range(3000)
})

# Torn-cache operation: a fixed corpus that does not depend on the seed.
TORN_SEED = 7
TORN_EXAMPLES = 12


@dataclass(frozen=True)
class Span:
    start: int
    end: int
    category: int
    surface: str
    reason: str = ""


@dataclass
class Example:
    id: str
    text: str
    source: str | None
    gold: list[Span]
    llm: list[Span]
    replies: list[str] = field(default_factory=list)
    truncated_first: bool = False
    identical: bool = False


@dataclass
class Workload:
    name: str
    task: str
    variant: str
    examples: list[Example]

    def write_inputs(self, root: Path, categories: Path) -> None:
        """Write corpus, category file, gold campaign, replies and config."""
        root.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(categories, root / "categories.json")
        with open(root / "corpus.jsonl", "w", encoding="utf-8") as handle:
            for ex in self.examples:
                row = {"id": ex.id, "text": ex.text, "task": self.task}
                if ex.source is not None:
                    row["source"] = ex.source
                handle.write(json.dumps(row, ensure_ascii=False) + "\n")
        with open(root / "gold.jsonl", "w", encoding="utf-8") as handle:
            for ex in self.examples:
                anns = [{"start": s.start, "end": s.end, "type": s.category}
                        for s in sorted(ex.gold, key=_key)]
                handle.write(json.dumps(
                    {"example_id": ex.id, "annotator_id": "gold", "annotations": anns}
                ) + "\n")
        with open(root / "replies.jsonl", "w", encoding="utf-8") as handle:
            for ex in self.examples:
                handle.write(json.dumps(
                    {"example_id": ex.id, "replies": ex.replies}, ensure_ascii=False
                ) + "\n")
        # A warm resume gets no replies at all: any request it sends fails.
        (root / "no_replies.jsonl").write_text("", encoding="utf-8")
        config = {
            "corpus": "corpus.jsonl",
            "categories": "categories.json",
            "campaigns": {"gold": "gold.jsonl", "llm": "out/campaign.jsonl"},
            "output_dir": "out",
            "cache": "cache.jsonl",
            "annotator": {
                "annotator_id": "llm",
                "model_id": "mock-model",
                "variant": self.variant,
                "schema_mode": "freeform",
                "max_retries": 3,
                # The mock adapter waits on nothing, so a second worker would
                # only contend for the interpreter lock: on 2 vCPUs that made
                # the cold annotate's wall time spread twice as wide.
                "concurrency": 1,
                "provider": {"kind": "mock", "replies": "replies.jsonl"},
            },
            "metrics": {"gamma": {"n_samples": 30, "seed": 42}},
        }
        (root / "run.json").write_text(json.dumps(config, indent=2), encoding="utf-8")


def _key(span: Span) -> tuple[int, int, int]:
    return (span.start, span.end, span.category)


def _words(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(VOCAB) for _ in range(n)]


def _offsets(words: list[str]) -> list[int]:
    out, pos = [], 0
    for w in words:
        out.append(pos)
        pos += len(w) + 1
    return out


def _unique(text: str, start: int, end: int) -> bool:
    surface = text[start:end]
    return text.find(surface) == start and text.find(surface, start + 1) == -1


def _pick_span(rng, text, offsets, words, lo_words, hi_words, taken, no_overlap):
    """A word-aligned span whose surface occurs exactly once in the text."""
    for _ in range(1000):
        n = rng.randint(lo_words, hi_words)
        i = rng.randint(0, len(words) - n)
        start = offsets[i]
        end = offsets[i + n - 1] + len(words[i + n - 1])
        if (start, end) in taken or not _unique(text, start, end):
            continue
        if no_overlap and any(s < end and start < e for s, e in taken):
            continue
        taken.add((start, end))
        return start, end
    raise RuntimeError("could not place a unique span; text too short")


def _spans(rng, text, offsets, words, count, k, lo, hi, no_overlap):
    taken: set[tuple[int, int]] = set()
    out = []
    for _ in range(count):
        start, end = _pick_span(rng, text, offsets, words, lo, hi, taken, no_overlap)
        out.append(Span(start, end, rng.randrange(k), text[start:end]))
    return out


def _derive(rng, gold, text, offsets, words, count, k, lo, hi, no_overlap):
    """Candidate spans: part of gold with jittered bounds or flipped
    categories, the rest placed at random."""
    taken: set[tuple[int, int]] = set()
    out = []
    starts = {o: i for i, o in enumerate(offsets)}
    for g in rng.sample(gold, min(len(gold), (count * 2) // 3)):
        first = starts[g.start]
        last = first + len(g.surface.split()) - 1
        first = min(len(words) - 1, max(0, first + rng.randint(-1, 1)))
        last = min(len(words) - 1, max(first, last + rng.randint(-1, 1)))
        start, end = offsets[first], offsets[last] + len(words[last])
        if (start, end) in taken or not _unique(text, start, end):
            continue
        if no_overlap and any(s < end and start < e for s, e in taken):
            continue
        taken.add((start, end))
        cat = g.category if rng.random() < 0.75 else rng.randrange(k)
        out.append(Span(start, end, cat, text[start:end]))
    while len(out) < count:
        start, end = _pick_span(rng, text, offsets, words, lo, hi, taken, no_overlap)
        out.append(Span(start, end, rng.randrange(k), text[start:end]))
    return out


def _with_reasons(rng, spans):
    return [Span(s.start, s.end, s.category, s.surface,
                 " ".join(_words(rng, rng.randint(4, 9)))) for s in spans]


def _payload(items: list[dict]) -> str:
    return json.dumps({"annotations": items}, ensure_ascii=False)


def _item(span: Span) -> dict:
    return {"reason": span.reason, "text": span.surface, "type": span.category}


def _cycle(values: list[int], n: int, rng: random.Random) -> list[int]:
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _flags(n: int, count: int, rng: random.Random) -> list[bool]:
    out = [i < count for i in range(n)]
    rng.shuffle(out)
    return out


def evaluate_dense(seed: int, n: int = 60) -> Workload:
    """Propaganda-style: long texts, 4-20 overlapping spans per side over
    18 categories, a few empty sides and planted identical pairs."""
    rng = random.Random(seed)
    k = 18
    # route patterns: 2 examples with an empty llm side, 1 with an empty
    # gold side, 1 with both empty, 6 planted identical pairs.
    patterns = ["llm0"] * 2 + ["gold0"] + ["both0"] + ["same"] * 6
    patterns += ["full"] * (n - len(patterns))
    # The solver's cost grows with both sides' counts together, so the
    # (pattern, gold count, llm count) triples are one fixed multiset that
    # the seed only shuffles; shuffled apart, their pairing alone moved
    # the evaluate's CPU time by 15% between seeds.
    rows = [(pattern, 4 + i % 17, 4 + (7 * i + 3) % 17) for i, pattern in enumerate(patterns)]
    rng.shuffle(rows)
    examples = []
    for i, (pattern, gold_count, llm_count) in enumerate(rows):
        words = _words(rng, rng.randint(280, 360))
        text = " ".join(words)
        offsets = _offsets(words)
        g_n = 0 if pattern in ("gold0", "both0") else gold_count
        gold = _spans(rng, text, offsets, words, g_n, k, 2, 14, False)
        if pattern == "same":
            llm = list(gold)
        elif pattern in ("llm0", "both0"):
            llm = []
        else:
            llm = _derive(rng, gold, text, offsets, words, llm_count, k, 2, 14, False)
        llm = _with_reasons(rng, llm)
        ex = Example(f"pd{i:04d}", text, None, gold, llm, identical=pattern == "same")
        ex.replies = [_payload([_item(s) for s in llm])]
        examples.append(ex)
    return Workload("evaluate-dense", "propaganda", "base", examples)


def evaluate_sparse(seed: int, n: int = 2000) -> Workload:
    """MT-style on the bundled 2-category no-overlap inventory: short
    texts, most sides empty, 1-3 spans otherwise."""
    rng = random.Random(seed)
    k = 2
    # 45% both empty, 15% gold only, 15% llm only, 25% both non-empty
    quota = {"both0": 45, "gold": 15, "llm": 15, "both": 25}
    patterns = [p for p, share in quota.items() for _ in range(n * share // 100)]
    patterns += ["both"] * (n - len(patterns))
    rng.shuffle(patterns)
    counts = _cycle([1, 2, 3], 2 * n, rng)
    examples = []
    for i in range(n):
        words = _words(rng, rng.randint(10, 22))
        text = " ".join(words)
        offsets = _offsets(words)
        source = " ".join(_words(rng, rng.randint(8, 20)))
        pattern = patterns[i]
        g_n = counts[2 * i] if pattern in ("gold", "both") else 0
        l_n = counts[2 * i + 1] if pattern in ("llm", "both") else 0
        gold = _spans(rng, text, offsets, words, g_n, k, 1, 3, True)
        llm = _derive(rng, gold, text, offsets, words, l_n, k, 1, 3, True)
        ex = Example(f"mt{i:05d}", text, source, gold, llm)
        ex.replies = [_payload([{"text": s.surface, "type": s.category} for s in llm])]
        examples.append(ex)
    return Workload("evaluate-sparse", "mt", "base", examples)


def _truncated_reasoning(rng: random.Random, length: int) -> str:
    """A reasoning reply cut off mid-output: an unclosed <think> block
    of JSON drafts whose braces never close."""
    parts = ["<think>Drafting the annotations. "]
    size = len(parts[0])
    while size < length:
        piece = rng.choice([
            '{"annotations": [',
            '{"a": ',
            '{"text": "' + rng.choice(VOCAB) + '", "type": {',
        ])
        parts.append(piece)
        size += len(piece)
    return "".join(parts)[:length]


def annotate_mock(seed: int, n: int = 400, truncated: int = 10,
                  unmatched: int = 24, bad_category: int = 24) -> Workload:
    """d2t-style Collect run with the cot variant: <think> blocks, a few
    unmatched surfaces and out-of-range categories, and a few examples
    whose first reply is a truncated reasoning output."""
    rng = random.Random(seed)
    k = 6
    gold_counts = _cycle([0, 1, 2, 3, 4, 5], n, rng)
    llm_counts = _cycle([0, 1, 2, 3, 4, 5], n, rng)
    same = _flags(n, n // 10, rng)
    trunc = _flags(n, truncated, rng)
    bad_slots = ["unmatched"] * unmatched + ["category"] * bad_category
    bad_at = [rng.randrange(n) for _ in bad_slots]
    examples = []
    for i in range(n):
        words = _words(rng, rng.randint(40, 80))
        text = " ".join(words)
        offsets = _offsets(words)
        source = json.dumps({w: rng.randint(0, 99) for w in _words(rng, 6)})
        gold = _spans(rng, text, offsets, words, gold_counts[i], k, 2, 6, False)
        if same[i]:
            llm = list(gold)
        else:
            llm = _derive(rng, gold, text, offsets, words, llm_counts[i], k, 2, 6, False)
        llm = _with_reasons(rng, llm)
        items = [_item(s) for s in llm]
        for slot, where in zip(bad_slots, bad_at):
            if where != i:
                continue
            if slot == "unmatched":
                # upper-case letters never occur in generated texts
                bad = {"reason": "not in the text", "type": rng.randrange(k),
                       "text": " ".join(_words(rng, 2)).upper() + " Q"}
            else:
                bad = {"reason": "unknown category", "text": llm[0].surface if llm
                       else text[: offsets[1] - 1], "type": k + rng.randrange(3)}
            items.insert(rng.randint(0, len(items)), bad)
        thoughts = " ".join(_words(rng, rng.randint(20, 60)))
        reply = f"<think>{thoughts}</think>\n{_payload(items)}"
        ex = Example(f"d2t{i:04d}", text, source, gold, llm,
                     truncated_first=trunc[i], identical=same[i] and bool(gold))
        ex.replies = [_truncated_reasoning(rng, 4000), reply] if trunc[i] else [reply]
        examples.append(ex)
    return Workload("annotate-mock", "d2t", "cot", examples)


def torn_cache_corpus() -> Workload:
    """Small fixed d2t corpus for the torn-cache resume."""
    return annotate_mock(TORN_SEED, n=TORN_EXAMPLES, truncated=0, unmatched=0,
                         bad_category=0)


GENERATORS = {
    "evaluate-dense": evaluate_dense,
    "evaluate-sparse": evaluate_sparse,
    "annotate-mock": annotate_mock,
}
