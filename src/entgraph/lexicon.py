"""WordNet database-file reader for hyponym and troponym lookups.

Reads the standard plain-text dictionary files (index.noun, data.noun,
index.verb, data.verb) directly, with no external library or process.
Only what negative-question generation needs is extracted: for each lemma,
the words of the synsets reached by hyponym pointers ("~", and "~i" for
instances) from its first sense. Data files are parsed line-wise and
synsets keyed by their offset token, so files work whether or not their
byte offsets are meaningful.
"""

from __future__ import annotations

from pathlib import Path

from .model import TypedPredicate

HYPONYM_POINTERS = {"~", "~i"}
# the files ``LexicalResource.from_wordnet_dir`` reads
WORDNET_FILES = ("index.noun", "data.noun", "index.verb", "data.verb")


class _Synset:
    def __init__(self, offset: str, words: list[str], hyponym_offsets: list[str]):
        self.offset = offset
        self.words = words
        self.hyponym_offsets = hyponym_offsets


def _parse_data_file(path: Path) -> dict[str, _Synset]:
    synsets: dict[str, _Synset] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(" ") or not line.strip():
                continue  # license header
            body = line.split("|", 1)[0].split()
            # offset lex_filenum ss_type w_cnt (word lex_id)*w_cnt p_cnt ptrs...
            offset = body[0]
            w_cnt = int(body[3], 16)
            pos = 4
            words = []
            for _ in range(w_cnt):
                words.append(body[pos])
                pos += 2  # word, lex_id
            p_cnt = int(body[pos])
            pos += 1
            hyponyms = []
            for _ in range(p_cnt):
                symbol, target, _pos_tag, _src = body[pos:pos + 4]
                if symbol in HYPONYM_POINTERS:
                    hyponyms.append(target)
                pos += 4
            synsets[offset] = _Synset(offset, words, hyponyms)
    return synsets


def _parse_index_file(path: Path) -> dict[str, list[str]]:
    """lemma -> synset offsets in sense order."""
    entries: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(" ") or not line.strip():
                continue
            fields = line.split()
            lemma = fields[0]
            synset_cnt = int(fields[2])
            p_cnt = int(fields[3])
            offsets = fields[4 + p_cnt + 2:]
            if len(offsets) != synset_cnt:
                raise ValueError(f"{path}: bad index line for {lemma!r}")
            entries[lemma] = offsets
    return entries


def _clean(word: str) -> str:
    # collocations use underscores in the dictionary; predicates use dots
    return word.lower().replace("_", ".")


class LexicalResource:
    """First-sense hyponym/troponym maps over a WordNet-format dictionary."""

    def __init__(
        self,
        noun_hyponyms: dict[str, list[str]],
        verb_troponyms: dict[str, list[str]],
    ):
        self.noun_hyponyms = noun_hyponyms
        self.verb_troponyms = verb_troponyms

    @classmethod
    def from_wordnet_dir(cls, directory: str | Path) -> "LexicalResource":
        directory = Path(directory)
        maps = {}
        for pos in ("noun", "verb"):
            index = _parse_index_file(directory / f"index.{pos}")
            data = _parse_data_file(directory / f"data.{pos}")
            table: dict[str, list[str]] = {}
            for lemma, offsets in index.items():
                subs: list[str] = []
                for offset in offsets[:1]:  # the first sense only
                    synset = data.get(offset)
                    if synset is None:
                        continue
                    for target in synset.hyponym_offsets:
                        for word in data[target].words:
                            cleaned = _clean(word)
                            if cleaned != lemma and cleaned not in subs:
                                subs.append(cleaned)
                if subs:
                    table[_clean(lemma)] = subs
            maps[pos] = table
        return cls(maps["noun"], maps["verb"])

    @classmethod
    def fixture(cls) -> "LexicalResource":
        from . import resources

        return cls.from_wordnet_dir(resources.fixture_wordnet_dir())

    def substitutes_for_predicate(
        self, predicate: TypedPredicate
    ) -> list[tuple[str, str]]:
        """More-specific replacement lemmas for a predicate.

        Copular predicates (be.X) look up noun hyponyms of the complement
        head; verbal predicates look up troponyms of the head verb and
        keep any particle ("receive.from" -> "inherit.from"). Returns
        (replacement_lemma, relation_tag) pairs; empty when the resource
        has nothing for the lemma.
        """
        segments = predicate.lemma.split(".")
        if segments[0] == "be" and len(segments) > 1:
            head = segments[-1]
            out = []
            for sub in self.noun_hyponyms.get(head, []):
                lemma = ".".join(segments[:-1] + [sub])
                out.append((lemma, f"hyponym:{head}->{sub}"))
            return out
        head = segments[0]
        particles = segments[1:]
        out = []
        for sub in self.verb_troponyms.get(head, []):
            lemma = ".".join([sub] + particles)
            out.append((lemma, f"troponym:{head}->{sub}"))
        return out
