import json
import random
from copy import deepcopy
from fractions import Fraction

import pytest

from lyricmelody import (
    DecodeOptions,
    Melody,
    MelodyToken,
    TokenKind,
    UniformScorer,
    build_melody_vocabulary,
    default_reward_config,
    parse_lyrics,
    serialize_lyrics,
)
from lyricmelody.synthetic import random_lyrics


@pytest.fixture(scope="session")
def config():
    return default_reward_config()


@pytest.fixture
def tiny_lyrics():
    return parse_lyrics("ni3|W,K cai3|I hong2|I .")


@pytest.fixture
def two_sentence_lyrics():
    return parse_lyrics("ni3|W,K cai3|I hong2|I .\nni3|W,K cai3|I hong2|I .")


@pytest.fixture
def tiny_vocab():
    return build_melody_vocabulary((60, 63), [Fraction(1), Fraction(2)])


@pytest.fixture
def uniform_scorer(tiny_vocab):
    return UniformScorer(tiny_vocab)


def mk_melody(spec, time_signature=(4, 4)):
    """Compact melody builder: each item is (pitch, duration, starts) for a
    note or ('r', duration) for a rest."""
    tokens = []
    for item in spec:
        if item[0] == "r":
            tokens.append(MelodyToken(TokenKind.REST, Fraction(item[1])))
        else:
            pitch, duration = item[0], Fraction(item[1])
            starts = item[2] if len(item) > 2 else True
            tokens.append(MelodyToken(TokenKind.NOTE, duration, pitch, starts))
    return Melody(tuple(tokens), time_signature)


_RECASE = (str.lower, str.upper, str.title)

#: duration texts no loader reads: ``Fraction`` reads every one but the
#: last five, and ``str(Fraction)`` writes none of them
BAD_DURATION_TEXTS = ["1e3", "1e10000000", "1.5", "1_0", " 1", "1 ", "+1", "-1", "0x10",
                      "inf", "²", "1/0", "", "1/", "/2", "1/2/3"]
#: the JSON values other than strings that are no duration
BAD_DURATION_VALUES = [True, False, 0.1, 2.0, None, [1], {"n": 1}]


def repeat_layout_lyrics(rng, tonal, repeat):
    """1-3 random base sentences, each used once or, with ``repeat``, laid
    out in a random order that repeats some of them; every copy's syllable
    text is lower-, upper- or title-cased at random."""
    base = serialize_lyrics(
        random_lyrics(rng, sentences=rng.randint(1, 3), tonal=tonal)
    ).splitlines()
    order = list(range(len(base)))
    if repeat:
        order += rng.choices(order, k=rng.randint(1, 3))
        rng.shuffle(order)
    lines = []
    for b in order:
        *syllables, mark = base[b].split()
        recased = []
        for token in syllables:
            body, _, flags = token.partition("|")
            recased.append(f"{rng.choice(_RECASE)(body)}|{flags}")
        lines.append(" ".join(recased + [mark]))
    return parse_lyrics("\n".join(lines))


def json_nodes(doc, found=None):
    """Every (container, key) of a JSON document, depth first."""
    found = [] if found is None else found
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        found.append((doc, key))
        if isinstance(value, (dict, list)):
            json_nodes(value, found)
    return found


def mutated_json(rng, doc, values):
    """The JSON text of ``doc`` after 1-3 seeded mutations: a node replaced by
    one of ``values`` or, in an object, deleted; rarely the whole document
    replaced; and now and then one character of the text overwritten."""
    doc = deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        nodes = json_nodes(doc) if isinstance(doc, (dict, list)) else []
        if not nodes or rng.random() < 0.03:
            doc = rng.choice(values)
            continue
        container, key = rng.choice(nodes)
        if isinstance(container, dict) and rng.random() < 0.3:
            del container[key]
        else:
            container[key] = deepcopy(rng.choice(values))
    text = json.dumps(doc)
    if rng.random() < 0.05:
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice(["", "]", "{", ",", '"']) + text[cut + 1:]
    return text


@pytest.fixture
def rng():
    return random.Random(20240811)
