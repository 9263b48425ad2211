"""Independent reference implementations used as test oracles.

Deliberately simple re-statements of the decoding grammar and of the reward
rules: a plain beam search that knows nothing about rewards, a reward beam
search that builds every candidate in full before it cuts the beam (with
every move's events derived from the event model's static tables rather than
from its plan, and hard mode's mask read off those events), the two-stage
pipeline with its own pitch-filling loop over a rhythm skeleton, an
exhaustive enumerator of every complete token sequence, and a whole-pair
scan that derives every reward event (with its matched flag, harmony degree
and boundary kind) from the alignment, the ``Fraction`` beat grid and
sentence spans without the package's token-by-token event model, the
per-aspect and weighted reward totals summed in two loops, the n-gram
backoff probability evaluated one token and one backoff level at a time, a
MIDI reader that takes one byte slice at a time and a writer that counts
each token's ticks as a ``Fraction`` product, the seeded lyric sheet
written out as text and parsed back, the text parser as it read before its
one pass per line (three walks per line), the four event metrics
walked over the alignment (the strong/weak one read off the ``Fraction``
beat grid), and the repetition structure (structure matrix and PD/DD/MD)
taken from numbered sentence groups, with its own tuple-recurrence DTW and
``Fraction``-binned histogram.  Kept separate from the package so the
decoder, the reward fold, the scorer's suffix tables, the lyric and MIDI readers and
the metrics counted over reward events and anchored on repeats are checked
against a second, independently written route.
"""

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from lyricmelody import (
    END,
    AlignmentError,
    Aspect,
    BeatStrength,
    Intonation,
    Language,
    LyricFormatError,
    Melody,
    MelodyToken,
    MidiFormatError,
    RhythmToken,
    StressClass,
    StructureMatrix,
    TokenKind,
    Tone,
    WordPosition,
    detect_intonation,
    lyrics_from_json,
    parse_lyrics,
    pause_reward,
    pitch_contour_reward,
    pitch_shape_reward,
    pitch_transition_reward,
    strong_weak_reward,
    structure_reward,
)
from lyricmelody.decoder import (
    DecodeMode,
    DecodeOptions,
    DecodeResult,
    _Context,
    _Hypothesis,
    _VocabGroups,
    _group_vocab,
    _max_steps,
    score_decode,
)
from lyricmelody.lyrics import _MARK_TONE, TONAL_TONES, LyricSequence, Sentence, Syllable
from lyricmelody.melody import check_meter, strong_offsets
from lyricmelody.metrics import DEGREE_SCORES, EvaluationReport, _mean
from lyricmelody.rewards import (
    ALL_ASPECTS,
    BoundaryKind,
    HarmonyDegree,
    HarmonyTable,
    RewardConfig,
    RewardEvent,
    RewardSummary,
    _EventModel,
    _Plan,
    _State,
    contour_matches,
    weighted_total,
)
from lyricmelody.scorer import REST_MARK, ModelBundle, UniformScorer, Vocabulary, pitch_projection
from lyricmelody.synthetic import _EN_WORDS, _SYLLABLES


def ngram_prob(model, token, ctx):
    """P(token | ctx) under ``model``'s interpolated absolute discounting,
    recursing through every backoff level for this one token; a context
    missing from the counts passes all its mass to its suffix."""
    if ctx not in model.counts:
        if ctx:
            return ngram_prob(model, token, ctx[1:])
        return 1.0 / len(model.vocab)
    succ = model.counts[ctx]
    total = sum(succ.values())
    kept = max(succ.get(token, 0) - model.discount, 0.0) / total
    backoff_mass = model.discount * len(succ) / total
    if ctx:
        lower = ngram_prob(model, token, ctx[1:])
    else:
        lower = 1.0 / len(model.vocab)
    return kept + backoff_mass * lower


def _parts(tok):
    """(is_rest, starts_syllable) of a melody or rhythm token."""
    if tok.kind is TokenKind.REST:
        return True, False
    return False, tok.syllable_start


def legal_moves(vocab, state, n_syllables, max_notes):
    """state = (last started syllable, span open?, notes in span)."""
    syl, span_open, span_len = state
    moves = []
    for idx, tok in enumerate(vocab.tokens):
        if tok == END:
            if syl == n_syllables - 1:
                moves.append((idx, tok))
            continue
        is_rest, starts = _parts(tok)
        if is_rest:
            if syl >= 0 and span_open:
                moves.append((idx, tok))
        elif starts:
            if syl + 1 < n_syllables:
                moves.append((idx, tok))
        elif syl >= 0 and span_open and span_len < max_notes:
            moves.append((idx, tok))
    return moves


def advance(state, tok):
    syl, span_open, span_len = state
    is_rest, starts = _parts(tok)
    if is_rest:
        return (syl, False, span_len)
    if starts:
        return (syl + 1, True, 1)
    return (syl, True, span_len + 1)


def plain_beam_search(lyrics, scorer, width, max_notes=4):
    """Unconstrained beam search: ranks by base log-probability alone."""
    n = len(lyrics)
    vocab = scorer.vocab
    live = [(0.0, (), (), (-1, False, 0))]  # base, key, tokens, state
    best = None
    while live:
        pool = []
        for base, key, tokens, state in live:
            dist = scorer.log_prob_dist(tokens)
            for idx, tok in legal_moves(vocab, state, n, max_notes):
                new_base = base + dist[tok]
                if tok == END:
                    cand = (new_base, key, tokens)
                    if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
                        best = cand
                else:
                    pool.append((new_base, key + (idx,), tokens + (tok,), advance(state, tok)))
        pool.sort(key=lambda item: (-item[0], item[1]))
        live = pool[:width]
    assert best is not None
    return best[2]


def close_events(model, st):
    """The shape and contour events closing the open span of ``st``, when
    tone is one of ``model``'s active aspects."""
    out = []
    if Aspect.TONE in model.active and st.span_open:
        model._close(out, None, st.syl, st.span_pitches, st.sent_first)
    return [ev for _, ev in out]


def start_events(model, st, token):
    """The reward events a syllable start fires from state ``st`` of the
    event model ``model``, in canonical order: the events closing the open
    span, then transition, strong/weak, pause and structure.  Read off the
    model's static per-syllable tables (``cell``, ``sw``, ``pause``,
    ``partner``) without its plan; the jump is graded by scanning the
    harmony table's intervals, the beat is placed by the ``Fraction`` grid's
    rule (the state's ticks over the model's ticks per quarter), the echo by
    interval arithmetic."""
    config, active = model.config, model.active
    events = close_events(model, st)
    k = st.syl + 1
    if Aspect.TONE in active and model.cell[k] is not None:
        jump = token.pitch - st.span_pitches[0]
        intervals = config.harmony_table.cells[(model.tone[k - 1], model.tone[k])]
        graded = [d for lo, hi, d in intervals if lo <= jump <= hi]
        degree = graded[0] if graded else HarmonyDegree.BAD
        events.append(RewardEvent(
            "transition", Aspect.TONE, config.transition_rewards[degree],
            config.transition_rewards[HarmonyDegree.EXCELLENT],
            degree is HarmonyDegree.EXCELLENT, degree=degree))
    if Aspect.RHYTHM in active:
        if model.sw[k] is not None:
            weak, strong = model.sw[k]
            onset = Fraction(st.onset, model.scale)
            events.append(strong if beat_strength(model.time_signature, onset)
                          is BeatStrength.STRONG else weak)
        if st.span_open:  # no rest in the gap: only a long last note pauses
            no_pause, pause = model.pause[k]
            long_note = Fraction(st.last_duration, model.scale) >= config.long_note_threshold
            events.append(pause if long_note else no_pause)
    j = model.partner.get(k)
    if (Aspect.STRUCTURE in active and j is not None and st.span_pitches[-1] is not None
            and st.syl_delta[j] is not None):
        delta, anchor = token.pitch - st.span_pitches[-1], st.syl_delta[j]
        events.append(RewardEvent("structure", Aspect.STRUCTURE,
                                  structure_reward(delta, anchor, config),
                                  config.structure_reward_exact, delta == anchor))
    return events


def step_events(model, st, token):
    """The reward events of ``model``'s active aspects that ``token`` (or
    END) fires from state ``st``, in canonical order: a syllable start's
    from :func:`start_events`; END's close the open span; a rest's close it
    and pause the gap in front of the next syllable; a melisma continuation
    fires none."""
    if token == END:
        return close_events(model, st)
    if not token.is_note:
        events = close_events(model, st)
        if Aspect.RHYTHM in model.active and st.syl + 1 < model.n:
            events.append(model.pause[st.syl + 1][True])
        return events
    if token.syllable_start:
        return start_events(model, st, token)
    return []


def is_masked(events, active):
    """Hard-constraint rule: any triggered active sub-reward below its
    maximum disqualifies the candidate."""
    return any(ev.aspect in active and not ev.is_maximal for ev in events)


def build_child(ctx, h, idx, token, lp, events):
    """The child of ``h`` by ``token`` (vocabulary index ``idx``, base
    log-probability ``lp``, firing ``events``), built in full."""
    return _Hypothesis(
        tokens=h.tokens + (token,),
        key=h.key if token == END else h.key + (idx,),
        state=h.state if token == END else ctx.apply(h.state, token),
        base=h.base + lp,
        reward=weighted_total(events, ctx.config, ctx.active, h.reward),
    )


def reward_beam_search(ctx, scorer, width, hard):
    """Reward-augmented beam search that builds every legal candidate as a
    full hypothesis (prefix, key, state, events) and only then keeps the
    ``width`` best by (-score, key); hard mode drops masked candidates unless
    that would drop them all.  Returns (best completed hypothesis, steps that
    relaxed)."""
    groups = _group_vocab(scorer.vocab)
    live = [_Hypothesis(tokens=(), key=(), state=_State())]
    best = None
    relaxations = []
    for step in range(_max_steps(ctx)):
        pool = []
        for h in live:
            dist = scorer.log_prob_dist(h.tokens)
            moves = [(pos, token) for _, cls, _ in ctx.legal(h.state, groups)
                     for pos, token, _ in cls]
            for idx, token in moves:
                events = step_events(ctx, h.state, token)
                cand = build_child(ctx, h, idx, token, dist[token], events)
                if token != END:
                    pool.append((cand, events))
                elif best is None or (-cand.score, cand.key) < (-best.score, best.key):
                    best = cand
        if hard and pool:
            survivors = [item for item in pool if not is_masked(item[1], ctx.active)]
            if not survivors:
                relaxations.append(step)
                survivors = pool
            pool = survivors
        if not pool:
            break
        pool.sort(key=lambda item: (-item[0].score, item[0].key))
        live = [h for h, _ in pool[:width]]
    assert best is not None
    return best, tuple(relaxations)


def reference_sample(ctx, scorer, rng, top_k):
    """Top-k sampling that builds every legal candidate in full, sorts them
    all by ``(-score, key)`` and keeps the first ``top_k`` (END keeps its
    parent's key, so it ranks first on a tie), then softens them with the
    temperature and draws one from ``rng``, step by step until END."""
    groups = _group_vocab(scorer.vocab)
    h = _Hypothesis(tokens=(), key=(), state=_State())
    for _ in range(_max_steps(ctx)):
        dist = scorer.log_prob_dist(h.tokens)
        pool = [build_child(ctx, h, pos, token, dist[token], step_events(ctx, h.state, token))
                for _, cls, _ in ctx.legal(h.state, groups) for pos, token, _ in cls]
        kept = sorted(pool, key=lambda cand: (-cand.score, cand.key))[:top_k]
        weights = [math.exp((cand.score - kept[0].score) / ctx.options.temperature)
                   for cand in kept]
        total = 0.0
        for w in weights:
            total += w
        draw, cumulative, h = rng.random() * total, 0.0, kept[-1]
        for cand, w in zip(kept, weights):
            cumulative += w
            if draw < cumulative:
                h = cand
                break
        if h.tokens[-1] == END:
            return h
    raise AssertionError("sampling exceeded the grammar's step bound")


def rhythm_skeleton(tokens):
    """Per syllable, its note durations (with melisma) and the duration of
    the rest trailing it (None without one)."""
    groups, rests = [], []
    for tok in tokens:
        if not tok.is_note:
            assert groups and rests[-1] is None, "rest without a preceding syllable"
            rests[-1] = tok.duration
        elif tok.syllable_start:
            groups.append([tok.duration])
            rests.append(None)
        else:
            assert groups and rests[-1] is None, "continuation without an open syllable"
            groups[-1].append(tok.duration)
    return groups, rests


def skeleton_rhythm_tokens(groups, rests):
    """The rhythm tokens of a :func:`rhythm_skeleton`, in melody order."""
    out = []
    for group, trailing in zip(groups, rests):
        out.append(RhythmToken(TokenKind.NOTE, group[0], True))
        out.extend(RhythmToken(TokenKind.NOTE, d, False) for d in group[1:])
        if trailing is not None:
            out.append(RhythmToken(TokenKind.REST, trailing))
    return out


def reference_pitch_fill(ctx, pitch_scorer, slots, width):
    """Beam over pitch choices for each rhythm token of ``slots``, with a loop
    of its own that builds every candidate in full (as
    :func:`reward_beam_search` does) and sorts them by ``(-score, key)``:
    rests and the final END are forced and only shift probability mass, and
    the END step keeps the single best completion."""
    vocab = pitch_scorer.vocab
    pitches = [t for t in vocab.tokens if isinstance(t, int)]
    assert pitches and (REST_MARK in vocab or all(t.is_note for t in slots))
    live = [_Hypothesis(tokens=(), key=(), state=_State())]
    for slot in list(slots) + [None]:
        if slot is None:
            moves = [(-1, END, END)]
        elif not slot.is_note:
            moves = [(vocab.index_of(REST_MARK), MelodyToken(TokenKind.REST, slot.duration),
                      REST_MARK)]
        else:
            moves = [(vocab.index_of(p),
                      MelodyToken(TokenKind.NOTE, slot.duration, p, slot.syllable_start), p)
                     for p in pitches]
        pool = []
        for h in live:
            dist = pitch_scorer.log_prob_dist(tuple(map(pitch_projection, h.tokens)))
            pool.extend(build_child(ctx, h, idx, token, dist[key], step_events(ctx, h.state, token))
                        for idx, token, key in moves)
        pool.sort(key=lambda cand: (-cand.score, cand.key))
        live = pool[:1 if slot is None else width]
    return live[0]


def reference_decode_two_stage(lyrics, rhythm_scorer, pitch_scorer, config, options):
    """The rhythm-then-pitch pipeline with stage 1 from
    :func:`reward_beam_search`, its tokens turned into a rhythm skeleton and
    back, and stage 2 from :func:`reference_pitch_fill`."""
    stage1_ctx = _Context(lyrics, config, options, frozenset({Aspect.RHYTHM}) & options.active,
                          rhythm_scorer.vocab.tokens)
    stage1, _ = reward_beam_search(stage1_ctx, rhythm_scorer, options.beam_width, hard=False)
    groups, rests = rhythm_skeleton([t for t in stage1.tokens if t != END])
    assert len(groups) == len(lyrics)
    pitch_active = frozenset({Aspect.TONE, Aspect.STRUCTURE}) & options.active
    slots = skeleton_rhythm_tokens(groups, rests)
    # the stage's clock: every melody token a slot can take
    pitches = [t for t in pitch_scorer.vocab.tokens if isinstance(t, int)]
    emitted = [MelodyToken(slot.kind, slot.duration, p, slot.syllable_start) if slot.is_note
               else MelodyToken(slot.kind, slot.duration)
               for slot in slots for p in (pitches if slot.is_note else [None])]
    stage2_ctx = _Context(lyrics, config, options, pitch_active, emitted)
    stage2 = reference_pitch_fill(stage2_ctx, pitch_scorer, slots, options.beam_width)
    return DecodeResult(
        melody=Melody(tuple(t for t in stage2.tokens if t != END), options.time_signature),
        score=stage1.score + stage2.score,
        base_logprob=stage1.base + stage2.base,
        reward_total=stage1.reward + stage2.reward,
        mode=DecodeMode.TWO_STAGE,
        stage_scores={
            "rhythm": {"base": stage1.base, "reward": stage1.reward, "score": stage1.score},
            "pitch": {"base": stage2.base, "reward": stage2.reward, "score": stage2.score},
        },
    )


def enumerate_complete_sequences(vocab, n_syllables, max_notes):
    """Every legal complete token sequence (END excluded), with its key."""
    out = []

    def dfs(state, tokens, key):
        for idx, tok in legal_moves(vocab, state, n_syllables, max_notes):
            if tok == END:
                out.append((key, tokens))
            else:
                dfs(advance(state, tok), tokens + (tok,), key + (idx,))

    dfs((-1, False, 0), (), ())
    return out


def exhaustive_argmax(lyrics, scorer, config, active, max_notes, time_signature=(4, 4)):
    """Brute-force argmax of the combined score over all complete sequences,
    scored through the from-scratch rescoring route."""
    sequences = enumerate_complete_sequences(scorer.vocab, len(lyrics), max_notes)
    best = None
    for key, tokens in sequences:
        melody = Melody(tokens, time_signature)
        _, _, score = score_decode(lyrics, melody, scorer, config, active)
        cand = (score, key, tokens)
        if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
            best = cand
    assert best is not None
    return best


def replace(obj, **changes):
    """``obj`` with ``changes``: a record of the package builds it through its
    constructor, by its own ``__replace__`` (``copy.replace`` on Python 3.13)."""
    return obj.__replace__(**changes)


def _check_aligned(lyrics, melody):
    if melody.syllable_count != len(lyrics):
        raise AlignmentError(
            f"melody covers {melody.syllable_count} syllables, lyrics have {len(lyrics)}"
        )


@dataclass(frozen=True)
class BeatGrid:
    """Per-token bar offset and metrical strength."""

    onsets: tuple
    strengths: tuple
    bar_length: Fraction


def beat_strength(time_signature, onset):
    """The strength of an onset (in quarters from the start) in a meter."""
    num, den = time_signature
    bar = Fraction(4 * num, den)
    strong = onset % bar in strong_offsets(time_signature)
    return BeatStrength.STRONG if strong else BeatStrength.WEAK


def compute_beat_grid(melody):
    """Onset and strong/weak strength of every token: the reference clock.

    Onsets are running ``Fraction`` sums of the preceding durations, and
    the bar length is ``numerator * 4/denominator`` quarters.  The reward
    fold and the metrics count the same onsets in integer ticks; this
    exact-rational grid is what they are checked against.  Raises
    ValueError for a meter ``check_meter`` rejects.
    """
    check_meter(melody.time_signature)
    num, den = melody.time_signature
    bar = Fraction(num) * Fraction(4, den)
    onsets, strengths = [], []
    position = Fraction(0)
    for tok in melody.tokens:
        onsets.append(position % bar)
        strengths.append(beat_strength(melody.time_signature, position))
        position += tok.duration
    return BeatGrid(tuple(onsets), tuple(strengths), bar)


def is_long_note(token, config):
    """A note long enough to read as a phrase-ending hold (threshold inclusive)."""
    if not token.is_note:
        raise ValueError("is_long_note is defined for notes only")
    return token.duration >= config.long_note_threshold


#: Canonical intra-token ordering of reward events.
EVENT_RANK = {"shape": 0, "contour": 1, "transition": 2, "sw": 3, "pause": 4, "structure": 5}


def _previous_note_pitch(melody, token_index):
    for idx in range(token_index - 1, -1, -1):
        tok = melody.tokens[idx]
        if tok.is_note:
            return tok.pitch
    return None


def syllable_deltas(melody):
    """Per syllable, the jump from the previous note to the syllable's first
    note (None for the first note of the piece)."""
    deltas = []
    for start, _ in melody.alignment:
        prev = _previous_note_pitch(melody, start)
        deltas.append(None if prev is None else melody.tokens[start].pitch - prev)
    return deltas


def _shape_rule(tone, pitches):
    """Does a melisma's pitch flow match its tone (None for non-tonal
    tones)?  Level stays flat, rising never falls and ends higher, falling
    the mirror image, dipping has an interior low point below both ends
    (two notes: falls), light matches anything."""
    steps = [b - a for a, b in zip(pitches, pitches[1:])]
    if tone is Tone.TONE1:
        return len(set(pitches)) == 1
    if tone is Tone.TONE2:
        return min(steps) >= 0 and pitches[-1] > pitches[0]
    if tone is Tone.TONE4:
        return max(steps) <= 0 and pitches[-1] < pitches[0]
    if tone is Tone.TONE3:
        if len(pitches) == 2:
            return pitches[1] < pitches[0]
        return min(pitches[1:-1]) < min(pitches[0], pitches[-1])
    if tone is Tone.TONE5:
        return True
    return None


def _gap_kind(lyrics, k):
    """The boundary in front of syllable ``k``: a new sentence, a new word,
    or inside a word."""
    if lyrics.syllables[k].sentence_index != lyrics.syllables[k - 1].sentence_index:
        return BoundaryKind.SENTENCE_BOUNDARY
    if lyrics.syllables[k].word_position is WordPosition.WORD_START:
        return BoundaryKind.WORD_BOUNDARY
    return BoundaryKind.WORD_INNER


def scan_reward_events(lyrics, melody, config):
    """Every reward event of a complete pair, tagged with the token index it
    fires on (None = fires when the melody ends), sorted by (token position,
    canonical event order).  Rule by rule over the whole pair; each event's
    ``matched`` flag, harmony degree and boundary kind are decided here
    too, never read off its value."""
    _check_aligned(lyrics, melody)
    structure = reference_build_structure_matrix(lyrics)
    grid = compute_beat_grid(melody)
    deltas = syllable_deltas(melody)
    tonal = lyrics.language is Language.TONAL
    n_tokens = len(melody.tokens)
    events = []
    maxima = {  # what each rule pays on a match
        "shape": config.shape_reward_on_match,
        "contour": config.contour_reward_on_match,
        "transition": config.transition_rewards[HarmonyDegree.EXCELLENT],
        "sw": config.sw_reward_on_match,
        "pause": config.pause_reward_on_match,
        "structure": config.structure_reward_exact,
    }

    def add(anchor, kind, aspect, value, matched, **outcome):
        if value is not None:
            ev = RewardEvent(kind, aspect, value, maxima[kind], matched, **outcome)
            events.append((anchor, EVENT_RANK[kind], ev))

    def closer_of(k):
        stop = melody.alignment[k][1]
        return stop if stop < n_tokens else None

    # shape: fires where each multi-note span closes
    for k in range(len(lyrics)):
        pitches = melody.span_pitches(k)
        if len(pitches) >= 2:
            tone = lyrics.syllables[k].tone
            add(closer_of(k), "shape", Aspect.TONE,
                pitch_shape_reward(tone, pitches, config), _shape_rule(tone, pitches))

    # contour: fires where the sentence-final syllable's span closes
    for sent in lyrics.sentences:
        pitches = [p for k in range(*sent.span) for p in melody.span_pitches(k)]
        rise = pitches[-1] - pitches[0]
        add(closer_of(sent.span[1] - 1), "contour", Aspect.TONE,
            pitch_contour_reward(sent.intonation, pitches[0], pitches[-1], config),
            {Intonation.RISING: rise > 0, Intonation.FALLING: rise < 0}.get(sent.intonation, True))

    for k in range(len(lyrics)):
        first_idx = melody.alignment[k][0]
        syl = lyrics.syllables[k]

        # transition: adjacent same-sentence pair, first notes of each span
        if (
            tonal
            and k >= 1
            and lyrics.syllables[k - 1].sentence_index == syl.sentence_index
            and syl.tone in TONAL_TONES
            and lyrics.syllables[k - 1].tone in TONAL_TONES
        ):
            delta = melody.tokens[first_idx].pitch - melody.tokens[melody.alignment[k - 1][0]].pitch
            pair = (lyrics.syllables[k - 1].tone, syl.tone)
            intervals = config.harmony_table.cells.get(pair, ()) if config.harmony_table else ()
            degrees = [d for lo, hi, d in intervals if lo <= delta <= hi]
            degree = degrees[0] if degrees else HarmonyDegree.BAD
            add(first_idx, "transition", Aspect.TONE,
                pitch_transition_reward(pair, delta, config),
                degree is HarmonyDegree.EXCELLENT, degree=degree)

        # strong/weak: first note of each constrained word
        if syl.word_position is WordPosition.WORD_START:
            strength = grid.strengths[first_idx]
            add(first_idx, "sw", Aspect.RHYTHM,
                strong_weak_reward(syl.stress_class, strength, config),
                (syl.stress_class is StressClass.KEYWORD) == (strength is BeatStrength.STRONG))

        # pause: one event per gap, on the gap's rest if any, else here
        if k >= 1:
            prev_stop = melody.alignment[k - 1][1]
            kind = _gap_kind(lyrics, k)
            if prev_stop < first_idx and melody.tokens[prev_stop].kind is TokenKind.REST:
                anchor, has_pause = prev_stop, True
            else:
                anchor, has_pause = first_idx, is_long_note(melody.tokens[prev_stop - 1], config)
            # a pause belongs at a boundary; a sentence boundary needs one
            good = {BoundaryKind.WORD_INNER: not has_pause,
                    BoundaryKind.WORD_BOUNDARY: True,
                    BoundaryKind.SENTENCE_BOUNDARY: has_pause}[kind]
            add(anchor, "pause", Aspect.RHYTHM, pause_reward(has_pause, kind, config), good,
                boundary=kind)

        # structure: repeated position whose anchor interval is defined
        j = structure.partner.get(k)
        if j is not None and deltas[k] is not None and deltas[j] is not None:
            add(first_idx, "structure", Aspect.STRUCTURE,
                structure_reward(deltas[k], deltas[j], config), deltas[k] == deltas[j])

    events.sort(key=lambda item: (n_tokens if item[0] is None else item[0], item[1]))
    return [(anchor, ev) for anchor, _, ev in events]


def reference_score_rewards(lyrics, melody, config, active=ALL_ASPECTS):
    """(total, by_aspect) of a pair the two-loop way: a per-aspect dict of
    value sums, then ``weighted_total`` over the events of an uncached fold."""
    model = _EventModel(lyrics, config, ALL_ASPECTS, melody.time_signature)
    events = [ev for _, ev in model.fold(melody.tokens)]
    by_aspect = {a: 0.0 for a in Aspect}
    for ev in events:
        by_aspect[ev.aspect] += ev.value
    return weighted_total(events, config, active), by_aspect


def reference_matched_sw_ratio(lyrics, melody):
    """Matched keyword/auxiliary word starts over all of them, each read off
    the beat grid's strength at the word's first token; None without any."""
    _check_aligned(lyrics, melody)
    grid = compute_beat_grid(melody)
    total = matched = 0
    for k, syl in enumerate(lyrics.syllables):
        if syl.word_position is not WordPosition.WORD_START:
            continue
        if syl.stress_class is StressClass.NEUTRAL:
            continue
        total += 1
        strong = grid.strengths[melody.alignment[k][0]] is BeatStrength.STRONG
        if (syl.stress_class is StressClass.KEYWORD) == strong:
            matched += 1
    if total == 0:
        return None
    return matched / total


def reference_tone_transition_score(lyrics, melody, config):
    """Mean harmony-degree score over intra-sentence adjacent tone pairs,
    walked over the alignment; pairs the harmony table has no cell for are
    not scored."""
    _check_aligned(lyrics, melody)
    if lyrics.language is not Language.TONAL or config.harmony_table is None:
        return None
    scores = []
    for k in range(1, len(lyrics)):
        left, right = lyrics.syllables[k - 1], lyrics.syllables[k]
        if left.sentence_index != right.sentence_index:
            continue
        if left.tone not in TONAL_TONES or right.tone not in TONAL_TONES:
            continue
        delta = melody.tokens[melody.alignment[k][0]].pitch - melody.tokens[melody.alignment[k - 1][0]].pitch
        degree = config.harmony_table.degree_of(left.tone, right.tone, delta)
        if degree is not None:
            scores.append(DEGREE_SCORES[degree])
    if not scores:
        return None
    return _mean(scores)


def reference_tone_contour_score(lyrics, melody):
    """Fraction of sentences whose first-to-last pitch direction matches
    their intonation."""
    _check_aligned(lyrics, melody)
    matched = 0
    for sent in lyrics.sentences:
        pitches = [p for k in range(*sent.span) for p in melody.span_pitches(k)]
        if contour_matches(sent.intonation, pitches[0], pitches[-1]):
            matched += 1
    return matched / len(lyrics.sentences)


def reference_gap_has_pause(melody, gap, config):
    """True if the gap after syllable ``gap`` holds a rest or ends on a long note."""
    left_stop = melody.alignment[gap][1]
    right_start = melody.alignment[gap + 1][0]
    if any(t.kind is TokenKind.REST for t in melody.tokens[left_stop:right_start]):
        return True
    last_note = melody.tokens[left_stop - 1]
    return last_note.is_note and is_long_note(last_note, config)


def reference_matched_pause_ratio(lyrics, melody, config):
    """One minus the share of word-inner syllables preceded by a pause."""
    _check_aligned(lyrics, melody)
    inner = broken = 0
    for k in range(1, len(lyrics)):
        if lyrics.syllables[k].word_position is not WordPosition.WORD_INNER:
            continue
        inner += 1
        if reference_gap_has_pause(melody, k - 1, config):
            broken += 1
    if inner == 0:
        return None
    return 1.0 - broken / inner


def reference_sentence_groups(lyrics):
    """Per sentence, the number of its repeat group (groups numbered in order
    of first occurrence), or None when its lowercased text occurs once."""
    texts = [
        tuple(lyrics.syllables[k].text.lower() for k in range(*sent.span))
        for sent in lyrics.sentences
    ]
    numbers = {}
    groups = []
    for text in texts:
        if texts.count(text) < 2:
            groups.append(None)
            continue
        groups.append(numbers.setdefault(text, len(numbers)))
    return groups


def _group_anchors(lyrics):
    """(anchor sentence, repeat sentence) for every later member of a group."""
    first = {}
    for sent, group in zip(lyrics.sentences, reference_sentence_groups(lyrics)):
        if group is None:
            continue
        if group not in first:
            first[group] = sent
            continue
        yield first[group], sent


def reference_build_structure_matrix(lyrics):
    """Each syllable of a repeat paired with the same offset in its group's
    first sentence."""
    pairs = set()
    for anchor, sent in _group_anchors(lyrics):
        for offset in range(len(sent)):
            pairs.add((sent.span[0] + offset, anchor.span[0] + offset))
    return StructureMatrix(pairs=frozenset(pairs))


def reference_histogram_similarity(a, b):
    """Total-variation similarity of two samples binned by value (durations
    binned as their ``Fraction``): each bin's share in ``a`` minus its share
    in ``b``, added up in the order of the bins' text."""
    bins_a, bins_b = {}, {}
    for bins, sample in ((bins_a, a), (bins_b, b)):
        for value in sample:
            bins[value] = bins.get(value, 0) + 1
    total = 0.0
    for value in sorted(bins_a.keys() | bins_b.keys(), key=str):
        total += abs(bins_a.get(value, 0) / len(a) - bins_b.get(value, 0) / len(b))
    return 1.0 - 0.5 * total


def reference_melody_distance(a, b):
    """Unit-step DTW over |pitch_a - pitch_b|, each cell's best path kept as
    a (float cost, length) tuple and compared lexicographically, so the
    shortest of the minimal-cost paths wins; its mean cost per step."""
    above = []
    for i, pitch_a in enumerate(a):
        row = []
        for j, pitch_b in enumerate(b):
            if i == 0:
                prev = row[j - 1] if j else (0.0, 0)
            elif j == 0:
                prev = above[0]
            else:
                prev = min(above[j - 1], above[j], row[j - 1])
            row.append((prev[0] + abs(pitch_a - pitch_b), prev[1] + 1))
        above = row
    cost, length = above[-1]
    return cost / length


def reference_structure_similarity(lyrics, melody):
    """(PD, DD, MD) averaged over every repeat against its group's first
    sentence; all None when nothing repeats."""
    _check_aligned(lyrics, melody)

    def notes(sent):
        tokens = [t for k in range(*sent.span) for t in melody.span_notes(k)]
        return [t.pitch for t in tokens], [t.duration for t in tokens]

    pds, dds, mds = [], [], []
    for anchor, sent in _group_anchors(lyrics):
        (pitches_a, durs_a), (pitches_b, durs_b) = notes(anchor), notes(sent)
        pds.append(reference_histogram_similarity(pitches_a, pitches_b))
        dds.append(reference_histogram_similarity(durs_a, durs_b))
        mds.append(reference_melody_distance(pitches_a, pitches_b))
    if not pds:
        return (None, None, None)
    return (_mean(pds), _mean(dds), _mean(mds))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MidiFormatError("truncated MIDI file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def byte(self) -> int:
        return self.take(1)[0]

    def peek(self) -> int:
        if self.pos >= len(self.data):
            raise MidiFormatError("truncated MIDI file")
        return self.data[self.pos]

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.byte()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MidiFormatError("variable-length quantity longer than 4 bytes")


def _parse_track(reader: _Reader, length: int) -> list[tuple[int, str, tuple]]:
    """Return (tick, kind, payload) events from one MTrk chunk."""
    end = reader.pos + length
    events: list[tuple[int, str, tuple]] = []
    tick = 0
    status = None
    while reader.pos < end:
        tick += reader.vlq()
        first = reader.peek()
        if first >= 0x80:
            status = reader.byte()
        elif status is None:
            raise MidiFormatError("running status with no prior status byte")
        if status == 0xFF:
            meta = reader.byte()
            data = reader.take(reader.vlq())
            if meta == 0x05:
                events.append((tick, "lyric", (data.decode("utf-8", errors="replace"),)))
            elif meta == 0x58 and len(data) >= 2:
                events.append((tick, "timesig", (data[0], 1 << data[1])))
            elif meta == 0x2F:
                events.append((tick, "end", ()))
                break
            status = None  # meta events cancel running status
            continue
        if status in (0xF0, 0xF7):  # sysex
            reader.take(reader.vlq())
            status = None
            continue
        kind = status & 0xF0
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            d1, d2 = reader.byte(), reader.byte()
        elif kind in (0xC0, 0xD0):
            d1, d2 = reader.byte(), 0
        else:
            raise MidiFormatError(f"unexpected status byte 0x{status:02x}")
        if kind == 0x90 and d2 > 0:
            events.append((tick, "on", (d1,)))
        elif kind == 0x80 or (kind == 0x90 and d2 == 0):
            events.append((tick, "off", (d1,)))
    else:
        raise MidiFormatError("track chunk missing end-of-track event")
    reader.pos = end
    return events


def reference_read_midi(data: bytes) -> Melody:
    """Parse SMF bytes back into a Melody, one byte slice at a time.

    Rejects SMPTE timing, more than one note-bearing track, and any overlap
    between notes (polyphony).
    """
    reader = _Reader(data)
    if reader.take(4) != b"MThd":
        raise MidiFormatError("not a Standard MIDI File (missing MThd)")
    header_len = struct.unpack(">I", reader.take(4))[0]
    if header_len < 6:
        raise MidiFormatError("malformed MThd chunk")
    fmt, ntracks, division = struct.unpack(">HHH", reader.take(6))
    reader.take(header_len - 6)
    if fmt not in (0, 1):
        raise MidiFormatError(f"unsupported MIDI format {fmt}")
    if division & 0x8000:
        raise MidiFormatError("SMPTE timing is not supported")
    if division == 0:
        raise MidiFormatError("zero ticks-per-quarter division")

    tracks: list[list[tuple[int, str, tuple]]] = []
    for _ in range(ntracks):
        while True:
            chunk_id = reader.take(4)
            chunk_len = struct.unpack(">I", reader.take(4))[0]
            if chunk_id == b"MTrk":
                break
            reader.take(chunk_len)  # skip alien chunks
        tracks.append(_parse_track(reader, chunk_len))

    note_tracks = [t for t in tracks if any(kind == "on" for _, kind, _ in t)]
    if not note_tracks:
        raise MidiFormatError("no notes found in any track")
    if len(note_tracks) > 1:
        raise MidiFormatError("more than one note-bearing track is not supported")
    melodic = note_tracks[0]

    time_signature = (4, 4)
    for track in tracks:
        sigs = [payload for _, kind, payload in track if kind == "timesig"]
        if sigs:
            time_signature = sigs[0]
            break

    # note-offs sort before note-ons at the same tick so back-to-back notes
    # don't register as overlap
    order = {"off": 0, "lyric": 1, "on": 2, "timesig": 3, "end": 4}
    melodic.sort(key=lambda e: (e[0], order[e[1]]))

    lyric_at: dict[int, str] = {}
    notes: list[tuple[int, int, int]] = []  # (start_tick, end_tick, pitch)
    active: Optional[tuple[int, int]] = None  # (pitch, start_tick)
    end_tick = None
    for tick, kind, payload in melodic:
        if kind == "lyric":
            lyric_at[tick] = payload[0]
        elif kind == "on":
            if active is not None:
                raise MidiFormatError(
                    f"polyphony at tick {tick}: note {payload[0]} starts while "
                    f"note {active[0]} is sounding"
                )
            active = (payload[0], tick)
        elif kind == "off":
            if active is None or active[0] != payload[0]:
                raise MidiFormatError(f"unmatched note-off for pitch {payload[0]} at tick {tick}")
            if tick <= active[1]:
                raise MidiFormatError(f"zero-length note at tick {active[1]}")
            notes.append((active[1], tick, active[0]))
            active = None
        elif kind == "end":
            end_tick = tick
    if active is not None:
        raise MidiFormatError(f"note {active[0]} never receives a note-off")
    if not notes:
        raise MidiFormatError("no complete notes in melodic track")

    tokens: list[MelodyToken] = []
    prev_end = notes[0][0]  # leading silence is dropped
    for start, stop, pitch in notes:
        if start > prev_end:
            tokens.append(MelodyToken(TokenKind.REST, Fraction(start - prev_end, division)))
        text = lyric_at.get(start)
        starts_syllable = text != "-"
        tokens.append(
            MelodyToken(TokenKind.NOTE, Fraction(stop - start, division), pitch, starts_syllable)
        )
        prev_end = stop
    if end_tick is not None and end_tick > prev_end:
        tokens.append(MelodyToken(TokenKind.REST, Fraction(end_tick - prev_end, division)))
    return Melody(tuple(tokens), time_signature)


def _reference_vlq(value: int) -> bytes:
    chunks = [value & 0x7F]
    while value > 0x7F:
        value >>= 7
        chunks.insert(0, (value & 0x7F) | 0x80)
    return bytes(chunks)


def reference_write_midi(melody: Melody, lyrics: Optional[LyricSequence] = None) -> bytes:
    """SMF format 0 at 480 TPQ, each token's ticks a ``Fraction`` product;
    MidiFormatError for a duration of no whole number of ticks."""
    if lyrics is not None:
        _check_aligned(lyrics, melody)

    def ticks(duration: Fraction) -> int:
        t = duration * 480
        if t.denominator != 1:
            raise MidiFormatError(f"duration {duration} is not a whole number of ticks")
        return int(t)

    num, den = melody.time_signature
    events = [(0, bytes([0xFF, 0x58, 0x04, num, den.bit_length() - 1, 24, 8])),
              (0, bytes([0xFF, 0x51, 0x03]) + (500_000).to_bytes(3, "big"))]
    texts = iter(s.text for s in lyrics.syllables) if lyrics is not None else None
    pending = 0
    for tok in melody.tokens:
        if tok.kind is TokenKind.REST:
            pending += ticks(tok.duration)
            continue
        text = (next(texts) if texts else "~") if tok.syllable_start else "-"
        encoded = text.encode("utf-8")
        events.append((pending, bytes([0xFF, 0x05]) + _reference_vlq(len(encoded)) + encoded))
        events.append((0, bytes([0x90, tok.pitch, 80])))
        events.append((ticks(tok.duration), bytes([0x80, tok.pitch, 0])))
        pending = 0
    events.append((pending, bytes([0xFF, 0x2F, 0x00])))
    track = b"".join(_reference_vlq(delta) + body for delta, body in events)
    return (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480)
            + b"MTrk" + struct.pack(">I", len(track)) + track)


def reference_random_lyrics(rng, sentences: int = 3, tonal: bool = True, repeat: bool = False):
    """The seeded sheet of :func:`lyricmelody.synthetic.random_lyrics`,
    written out as annotated text and parsed back."""

    def one_sentence() -> str:
        words = []
        for _ in range(rng.randint(2, 4)):
            length = rng.choice([1, 1, 2]) if tonal else 1
            cls = rng.choice(["K", "A", "", ""])
            for pos in range(length):
                text = rng.choice(_SYLLABLES if tonal else _EN_WORDS)
                mark = str(rng.randint(1, 4)) if tonal else rng.choice(["'", "", ""])
                flags = "W" if pos == 0 else "I"
                if pos == 0 and cls:
                    flags += f",{cls}"
                words.append(f"{text}{mark}|{flags}")
        punctuation = rng.choice([".", ".", "?", ","])
        return " ".join(words) + " " + punctuation

    base = [one_sentence() for _ in range(max(1, sentences))]
    if repeat:
        base = base + base  # A B ... A B ...
    return parse_lyrics("\n".join(base))


# ---------------------------------------------------------------------------
# the text parser before its one pass per line, copied as it was
# ---------------------------------------------------------------------------
# Each line is read three times: tokens to 5-tuples, then a walk for the E
# flag and the tone marks seen, then 4-tuples rebuilt for the assembler; its
# own copies of the flag reader and the assembler keep it independent of the
# package's.  Only the names differ from the original.




_REFERENCE_FLAG_NAMES = {"W", "I", "K", "A", "E"}


def _reference_flags(flag_part: str, token: str,
                     lineno: int) -> tuple[WordPosition, StressClass, bool]:
    """(position, class, has_E) of a token's flag text; the checks every spelling passes."""
    flags = [f for f in flag_part.split(",") if f] if flag_part else []
    unknown = set(flags) - _REFERENCE_FLAG_NAMES
    if unknown:
        raise LyricFormatError(
            f"line {lineno}: unknown flag(s) {sorted(unknown)} in {token!r}"
        )
    has_w, has_i = "W" in flags, "I" in flags
    if has_w == has_i:
        raise LyricFormatError(
            f"line {lineno}: token {token!r} needs exactly one of flags W or I"
        )
    if "K" in flags and "A" in flags:
        raise LyricFormatError(f"line {lineno}: token {token!r} is both keyword and auxiliary")
    stress = (
        StressClass.KEYWORD
        if "K" in flags
        else StressClass.AUXILIARY if "A" in flags else StressClass.NEUTRAL
    )
    position = WordPosition.WORD_START if has_w else WordPosition.WORD_INNER
    return position, stress, "E" in flags


#: the flag texts :func:`serialize_lyrics` writes, read once here instead of per token
_REFERENCE_WRITTEN_FLAGS = {text: _reference_flags(text, text, 0)
                            for text in ("W", "I", "W,K", "W,A", "I,K", "I,A")}


def _reference_parse_token(token: str,
                           lineno: int) -> tuple[str, Tone, WordPosition, StressClass, bool]:
    """Split one syllable token into (text, tone mark, position, class, has_E)."""
    body, sep, flag_part = token.partition("|")
    if not sep or not body:
        raise LyricFormatError(f"line {lineno}: malformed syllable token {token!r}")
    # only an ASCII digit is a tone mark; "²" or "٣" is part of the text
    if body[-1] in "06789":
        raise LyricFormatError(f"line {lineno}: tone digit out of range in {token!r}")
    tone = _MARK_TONE.get(body[-1], Tone.NONE)  # NONE: UNSTRESSED later for stress-accent
    if tone is not Tone.NONE:
        body = body[:-1]
    if not body:
        raise LyricFormatError(f"line {lineno}: empty syllable text in {token!r}")
    flags = _REFERENCE_WRITTEN_FLAGS.get(flag_part) or _reference_flags(flag_part, token, lineno)
    return (body, tone, *flags)


def reference_parse_lyrics(source: str) -> LyricSequence:
    """Parse annotated lyrics (text format or its JSON mirror).

    Annotations are taken verbatim; nothing is inferred beyond the language,
    which follows from the tone marks used (any tone digit makes the sequence
    tonal, otherwise it is stress-accent).  Raises
    :class:`~lyricmelody.errors.LyricFormatError` with a line number on
    malformed input.
    """
    if not source.strip():
        raise LyricFormatError("empty lyrics input")
    if source.lstrip()[0] == "{":
        return lyrics_from_json(source)

    raw_sentences: list[tuple[Intonation, list[tuple]]] = []
    saw_digit = saw_apostrophe = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) < 2:
            raise LyricFormatError(
                f"line {lineno}: expected syllables followed by a punctuation token"
            )
        terminator = tokens[-1]
        if "|" in terminator or len(terminator) != 1 or terminator[-1].isalnum():
            raise LyricFormatError(
                f"line {lineno}: line must end with a single punctuation token, got {terminator!r}"
            )
        parsed = [_reference_parse_token(tok, lineno) for tok in tokens[:-1]]
        for pos, (_, tone, _, _, has_e) in enumerate(parsed):
            # the mark read: a digit made a tonal tone, an apostrophe STRESSED
            if tone is Tone.STRESSED:
                saw_apostrophe = True
            elif tone is not Tone.NONE:
                saw_digit = True
            if has_e and pos != len(parsed) - 1:
                raise LyricFormatError(
                    f"line {lineno}: flag E is only valid on the sentence-final syllable"
                )
        if parsed[0][2] is not WordPosition.WORD_START:
            raise LyricFormatError(f"line {lineno}: first syllable of a sentence must carry W")
        raw_sentences.append((detect_intonation(terminator), parsed))

    if saw_digit and saw_apostrophe:
        raise LyricFormatError("tonal and stress-accent tone marks mixed in one input")
    language = Language.TONAL if saw_digit else Language.STRESS_ACCENT
    return _reference_assemble([
        (intonation, [(text, tone, wp, sc) for text, tone, wp, sc, _ in parsed])
        for intonation, parsed in raw_sentences
    ], language)


def _reference_assemble(
    sentences: list[tuple[Intonation, list[tuple]]], language: Language
) -> LyricSequence:
    """The sequence of ``(intonation, [(text, tone, word position, stress
    class), ...])`` sentences in ``language``; refuses a syllable text, or a
    tonal sheet without a tonal tone, that :func:`serialize_lyrics` could not
    write back, and reads an unmarked (``none``) syllable of stress-accent
    lyrics as unstressed, so both formats agree."""
    unmarked = Tone.NONE if language is Language.TONAL else Tone.UNSTRESSED
    syllables: list[Syllable] = []
    spans: list[Sentence] = []
    for si, (intonation, parsed) in enumerate(sentences):
        start = len(syllables)
        for pos, (text, tone, wp, sc) in enumerate(parsed):
            if type(text) is not str or text.split() != [text] or "|" in text:
                raise LyricFormatError(f"syllable text {text!r} is not one word without '|'")
            if tone in (Tone.NONE, Tone.UNSTRESSED) and text[-1] in "0123456789'":
                raise LyricFormatError(f"unmarked syllable text {text!r} ends in a tone mark")
            if not syllables and text[0] == "{":
                raise LyricFormatError(f"first syllable text {text!r} opens with '{{'")
            tone = unmarked if tone is Tone.NONE else tone
            syllables.append(Syllable(text, tone, wp, sc, si, pos == len(parsed) - 1))
        spans.append(Sentence((start, len(syllables)), intonation))
    # serialize_lyrics writes a tone digit only for a tonal tone, and
    # parse_lyrics reads a sheet without one as stress-accent
    if language is Language.TONAL and not any(s.tone in TONAL_TONES for s in syllables):
        raise LyricFormatError("a tonal sheet needs a syllable with a tonal tone (tone1-tone5)")
    return LyricSequence(tuple(syllables), tuple(spans), language)


# ---------------------------------------------------------------------------
# the package's record types, as the @dataclass declarations they replace
# ---------------------------------------------------------------------------
# Each twin has its record's fields, defaults and flags, so the methods
# dataclasses generates from them are the oracle for the record's own.  A
# twin is built from a record's stored fields and checks nothing; a
# __post_init__ only derives the fields the record derives, or keeps a
# mapping read-only as the record does, and the two twins that hold one
# pickle through their constructor, as the records do.  The tokens' twins
# take their fields in a generated __init__ where the tokens intern through
# __new__.


@dataclass(frozen=True)
class DecodeOptionsTwin:
    mode: object = DecodeMode.BEAM_SOFT
    beam_width: object = 4
    top_k: object = 5
    temperature: object = 0.5
    rerank_candidates: object = 10
    max_notes_per_syllable: object = 4
    seed: object = 0
    time_signature: object = (4, 4)
    active: object = ALL_ASPECTS


@dataclass
class _VocabGroupsTwin:
    starts: object
    continuations: object
    rests: object
    end: object


@dataclass(slots=True)
class _HypothesisTwin:
    tokens: object
    key: object
    state: object
    base: object = 0.0
    reward: object = 0.0


@dataclass(frozen=True)
class DecodeResultTwin:
    melody: object
    score: object
    base_logprob: object
    reward_total: object
    mode: object
    relaxation_steps: object = ()
    stage_scores: object = None


@dataclass(frozen=True, slots=True)
class SyllableTwin:
    text: object
    tone: object
    word_position: object
    stress_class: object
    sentence_index: object
    sentence_final: object


@dataclass(frozen=True, slots=True)
class SentenceTwin:
    span: object
    intonation: object


@dataclass(frozen=True, slots=True)
class LyricSequenceTwin:
    syllables: object
    sentences: object
    language: object


@dataclass(frozen=True)
class StructureMatrixTwin:
    pairs: object
    partner: object = field(init=False, hash=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "partner", dict(self.pairs))


@dataclass(frozen=True, slots=True, eq=False)
class MelodyTokenTwin:
    kind: object
    duration: object
    pitch: object = None
    syllable_start: object = False


@dataclass(frozen=True, slots=True, eq=False)
class RhythmTokenTwin:
    kind: object
    duration: object
    syllable_start: object = False


@dataclass(frozen=True)
class MelodyTwin:
    tokens: object
    time_signature: object = (4, 4)
    alignment: object = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alignment", Melody(self.tokens, self.time_signature).alignment)


@dataclass(frozen=True)
class EvaluationReportTwin:
    tone_transition: object
    tone_contour: object
    matched_sw: object
    matched_pauses: object
    pd: object
    dd: object
    md: object


@dataclass(frozen=True)
class HarmonyTableTwin:
    cells: object

    def __post_init__(self):
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))

    def __reduce__(self):
        return type(self), (dict(self.cells),)


@dataclass(frozen=True)
class RewardConfigTwin:
    lambda_tone: object = 1.2
    lambda_rhythm: object = 1.5
    lambda_structure: object = 1.0
    transition_rewards: object = field(default_factory=lambda: {
        HarmonyDegree.EXCELLENT: 3.0, HarmonyDegree.GOOD: 2.0,
        HarmonyDegree.FAIR: 1.0, HarmonyDegree.BAD: 0.0})
    shape_reward_on_match: object = 1.0
    contour_reward_on_match: object = 1.0
    sw_reward_on_match: object = 1.0
    pause_reward_on_match: object = 1.0
    structure_reward_exact: object = 2.0
    structure_reward_octave: object = 1.0
    long_note_threshold: object = Fraction(2)
    harmony_table: object = field(default_factory=lambda: HarmonyTable({}))

    def __post_init__(self):
        rewards = MappingProxyType(dict(self.transition_rewards))
        object.__setattr__(self, "transition_rewards", rewards)

    def __reduce__(self):
        values = (getattr(self, name) for name in self.__match_args__)
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in values)


@dataclass(slots=True)
class _StateTwin:
    onset: object = 0
    syl: object = -1
    span_open: object = False
    span_pitches: object = (None,)
    last_duration: object = None
    syl_delta: object = ()
    sent_first: object = None


@dataclass(slots=True)
class _PlanTwin:
    end: object
    rest: object
    cell: object = None
    anchor: object = None
    partner_delta: object = None
    last_pitch: object = None
    terms: object = ()
    masked: object = False


@dataclass(frozen=True)
class RewardSummaryTwin:
    total: object
    by_aspect: object
    events: object


@dataclass(frozen=True)
class VocabularyTwin:
    kind: object
    tokens: object


@dataclass(frozen=True)
class UniformScorerTwin:
    vocab: object


@dataclass(frozen=True)
class ModelBundleTwin:
    token_model: object
    rhythm_model: object
    pitch_model: object


#: each record type of the package to its twin
TWINS = {
    DecodeOptions: DecodeOptionsTwin,
    _VocabGroups: _VocabGroupsTwin,
    _Hypothesis: _HypothesisTwin,
    DecodeResult: DecodeResultTwin,
    Syllable: SyllableTwin,
    Sentence: SentenceTwin,
    LyricSequence: LyricSequenceTwin,
    StructureMatrix: StructureMatrixTwin,
    MelodyToken: MelodyTokenTwin,
    RhythmToken: RhythmTokenTwin,
    Melody: MelodyTwin,
    EvaluationReport: EvaluationReportTwin,
    HarmonyTable: HarmonyTableTwin,
    RewardConfig: RewardConfigTwin,
    _State: _StateTwin,
    _Plan: _PlanTwin,
    RewardSummary: RewardSummaryTwin,
    Vocabulary: VocabularyTwin,
    UniformScorer: UniformScorerTwin,
    ModelBundle: ModelBundleTwin,
}
