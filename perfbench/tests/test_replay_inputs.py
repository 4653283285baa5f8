"""The seeded replay inputs: legal weaves from a pinned pool, reproducible
bytes."""

import json
import random
from pathlib import Path

import pytest

import anyonforge as af
from perfbench import replay_inputs

REFERENCE = json.loads(
    (Path(replay_inputs.__file__).with_name("reference.json")).read_text())


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.json"))}


def test_every_pool_set_has_pinned_outputs():
    keys = {replay_inputs.pool_key(k, slot, variant)
            for k in replay_inputs.LEVELS for slot in range(replay_inputs.SLOTS)
            for variant in range(replay_inputs.VARIANTS)}
    assert set(REFERENCE["replay"]) == keys
    for seed in range(100):
        picked = replay_inputs.pick_variants(seed)
        assert len(picked) == len(replay_inputs.LEVELS) * replay_inputs.SLOTS
        assert {replay_inputs.pool_key(*p) for p in picked} <= keys


@pytest.mark.parametrize("k", replay_inputs.LEVELS)
def test_pool_words_are_reduced_weaves_ending_on_the_final_arrangement(k):
    model, targets = replay_inputs.level_targets(k)
    for slot in range(replay_inputs.SLOTS):
        for variant in range(replay_inputs.VARIANTS):
            words = replay_inputs.pool_words(k, targets, slot, variant)
            for name, letters in words.items():
                target = targets[name]
                lo, hi = target.span
                assert (replay_inputs.MIN_LENGTH <= len(letters)
                        <= replay_inputs.MAX_LENGTH)
                assert all(b != (a[0], -a[1]) for a, b in zip(letters, letters[1:]))
                pos = target.mobile
                for p, _ in letters:
                    assert p in (pos - 1, pos) and lo <= p < hi
                    pos = p if p == pos - 1 else p + 1
                word = af.BraidWord(target.block_count, letters)
                assert word.permutation() == target.final_arrangement


def test_written_files_hold_the_pool_words_and_pinned_distances(tmp_path):
    sets = replay_inputs.write_inputs(11, tmp_path)
    for entry, (k, slot, variant) in zip(sets, replay_inputs.pick_variants(11)):
        assert entry["key"] == replay_inputs.pool_key(k, slot, variant)
        _, targets = replay_inputs.level_targets(k)
        words = replay_inputs.pool_words(k, targets, slot, variant)
        for name in replay_inputs.SYSTEMS:
            stored = af.read_braid_file(entry["files"][name])
            assert [tuple(x) for x in stored["word"]] == list(words[name])
            assert stored["distance"] == REFERENCE["replay"][entry["key"]]["distance"][name]


def test_same_seed_gives_byte_identical_files(tmp_path):
    replay_inputs.write_inputs(5, tmp_path / "a")
    replay_inputs.write_inputs(5, tmp_path / "b")
    replay_inputs.write_inputs(6, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_weave_word_rejects_a_length_of_the_wrong_parity():
    with pytest.raises(ValueError):
        replay_inputs.weave_word(random.Random(0), 1, (1, 3), 1, 21)
