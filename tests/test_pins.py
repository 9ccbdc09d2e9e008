"""The byte-pin table's shape, and its runner on one pin small enough for tier-1;
``python tests/pins.py`` runs the table itself."""
from __future__ import annotations

import hashlib
import io
import re

import pytest

import pins
from diffusim.graph import directed_cycle, save_edge_list


def test_every_pin_has_a_note_and_well_formed_checks():
    assert len({pin.name for pin in pins.PINS}) == len(pins.PINS)
    for pin in pins.PINS:
        assert pin.note and pin.checks, pin.name
        for check in pin.checks:
            assert check[0] in ("sha256", "same", "exit"), pin.name
            if check[0] == "sha256":
                assert re.fullmatch("[0-9a-f]{64}", check[2]), pin.name


def cycle_pin(check) -> pins.Pin:
    return pins.Pin("cycle", "a five-node directed cycle", {"cycle.json": {
        "model": "group", "master_seed": 1, "graph": {"type": "cycle", "n": 5}}},
        ["gen-graph --config cycle.json --out g"], [check])


@pytest.fixture(scope="module")
def digest():
    text = io.StringIO(newline="")
    save_edge_list(directed_cycle(5), text)
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


def test_runner_passes_the_right_digest(digest, capsys):
    assert pins.main([cycle_pin(("sha256", "g/graph.edges", digest))]) == 0
    assert f"cycle: ok sha256 g/graph.edges expected {digest} actual {digest}" in \
        capsys.readouterr().out


def test_runner_fails_a_wrong_digest_and_prints_both(digest, capsys):
    wrong = "0" * 64
    assert pins.main([cycle_pin(("sha256", "g/graph.edges", wrong))]) != 0
    assert f"cycle: mismatch sha256 g/graph.edges expected {wrong} actual {digest}" in \
        capsys.readouterr().out


def test_runner_fails_a_wrong_partner(capsys):
    assert pins.main([cycle_pin(("same", "g/graph.edges", "cycle.json"))]) != 0
    assert "cycle: mismatch same g/graph.edges cycle.json" in capsys.readouterr().out
