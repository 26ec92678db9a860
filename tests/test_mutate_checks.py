"""The readers of the deletion tool ``mutate_checks.py``: the unreachable
lists of the test modules and the messages of the theorem checks."""

from pathlib import Path

import mutate_checks

SRC = Path(__file__).resolve().parents[1] / "src" / "sphroots"


def _messages():
    return [mutate_checks.message(node)
            for path in sorted(SRC.glob("*.py"))
            for node in mutate_checks.check_raises(path.read_text())]


def test_no_listed_check_names_several_raises():
    # a fragment matching several raises would excuse the deletion of
    # each; one matching none excuses nothing (the test must not fail
    # when the tool deletes the listed raise itself)
    messages = _messages()
    listed = mutate_checks.unreachable_checks()
    assert {"block isolation did not terminate",
            "touches several blocks"} <= set(listed)
    for key in listed:
        assert sum(key in text for text in messages) <= 1, key


def test_messages_show_each_field_as_braces():
    messages = _messages()
    assert "union size {} != rank {} at {}" in messages
    assert "leaf_resolve needs at most one active root" in messages
