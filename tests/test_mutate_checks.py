"""The readers of the deletion tool ``mutate_checks.py``: the unreachable
lists of the test modules and the messages of the theorem checks."""

import ast
import re
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


TESTS = Path(__file__).resolve().parent


def _module_strings(node):
    """The string constants under an ast node, dict keys left out."""
    keys = {id(k) for d in ast.walk(node) if isinstance(d, ast.Dict)
            for k in d.keys}
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and id(n) not in keys]


def _match_patterns(tree):
    """The ``match=`` patterns of the ``pytest.raises(InvariantViolation,
    ...)`` calls of a test module.  A pattern passed by name is resolved
    within the module: a parameter of the enclosing function takes the
    string arguments of that function's calls; a local name assigned from
    a call of a module function takes that function's string constants."""
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    patterns = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        for call in ast.walk(f):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "raises" and call.args
                    and getattr(call.args[0], "id", None)
                    == "InvariantViolation"):
                continue
            for kw in call.keywords:
                if kw.arg != "match":
                    continue
                if isinstance(kw.value, ast.Constant):
                    patterns.append(kw.value.value)
                    continue
                name = kw.value.id
                params = [a.arg for a in f.args.args]
                if name in params:
                    at = params.index(name)
                    for c in ast.walk(tree):
                        if (isinstance(c, ast.Call)
                                and getattr(c.func, "id", None) == f.name):
                            args = c.args[at:at + 1] + [
                                k.value for k in c.keywords if k.arg == name]
                            patterns += [a.value for a in args
                                         if isinstance(a, ast.Constant)]
                for stmt in ast.walk(f):
                    if (isinstance(stmt, ast.Assign)
                            and name in {n.id for t in stmt.targets
                                         for n in ast.walk(t)
                                         if isinstance(n, ast.Name)}):
                        for c in ast.walk(stmt.value):
                            if getattr(c, "func", None) is not None and \
                                    getattr(c.func, "id", None) in functions:
                                patterns += _module_strings(
                                    functions[c.func.id])
    return patterns


def _prefixes(template):
    """Regexes for the starts of the messages a raise can render, each
    field of the template matching anything.  A start reaches at least to
    the end of the template's first nonempty text, and it ends in text
    unless it holds two nonempty texts or is the whole template: a field
    left open at the end would match any text after a short word."""
    # texts[k]: the nonempty texts that tokens[:k + 1] reach into
    tokens, texts, begun = [], [], 0
    for i, part in enumerate(template.split("{}")):
        if i:
            tokens.append(".*")
            texts.append(begun)
        for j, char in enumerate(part):
            begun += not j
            tokens.append(re.escape(char))
            texts.append(begun)
    return [re.compile("".join(tokens[:cut]))
            for cut in range(1, len(tokens) + 1)
            if texts[cut - 1] and (tokens[cut - 1] != ".*" or cut == len(tokens)
                                   or texts[cut - 1] >= 2)]


def _covers(pattern, template, prefixes):
    """Whether ``pattern`` matches some message the template renders:
    directly (fields as braces), or by spelling out the message's start
    with field values filled in."""
    if re.search(pattern, template):
        return True
    text = re.sub(r"\\(.)", r"\1", pattern)
    return bool(re.fullmatch(pattern, text)) and any(
        p.fullmatch(text) for p in prefixes)


def test_every_check_is_matched_by_a_test_or_listed():
    # a theorem check no test reaches by its message, and no list names,
    # could be deleted with the suite still green
    patterns = [p for path in sorted(TESTS.rglob("test_*.py"))
                for p in _match_patterns(ast.parse(path.read_text()))]
    listed = mutate_checks.unreachable_checks()
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in mutate_checks.check_raises(path.read_text()):
            text = mutate_checks.message(node)
            prefixes = _prefixes(text)
            if not (any(key in text for key in listed) or any(
                    _covers(p, text, prefixes) for p in patterns)):
                bare.append(f"{path.name}:{node.lineno} {text}")
    assert bare == []
