"""The lexers of the three grammars against the hand-written tokenizers
they replaced, which are kept here as references: syntax.lex for
expressions, and signature.tokenize for ustypes and .fls values.  On every
text the two give the same token list, or both raise the grammar's error;
an expression lexer's error also names the same character."""
from __future__ import annotations

import pathlib
import random
import re

import pytest

from funlog import fileio, signature, syntax
from funlog.fileio import FormatError
from funlog.gen import rand_expr, rand_signature
from funlog.signature import MalformedUstype, print_ustype, tokenize
from funlog.syntax import ParseError, print_expr

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def reference_expr_tokens(text: str) -> list[str]:
    toks = []
    i = 0
    word = re.compile(r"\w+(\^\w+)?")
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),:.=":
            toks.append(ch)
            i += 1
        else:
            m = word.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}")
            toks.append(m.group())
            i = m.end()
    return toks


def reference_ustype_tokens(text: str) -> list[str]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            toks.append(ch)
            i += 1
        else:
            m = re.compile(r"\w+").match(text, i)
            if not m:
                raise MalformedUstype(f"unexpected character {ch!r} in ustype {text!r}")
            toks.append(m.group())
            i = m.end()
    return toks


def reference_value_tokens(text: str) -> list[str]:
    token = re.compile(r'"(?:[^"\\]|\\.)*"|->|[{}(),=]|\w+')
    toks = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = token.match(text, pos)
        if not m:
            raise FormatError(f"bad character {text[pos]!r} in {text!r}")
        toks.append(m.group())
        pos = m.end()
    return toks


GRAMMARS = {
    "expr": (reference_expr_tokens, syntax.lex, ParseError),
    "ustype": (reference_ustype_tokens,
               lambda t: tokenize(signature._USTYPE_TOKEN, t, MalformedUstype),
               MalformedUstype),
    "value": (reference_value_tokens,
              lambda t: tokenize(fileio._VALUE_TOKEN, t, FormatError), FormatError),
}


def outcome(lex, text: str, error):
    try:
        return lex(text)
    except error:
        return error


def expr_outcome(lex, text: str):
    """The tokens, or the message of the ParseError raised."""
    try:
        return lex(text)
    except ParseError as exc:
        return str(exc)


def printed_texts() -> list[str]:
    """Printed random expressions and the ustypes of their signatures."""
    texts = []
    for seed in range(8):
        rng = random.Random(seed)
        sig = rand_signature(rng)
        texts += [print_ustype(op) for op in sig.user_ops.values()]
        for _ in range(25):
            sort = rng.choice(sorted(sig.sorts))
            texts.append(print_expr(rand_expr(sig, rng, sort, rng.randint(0, 4))))
    return texts


def readme_texts() -> list[str]:
    """Every line of the README's fenced examples."""
    blocks = re.findall(r"```\w*\n(.*?)```", README.read_text(), re.S)
    assert blocks
    return [line for block in blocks for line in block.splitlines()]


def random_texts(seed: int) -> list[str]:
    """Short strings over the token alphabet, spaces, carets and a few
    characters outside it."""
    rng = random.Random(seed)
    alphabet = "ab_1^^^  (),:.=$é\t\n\u00a0"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            for _ in range(20_000)]


def mutants(texts: list[str], seed: int) -> list[str]:
    """Random truncations and byte flips, the flipped bytes read as
    Latin-1 so that every byte value appears as a character."""
    rng = random.Random(seed)
    out = []
    for text in texts:
        if not text:
            continue
        out.append(text[:rng.randrange(len(text))])
        data = bytearray(text.encode())
        for _ in range(3):
            i = rng.randrange(len(data))
            data[i] ^= rng.randrange(1, 256)
            out.append(data.decode("latin-1"))
    return out


CORPORA = {
    "printed": printed_texts,
    "readme": readme_texts,
    "printed-mutants": lambda: mutants(printed_texts(), 1),
    "readme-mutants": lambda: mutants(readme_texts(), 2),
    "random": lambda: random_texts(3),
}


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("grammar", GRAMMARS)
def test_same_tokens_as_the_reference(grammar, corpus):
    reference, lex, error = GRAMMARS[grammar]
    texts = CORPORA[corpus]()
    accepted = 0
    for text in texts:
        want = outcome(reference, text, error)
        got = outcome(lex, text, error)
        assert got == want, text
        accepted += want is not error
    assert accepted, "no text of the corpus lexes"


@pytest.mark.parametrize("corpus", CORPORA)
def test_expr_errors_name_the_same_character(corpus):
    for text in CORPORA[corpus]():
        assert expr_outcome(syntax.lex, text) == expr_outcome(reference_expr_tokens, text), text


def test_whitespace_is_what_the_references_skip():
    # the references skip str.isspace() characters; the patterns skip \s
    # and syntax.lex splits on what str.split() takes for whitespace
    every = "".join(map(chr, range(0x110000)))
    space = [c for c in every if c.isspace()]
    assert re.findall(r"\s", every) == space
    assert set(every) - set("".join(every.split())) == set(space)
