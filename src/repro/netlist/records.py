"""Column-wise parsing of netlist files, with record-by-record errors.

The netlist readers split a whole file into one flat token array
(:func:`tokens_by_line`), gather each field of their records as one
column (:func:`gather`) and convert it in one pass (``map(float, ...)``)
instead of record by record.  :class:`FirstError` keeps that honest
about errors.  The checks run in the order a record-by-record reader
applies them to one record, and each runs only over the records before
the earliest failure found so far.  So the error left at the end is the
one such a reader meets first: the earliest failing record, and within
it the first failing check.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


def first_repeat(names: Sequence[str]) -> Optional[int]:
    """Index of the first name an earlier one already took, or ``None``."""
    if len(set(names)) == len(names):
        return None
    seen: set = set()
    for k, name in enumerate(names):
        if name in seen:
            return k
        seen.add(name)
    return None  # pragma: no cover - the sizes differ, so a repeat exists


def raised(check: Callable[..., None], *args) -> Exception:
    """The exception ``check(*args)`` raises (it must raise)."""
    try:
        check(*args)
    except (ValueError, KeyError) as exc:
        return exc
    raise AssertionError(f"{check.__name__}{args} did not raise")


class FirstError:
    """The earliest failure among *count* records (see the module doc).

    ``limit`` is the number of leading records known to be good so far,
    ``error`` the exception of record ``limit`` (``None`` while all are).
    """

    def __init__(self, count: int):
        self.limit = count
        self.error: Optional[Exception] = None

    def fail(self, k: int, error: Optional[Exception]) -> None:
        self.limit, self.error = k, error

    def found(self, k: int, error: Exception) -> None:
        """Fail at *k* unless an earlier failure is known."""
        if k < self.limit:
            self.fail(k, error)

    def check(
        self,
        bad: Sequence[bool],
        error: Optional[Callable[[int], Exception]] = None,
    ) -> None:
        """Fail at the first record before the limit where *bad* holds,
        with ``error(k)``; without *error*, only move the limit there (the
        caller words the failure once its other checks are in)."""
        bad = np.asarray(bad[: self.limit], dtype=bool)
        if bad.any():
            k = int(np.argmax(bad))
            self.fail(k, error(k) if error else None)

    def convert(self, convert: Callable, tokens: Sequence) -> List:
        """``convert`` over the tokens before the limit; the first one it
        rejects (``ValueError``/``KeyError``) fails its record."""
        if len(tokens) > self.limit:
            tokens = tokens[: self.limit]
        try:
            return list(map(convert, tokens))
        except (ValueError, KeyError):
            pass
        values = []
        for token in tokens:
            try:
                values.append(convert(token))
            except (ValueError, KeyError) as exc:
                self.fail(len(values), exc)
                break
        return values

    def absorb(self, inner: "FirstError", record_of: Sequence[int]) -> None:
        """Fail at the record holding *inner*'s failure (*inner* counts
        sub-records, such as the pins of nets, before this limit)."""
        if inner.error is not None:
            self.fail(int(record_of[inner.limit]), inner.error)


#: The ASCII characters ``str.split()`` separates tokens at, and the
#: control characters below 33 that it does not.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_CONTROL = np.r_[0:9, 14:28]


def _tokens_per_line(text: str) -> np.ndarray:
    """``len(line.split())`` for each line of ``text.split("\\n")``."""
    if not text.isascii():
        return np.array([len(line.split()) for line in text.split("\n")])
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # Without control characters other than whitespace, every byte
    # below 33 separates tokens: one comparison finds them.
    control = np.bincount(data, minlength=256)[_CONTROL].any()
    space = _SPACE[data] if control else data <= 32
    start = np.empty(data.size + 1, dtype=bool)  # a token starts here
    np.invert(space, out=start[:-1])
    start[1:-1] &= space[:-1]
    start[-1] = False
    lines = np.r_[0, np.flatnonzero(data == 10) + 1]
    return np.add.reduceat(start, lines, dtype=np.int64)


def tokens_by_line(
    text: str, sentinels: Sequence[str] = ()
) -> Tuple[np.ndarray, np.ndarray]:
    """``(tokens, offsets)``: ``text.split()`` in one pass, as an object
    array, and for line ``k`` of ``text.split("\\n")`` its tokens
    ``tokens[offsets[k]:offsets[k + 1]]``.  *sentinels* follow the real
    tokens, for fields a record may lack.

    One flat array instead of a list per line: the readers gather their
    per-field columns from it by index.
    """
    counts = _tokens_per_line(text)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    words = text.split()
    assert offsets[-1] == len(words)
    tokens = np.empty(len(words) + len(sentinels), dtype=object)
    tokens[: len(words)] = words
    tokens[len(words):] = sentinels
    return tokens, offsets


def gather(tokens: np.ndarray, index: np.ndarray) -> List[str]:
    """``[tokens[i] for i in index]``, without a Python step per token."""
    return tokens[index].tolist()
