"""File formats and their readers/writers.

All formats are line-oriented text. Floats are rendered with ``repr``, the
canonical shortest decimal that round-trips to the same IEEE-754 double, so
write-then-read is bit exact. Writers are atomic (temp file + ``os.replace``).
Readers raise :class:`~svbackend.errors.DataFormatError` with path and line
number for anything malformed, bytes that are not UTF-8 included; they never
raise bare parse exceptions. Every line reader takes its lines from one
source, :func:`_lines`, which reads and decodes the file a 64 KiB block at a
time, so no reader holds a file's text whole and the first fault in line
order is the one raised. :func:`read_text` holds the whole text and is for
the JSON documents only (the fusion model and the synth config).

Every value read from text, in the store, score files and feature tables,
is cast by one loop, :func:`_batches`. Each reader hands it rows checked in
full but for their value cells (a feature row's ids included) as it reads
them. The loop holds rows until their fields, at ``_FIELD_BYTES`` each, fill
``scoring.COSINE_BLOCK_BYTES``, casts their cells with one numpy call (a
blank CSV cell is NaN), and parses them one by one only when that cast or
the finiteness check fails, to name the first bad cell. That is raised
before a fault on a later line, so the first fault in line order is the one
raised, an id before a cell on one line. Each store record's chunks are a
view of its batch's values, made without a second check.
:func:`iter_embeddings` yields the records batch by batch, for kernels that
keep a summary per record, and :func:`read_embeddings` is the list of it.
The store writer formats and writes one record at a time.

A trial list is a :class:`TrialList`: an enroll id column, a test id column
and, when labeled, a bool label array. It checks all its ids at once and
scans them pair by pair only to name the first bad one; a reader that has
checked its ids makes one with :func:`unchecked`. The trial reader reads a
list once and, unless told, takes whether it is labeled from its first line.
The trial, score and feature readers return one, and it is the only trial
type the functions here take; :class:`Trial` is the record form that
:func:`~svbackend.scoring.score_trials` alone still converts.

Score files and trial feature tables line up pair for pair with a trial
list, and :func:`_read_pairs` reads both into a :class:`RowBuffer`, a
matrix that grows in place. Given a reference trial list, it checks each
batch's pairs against it and holds none of the file's ids: a fault anywhere
in the file is raised first, then a count that differs, then the first
mismatched pair on its line. The table's records come from
:func:`_csv_rows`, which splits a line with no quote and no NUL, that is not
empty and no longer than the field size limit, on commas, as strict ``csv``
reads it, and reads every other line with strict ``csv``.
:func:`read_fusion_features` reads fusion's inputs as named columns of one
matrix, the feature table cast straight into it.

Every writer hands :func:`atomic_write_text` one line at a time, so none
holds its file's text whole, and refuses with ``ValueError``, leaving the
file as it was, what a reader would reject: a CSV field holding a line
break, an empty attribute id, a non-finite real attribute, an infinite
feature, a speaker-map id that is not a token. The feature writer formats a
block of rows at a time, each distinct bit pattern in the block once, with
blocks sized by ``scoring.COSINE_BLOCK_BYTES``. The three CSV writers
(attributes, trial features, selections) quote every field with
:func:`_csv_field`, which writes what ``csv.writer`` does for any row but
one made of a single empty field.

Formats:

* Embedding store: header line ``dim=<D>``, then one record per line,
  ``utt_id n_chunks v1 ... v_{n_chunks*D}`` with chunk vectors concatenated
  row-major (chunk 0 first).
* Trial list: ``enroll test`` per line, or ``label enroll test`` with label
  0 or 1 when labeled.
* Score file: ``enroll test score`` per line, aligned with a trial list.
* Speaker map: ``utt_id speaker_id`` per line.
* Attribute table: CSV with header ``utt_id,<name>,...``; blank cell means
  missing. A sidecar schema file declares each column as one line
  ``name kind transform`` with kind ``real`` (transform ``identity`` or
  ``log1p``) or ``categorical`` (transform ``match``).
* Trial feature table: CSV with header ``enroll,test,<feature>,...``; blank
  cell means missing.
* Distractor selection table: CSV with header
  ``speaker_id,max_similarity,nearest_target``, one row per selected speaker.
* Fusion model: JSON object with keys ``feature_names``, ``weights``,
  ``intercept``, ``minmax`` (per-feature ``[lo, hi]``), ``medians`` and
  ``lambda``.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_REAL_TRANSFORMS = ("identity", "log1p")
_CATEGORICAL_TRANSFORMS = ("match",)


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to exactly ``value``."""
    return repr(float(value))


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a str or an iterable of str pieces, via a synced temp file
    renamed over ``path``, then sync the directory so the rename survives a
    crash. The file gets the mode ``open`` gives a new file (0o666 less the
    umask) rather than mkstemp's 0o600. If producing a piece raises, the temp
    file is removed and ``path`` is left as it was."""
    if isinstance(text, str):
        text = (text,)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(text)
            handle.flush()
            os.fsync(fd)
        os.replace(tmp, path)
        dir_fd = os.open(directory, os.O_RDONLY)  # the rename is durable once its directory is synced
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cannot_read(path: str, exc: OSError) -> DataFormatError:
    return DataFormatError(f"cannot read file: {exc.strerror or exc}", path=str(path))


def _invalid_utf8(data: bytes, exc: UnicodeDecodeError, path: str, first_line: int) -> DataFormatError:
    """The located error for the fault ``exc`` found in ``data``, whose first
    line is ``first_line``."""
    # the bytes before the fault decode; "_" stands in for the faulty line
    line = first_line - 1 + len((data[:exc.start].decode("utf-8") + "_").splitlines())
    return DataFormatError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", path=str(path), line=line)


def read_text(path: str) -> str:
    """The file decoded as UTF-8 with universal newlines, for the JSON
    documents; the line readers use :func:`_lines`. Bytes that are not UTF-8
    raise a located error at the line they start on, with lines counted by
    ``str.splitlines`` as the readers count them."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _cannot_read(path, exc) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _invalid_utf8(data, exc, path, 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


_BLOCK_BYTES = 1 << 16


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of the file, as
    ``enumerate(read_text(path).splitlines(), 1)`` gives them, read a block at
    a time. Bytes that are not UTF-8 raise the located error of
    :func:`read_text` once the lines before theirs have been yielded."""
    lineno = 0
    for piece in _pieces(path):
        fault = None
        try:
            lines = piece.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            lines = (piece[:exc.start].decode("utf-8") + "_").splitlines()[:-1]
            fault = _invalid_utf8(piece, exc, path, lineno + 1)
        del piece  # its lines hold its text
        for line in lines:
            lineno += 1
            yield lineno, line
        del lines  # so the next block is read and split without them
        if fault is not None:
            raise fault


def _pieces(path: str) -> Iterator[bytes]:
    """The file's bytes in pieces of about ``_BLOCK_BYTES``. Every piece but
    the last ends after a ``b"\\n"``, which no multi-byte character holds and
    which ends any ``\\r\\n`` pair, so no line and no character is split; a
    line longer than a block is gathered whole."""
    try:
        with open(path, "rb") as handle:
            carry: list[bytes] = []  # the bytes after the last b"\\n" read
            while block := handle.read(_BLOCK_BYTES):
                cut = block.rfind(b"\n") + 1
                if not cut:
                    carry.append(block)
                    continue
                yield b"".join((*carry, block[:cut])) if carry else block[:cut]
                carry = [block[cut:]]
            yield b"".join(carry)
    except OSError as exc:
        raise _cannot_read(path, exc) from exc


def _parse_float(token: str, path: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(f"invalid float {token!r}", path=path, line=line) from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite value {token!r}", path=path, line=line)
    return value


class RowBuffer:
    """Rows of ``width`` float64 values written a block at a time into one
    matrix, made for ``rows`` rows, that grows in place by an eighth when it
    is full, so a reader that does not know its row count never holds its
    rows twice. Each row has ``lead`` more columns before those written,
    which are left for the caller to fill."""

    def __init__(self, width: int, rows: int = 0, lead: int = 0):
        self._data = np.empty((rows, lead + width), dtype=np.float64)
        self._lead = lead
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def grow(self, n: int) -> np.ndarray:
        """The first ``n`` rows, past their lead columns, for the caller to
        write at once: the buffer's row count becomes ``n`` if that is more.
        The view is valid until the next call."""
        if n > len(self._data):
            self._data.resize((n + n // 8, self._data.shape[1]), refcheck=False)
        self._n = max(self._n, n)
        return self._data[:n, self._lead:]

    def take(self) -> np.ndarray:
        """The rows written, cut to their count in place."""
        self._data.resize((self._n, self._data.shape[1]), refcheck=False)
        return self._data


def _is_token(s: str) -> bool:
    """True when ``s`` is non-empty and holds no whitespace character."""
    return s.split() == [s]


def _data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of the file; a blank line is a located
    error."""
    for lineno, raw in _lines(path):
        if raw.strip() == "":
            raise DataFormatError("blank line", path=path, line=lineno)
        yield lineno, raw


def _csv_rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each CSV record in the file. A quoted field
    that runs past the end of its line, or any fault strict ``csv`` raises
    (such as a field over ``csv.field_size_limit()``, a quote left open at the
    end of the text or text after a closing quote), is a located error at the
    line where the record starts.

    A line with no quote and no NUL, that is not empty and is no longer than
    the field size limit, is what strict ``csv`` reads as the line split on
    commas, so it is split on commas. Any other line starts a record that a
    strict ``csv.reader`` reads from it and, if its quote runs on, from the
    lines after it, as one reader over the whole file would."""
    limit = csv.field_size_limit()
    numbered = _lines(path)
    for lineno, line in numbered:
        if line and '"' not in line and "\0" not in line and len(line) <= limit:
            yield lineno, line.split(",")
            continue
        reader = csv.reader(itertools.chain((line,), (rest for _, rest in numbered)), strict=True)
        try:
            fields = next(reader)
        except csv.Error as exc:
            raise DataFormatError(f"malformed CSV: {exc}", path=path, line=lineno) from None
        if reader.line_num != 1:
            raise DataFormatError("quoted field runs past the end of its line", path=path, line=lineno)
        yield lineno, fields


def _csv_field(value: str) -> str:
    """``value`` as ``csv.writer`` (QUOTE_MINIMAL, line terminator ``\\n``)
    writes it: quoted, with its quotes doubled, when it holds a comma or a
    quote. A field holding a character at which ``str.splitlines`` breaks
    lines raises ``ValueError``, since the CSV readers take a record to be
    one line."""
    if not value.isprintable() and value.splitlines() not in ([value], []):  # no line break is printable
        raise ValueError(f"CSV field {value!r} holds a line break")
    if "," in value or '"' in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv_line(fields: Iterable[str]) -> str:
    """One CSV record and its ``\\n``, every field through :func:`_csv_field`."""
    return ",".join(map(_csv_field, fields)) + "\n"


# ---------------------------------------------------------------------------
# Embedding store


@dataclass(frozen=True)
class ChunkEmbeddings:
    """Per-chunk embedding matrix for one utterance, shape (n_chunks, dim)."""

    utt_id: str
    chunks: np.ndarray

    def __post_init__(self):
        if not _is_token(self.utt_id):
            raise ValueError(f"utt_id must be non-empty without whitespace, got {self.utt_id!r}")
        chunks = np.asarray(self.chunks, dtype=np.float64)
        if chunks.ndim != 2 or chunks.shape[0] < 1 or chunks.shape[1] < 1:
            raise ValueError(f"chunks must be a (n_chunks, dim) matrix, got shape {chunks.shape}")
        if not np.all(np.isfinite(chunks)):
            raise ValueError(f"non-finite embedding values for {self.utt_id!r}")
        object.__setattr__(self, "chunks", chunks)

    @property
    def n_chunks(self) -> int:
        return self.chunks.shape[0]

    @property
    def dim(self) -> int:
        return self.chunks.shape[1]

    def mean_embedding(self) -> np.ndarray:
        return self.chunks.mean(axis=0)


def read_embeddings(path: str) -> list[ChunkEmbeddings]:
    """Every record of the store, in file order."""
    return list(iter_embeddings(path))


def iter_embeddings(path: str) -> Iterator[ChunkEmbeddings]:
    """The store's records, read by :func:`_batches` and yielded as each
    batch is cast, so a consumer that keeps a summary per record never holds
    the store. Nothing is read until the first record is asked for."""
    path = str(path)
    lines = _data_lines(path)
    header_no, header = next(lines, (1, None))
    if header is None:
        raise DataFormatError("missing 'dim=<D>' header", path=path, line=1)
    header = header.strip()
    if not header.startswith("dim="):
        raise DataFormatError(f"malformed header {header!r}, expected 'dim=<D>'", path=path, line=header_no)
    try:
        dim = int(header[len("dim="):])
    except ValueError:
        raise DataFormatError(f"malformed header {header!r}, expected 'dim=<D>'", path=path, line=header_no) from None
    if dim < 1:
        raise DataFormatError(f"dimension must be >= 1, got {dim}", path=path, line=header_no)

    def rows() -> Iterator[list[str]]:
        """Each record's fields, all but its values checked in the order they are read."""
        seen: set[str] = set()
        for lineno, raw in lines:
            fields = raw.split()
            if len(fields) < 2:
                raise DataFormatError("expected 'utt_id n_chunks v1 ...'", path=path, line=lineno)
            try:
                n_chunks = int(fields[1])
            except ValueError:
                raise DataFormatError(f"invalid chunk count {fields[1]!r}", path=path, line=lineno) from None
            if n_chunks < 1:
                raise DataFormatError(f"chunk count must be >= 1, got {n_chunks}", path=path, line=lineno)
            if len(fields) - 2 != n_chunks * dim:
                raise DataFormatError(f"expected {n_chunks * dim} values for {n_chunks} chunks of dim {dim}, "
                                      f"found {len(fields) - 2}", path=path, line=lineno)
            if fields[0] in seen:
                raise DataFormatError(f"duplicate utt_id {fields[0]!r}", path=path, line=lineno)
            seen.add(fields[0])
            yield fields

    # no line is blank, so the records are on the lines after the header
    for ids, _, counts, values in _batches(path, rows(), header_no + 1):
        values = values.reshape(-1, dim)
        start = 0
        for utt_id, count in zip(ids, counts):
            yield unchecked(ChunkEmbeddings, utt_id=utt_id, chunks=values[start:start + count // dim])
            start += count // dim


# A field's text, its str object and list slot and its float64 take about 110 bytes at repr
# precision; counting 256 keeps a batch's parse within half of one block budget.
_FIELD_BYTES = 256


def _batches(path: str, rows: Iterable[list[str]], first_line: int) -> Iterator[tuple]:
    """(first fields, second fields, cell counts, values) of each batch of
    ``rows``, each one line's fields, two leading ones and its value cells,
    row i on line ``first_line + i``. ``rows`` raises the located error of
    any fault but a bad cell on the line it reads. A batch holds rows until
    their fields reach ``scoring.per_block(_FIELD_BYTES)`` and its cells are
    cast by one :func:`_cast`, so a bad one is raised before a fault that
    ``rows`` raised on a later line."""
    from .scoring import per_block  # scoring imports this module

    rows = iter(rows)
    while True:
        firsts, seconds, counts, cells, fault = [], [], [], [], None
        room = per_block(_FIELD_BYTES)
        try:
            for fields in rows:
                firsts.append(fields[0])
                seconds.append(fields[1])
                counts.append(len(fields) - 2)
                cells += fields[2:]
                room -= len(fields)
                if room <= 0:
                    break
        except DataFormatError as exc:
            fault = exc  # past every row read; raised below unless one of them holds a bad cell
        values = _cast(cells, counts, path, first_line)
        if fault is not None:
            raise fault
        if not firsts:
            return
        yield firsts, seconds, counts, values
        first_line += len(firsts)


def _cast(tokens: list[str], per_line: Iterable[int], path: str, first_line: int) -> np.ndarray:
    """``tokens`` as one float64 vector, ``per_line`` of them on each line
    from ``first_line`` on, a blank token (only a CSV cell can be one) as
    NaN. They are cast with one numpy call; only when it fails are blanks
    looked for and cast as zeros, and only when a cast or the finiteness
    check still fails are the tokens parsed one by one, to raise the first
    bad token's located error."""
    values = _finite(tokens)
    if values is None and "" in tokens:
        values = _finite([text or "0" for text in tokens])  # zeros, so that a "nan" cell is still an error
        if values is not None:
            values[[i for i, text in enumerate(tokens) if not text]] = np.nan
    if values is not None:
        return values
    lines = itertools.chain.from_iterable(itertools.repeat(first_line + i, n) for i, n in enumerate(per_line))
    return np.array([_parse_float(tok, path, line) if tok else math.nan for tok, line in zip(tokens, lines)],
                    dtype=np.float64)


def _finite(tokens: list[str]) -> np.ndarray | None:
    """``tokens`` cast with one numpy call, or None when the cast or the finiteness check fails."""
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        return None
    return values if np.all(np.isfinite(values)) else None


def unchecked(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, which the caller has
    checked, made without running its checks again: a store record of a
    token id and a finite (n_chunks, dim) float64 matrix, a trial list of
    token ids in two lists of one length, or a profile of a finite 1-D
    median. Its ``__dict__`` is filled in directly, past the frozen
    ``__setattr__``."""
    made = object.__new__(cls)
    made.__dict__.update(fields)
    return made


def write_embeddings(records: list[ChunkEmbeddings], path: str) -> None:
    """Write the store one record at a time. A mixed dimension or a duplicate
    id raises ``ValueError`` when its record is reached, and ``path`` is left
    as it was."""
    if not records:
        raise ValueError("cannot write an empty embedding store")
    atomic_write_text(str(path), _store_lines(records))


def _store_lines(records: list[ChunkEmbeddings]) -> Iterator[str]:
    dim = records[0].dim
    seen: set[str] = set()
    yield f"dim={dim}\n"
    for rec in records:
        if rec.dim != dim:
            raise ValueError(f"mixed dimensions in store: {dim} vs {rec.dim} ({rec.utt_id!r})")
        if rec.utt_id in seen:
            raise ValueError(f"duplicate utt_id {rec.utt_id!r}")
        seen.add(rec.utt_id)
        values = " ".join(map(repr, rec.chunks.ravel().tolist()))  # repr of a Python float is format_float
        yield f"{rec.utt_id} {rec.n_chunks} {values}\n"


def embeddings_by_id(records: list[ChunkEmbeddings]) -> dict[str, ChunkEmbeddings]:
    return {rec.utt_id: rec for rec in records}


# ---------------------------------------------------------------------------
# Trials and scores


@dataclass(frozen=True)
class Trial:
    """One trial as a record, the benchmark's scorer input form, which
    :func:`~svbackend.scoring.score_trials` alone still converts; every other
    function takes a :class:`TrialList`."""

    enroll_id: str
    test_id: str


def _id_fault(enroll: str, test: str) -> str | None:
    """The message naming the first id of a pair that is not a token, the
    enroll id before the test id, or None when both are tokens."""
    for name, value in (("enroll_id", enroll), ("test_id", test)):
        if not _is_token(value):
            return f"{name} must be non-empty without whitespace, got {value!r}"
    return None


@dataclass(frozen=True, eq=False)
class TrialList:
    """A trial list as columns: the enroll ids, the test ids and, when the
    list is labeled, one bool label per pair (``None`` when it is not). The
    ids are checked once for the whole list; the first that is empty or holds
    whitespace is named in a ``ValueError``. A ``list`` of ids is kept, not
    copied."""

    enroll: list[str]
    test: list[str]
    labels: np.ndarray | None = None

    def __post_init__(self):
        enroll, test = (ids if type(ids) is list else list(ids) for ids in (self.enroll, self.test))
        if len(enroll) != len(test):
            raise ValueError(f"{len(enroll)} enroll ids but {len(test)} test ids")
        # a column holds only tokens when none of its ids is empty and their concatenation holds no
        # whitespace, so the pairs are scanned only when a column fails that
        if not all(_is_token("".join(ids)) and all(ids) for ids in (enroll, test) if ids):
            raise ValueError(next(filter(None, map(_id_fault, enroll, test))))
        object.__setattr__(self, "enroll", enroll)
        object.__setattr__(self, "test", test)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype != bool or labels.shape != (len(enroll),):
                raise ValueError(f"labels must be {len(enroll)} bools, got {labels.dtype} of shape {labels.shape}")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.enroll)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialList):
            return NotImplemented
        if (self.labels is None) != (other.labels is None):
            return False
        return (self.enroll == other.enroll and self.test == other.test
                and (self.labels is None or np.array_equal(self.labels, other.labels)))

    __hash__ = None


def read_trials(path: str, expect_labels: bool | None = None) -> TrialList:
    """The trial list in file order. With ``expect_labels`` None the first
    data line decides: three fields mean a labeled list and two an unlabeled
    one, and every later line must match it; an empty file is unlabeled."""
    path = str(path)
    enroll: list[str] = []
    test: list[str] = []
    labels: list[bool] = []
    for lineno, raw in _data_lines(path):
        tokens = raw.split()
        if expect_labels is None:
            if len(tokens) not in (2, 3):
                raise DataFormatError(f"expected 2 or 3 fields, found {len(tokens)}", path=path, line=lineno)
            expect_labels = len(tokens) == 3
        if expect_labels:
            if len(tokens) == 2:
                raise DataFormatError("missing label (expected 'label enroll test')", path=path, line=lineno)
            if len(tokens) != 3:
                raise DataFormatError(f"expected 3 fields, found {len(tokens)}", path=path, line=lineno)
            label, e, t = tokens
            if label not in ("0", "1"):
                raise DataFormatError(f"invalid label {label!r}, expected 0 or 1", path=path, line=lineno)
            labels.append(label == "1")
        else:
            if len(tokens) != 2:
                raise DataFormatError(f"expected 2 fields, found {len(tokens)}", path=path, line=lineno)
            e, t = tokens
        enroll.append(e)
        test.append(t)
    labels = np.array(labels, dtype=bool) if expect_labels else None
    return unchecked(TrialList, enroll=enroll, test=test, labels=labels)  # str.split makes only tokens


def sniff_trial_labels(path: str) -> bool:
    """True when the trial list is labeled, as :func:`read_trials` infers it."""
    return read_trials(path).labels is not None


def write_trials(trials: TrialList, path: str) -> None:
    if trials.labels is None:
        lines = (f"{e} {t}\n" for e, t in zip(trials.enroll, trials.test))
    else:
        lines = (f"{int(y)} {e} {t}\n" for y, e, t in zip(trials.labels.tolist(), trials.enroll, trials.test))
    atomic_write_text(str(path), lines)


def _read_pairs(
    path: str, rows: Iterable[list[str]], first_line: int, width: int, reference: TrialList | None, lead: int = 0,
) -> tuple[TrialList, np.ndarray]:
    """(pairs, values) of a file that lines up with a trial list, read by
    :func:`_batches`; each item of ``rows`` is a pair's two token ids and
    ``width`` value cells, pair i on line ``first_line + i``. The values go
    into a :class:`RowBuffer` with ``lead`` free columns. Without a
    ``reference`` the ids are kept as the pairs returned. With one, only the
    first mismatch against it is kept, and after the last batch a count that
    differs is raised, then that mismatch on its line; the pairs returned are
    the reference."""
    values = RowBuffer(width, rows=len(reference or ()), lead=lead)
    kept_enroll, kept_test, mismatch = [], [], None
    for enroll, test, _, batch in _batches(path, rows, first_line):
        start = len(values)
        values.grow(start + len(enroll))[start:] = batch.reshape(len(enroll), width)
        if reference is None:
            kept_enroll += enroll
            kept_test += test
        elif mismatch is None:
            want_e, want_t = (ids[start:len(values)] for ids in (reference.enroll, reference.test))
            if want_e != enroll[:len(want_e)] or want_t != test[:len(want_t)]:
                i = next(i for i, pair in enumerate(zip(want_e, want_t)) if pair != (enroll[i], test[i]))
                mismatch = (start + i, enroll[i], test[i])
    if reference is None:
        return unchecked(TrialList, enroll=kept_enroll, test=kept_test, labels=None), values.take()
    if len(values) != len(reference):
        raise DataFormatError(f"expected {len(reference)} scored pairs, found {len(values)}", path=path)
    if mismatch is not None:
        i, e, t = mismatch
        raise DataFormatError(f"pair mismatch vs trial list: expected '{reference.enroll[i]} {reference.test[i]}', "
                              f"found '{e} {t}'", path=path, line=first_line + i)
    return reference, values.take()


def read_scores(path: str, reference: TrialList | None = None) -> tuple[TrialList, np.ndarray]:
    """Score file as (pair list without labels, score vector), in file order,
    read by :func:`_read_pairs`, against ``reference`` when one is given."""
    path = str(path)

    def rows() -> Iterator[list[str]]:
        for lineno, raw in _data_lines(path):
            tokens = raw.split()
            if len(tokens) != 3:
                raise DataFormatError(
                    f"expected 'enroll test score', found {len(tokens)} fields", path=path, line=lineno
                )
            yield tokens

    # no line is blank, so score i is on line i + 1, and str.split makes only tokens
    pairs, scores = _read_pairs(path, rows(), 1, 1, reference)
    return pairs, scores.reshape(-1)


def write_scores(trials: TrialList, scores, path: str) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(trials) != scores.shape[0]:
        raise ValueError(f"expected one score per trial, got {len(trials)} trials and {scores.shape} scores")
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite score")
    values = map(repr, scores.tolist())  # repr of a Python float is format_float
    atomic_write_text(str(path), (f"{e} {t} {v}\n" for e, t, v in zip(trials.enroll, trials.test, values)))


def check_score_alignment(trials: TrialList, pairs: TrialList, path: str) -> None:
    """Require that a score file's pairs line up with a trial list positionally,
    as :func:`read_scores` given the trial list as its reference requires."""
    _read_pairs(str(path), zip(pairs.enroll, pairs.test), 1, 0, trials)


# ---------------------------------------------------------------------------
# Speaker map


def read_speaker_map(path: str) -> dict[str, str]:
    path = str(path)
    mapping: dict[str, str] = {}
    for lineno, raw in _data_lines(path):
        tokens = raw.split()
        if len(tokens) != 2:
            raise DataFormatError(f"expected 'utt_id speaker_id', found {len(tokens)} fields", path=path, line=lineno)
        utt_id, speaker_id = tokens
        if utt_id in mapping:
            raise DataFormatError(f"duplicate utt_id {utt_id!r}", path=path, line=lineno)
        mapping[utt_id] = speaker_id
    return mapping


def write_speaker_map(mapping: dict[str, str], path: str) -> None:
    """One ``utt_id speaker_id`` line per entry; an id that is empty or holds
    whitespace raises ``ValueError`` and ``path`` is left as it was."""
    for value in itertools.chain.from_iterable(mapping.items()):
        if not _is_token(value):
            raise ValueError(f"speaker map id must be non-empty without whitespace, got {value!r}")
    atomic_write_text(str(path), (f"{utt} {spk}\n" for utt, spk in mapping.items()))


# ---------------------------------------------------------------------------
# Attribute schema and table


@dataclass(frozen=True)
class SchemaColumn:
    name: str
    kind: str
    transform: str

    def __post_init__(self):
        if not _is_token(self.name) or "," in self.name:
            raise ValueError(f"column name must be non-empty without whitespace or commas, got {self.name!r}")
        if self.kind == "real":
            allowed = _REAL_TRANSFORMS
        elif self.kind == "categorical":
            allowed = _CATEGORICAL_TRANSFORMS
        else:
            raise ValueError(f"unknown kind {self.kind!r}, expected 'real' or 'categorical'")
        if self.transform not in allowed:
            raise ValueError(f"transform {self.transform!r} not valid for kind {self.kind!r}")


def read_schema(path: str) -> list[SchemaColumn]:
    path = str(path)
    columns = []
    names: set[str] = set()
    for lineno, raw in _data_lines(path):
        tokens = raw.split()
        if len(tokens) != 3:
            raise DataFormatError(f"expected 'name kind transform', found {len(tokens)} fields", path=path, line=lineno)
        try:
            col = SchemaColumn(*tokens)
        except ValueError as exc:
            raise DataFormatError(str(exc), path=path, line=lineno) from None
        if col.name in names:
            raise DataFormatError(f"duplicate column {col.name!r}", path=path, line=lineno)
        names.add(col.name)
        columns.append(col)
    return columns


def write_schema(columns: list[SchemaColumn], path: str) -> None:
    atomic_write_text(str(path), (f"{c.name} {c.kind} {c.transform}\n" for c in columns))


@dataclass
class AttributeTable:
    """Per-utterance attribute values. Missing cells are ``None``."""

    columns: tuple[str, ...]
    rows: dict[str, dict[str, float | str | None]] = field(default_factory=dict)


def read_attributes(path: str, schema: list[SchemaColumn]) -> AttributeTable:
    path = str(path)
    by_name = {c.name: c for c in schema}
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise DataFormatError("missing CSV header", path=path, line=1)
    if not header or header[0] != "utt_id":
        raise DataFormatError("first CSV column must be 'utt_id'", path=path, line=1)
    names = header[1:]
    seen_cols: set[str] = set()
    for name in names:
        if name not in by_name:
            raise DataFormatError(f"unknown attribute column {name!r}", path=path, line=1)
        if name in seen_cols:
            raise DataFormatError(f"duplicate attribute column {name!r}", path=path, line=1)
        seen_cols.add(name)
    for col in schema:
        if col.name not in seen_cols:
            raise DataFormatError(f"schema column {col.name!r} missing from table", path=path, line=1)

    table = AttributeTable(columns=tuple(names))
    for lineno, fields in rows:
        if len(fields) != len(header):
            raise DataFormatError(f"expected {len(header)} fields, found {len(fields)}", path=path, line=lineno)
        utt_id = fields[0]
        if not utt_id:
            raise DataFormatError("empty utt_id", path=path, line=lineno)
        if utt_id in table.rows:
            raise DataFormatError(f"duplicate utt_id {utt_id!r}", path=path, line=lineno)
        row: dict[str, float | str | None] = {}
        for name, cell in zip(names, fields[1:]):
            if cell == "":
                row[name] = None
            elif by_name[name].kind == "real":
                row[name] = _parse_float(cell, path, lineno)
            else:
                row[name] = cell
        table.rows[utt_id] = row
    return table


def write_attributes(table: AttributeTable, path: str) -> None:
    """CSV of the table, one line handed over at a time; a missing cell is
    written blank and a real one with :func:`format_float`. A repeated
    column, an empty id, a real that is not finite or a field holding a line
    break raises ``ValueError`` and ``path`` is left as it was."""
    _require_unique(table.columns, "attribute column")
    atomic_write_text(str(path), itertools.chain(
        (_csv_line(("utt_id", *table.columns)),),
        (_csv_line((_attribute_id(utt_id), *(_attribute_cell(row.get(name)) for name in table.columns)))
         for utt_id, row in table.rows.items()),
    ))


def _require_unique(names: Iterable[str], what: str) -> None:
    """Raise ``ValueError`` for the first name of ``names`` that repeats an earlier one."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {what} {name!r}")
        seen.add(name)


def _attribute_id(utt_id: str) -> str:
    if not utt_id:
        raise ValueError("empty utt_id")
    return utt_id


def _attribute_cell(value: float | str | None) -> str:
    if value is None:
        return ""
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite attribute value {value!r}")
    return format_float(value)


# ---------------------------------------------------------------------------
# Trial feature table (per-trial quality features)


def write_trial_features(trials: TrialList, names: list[str], matrix, path: str) -> None:
    """CSV of per-trial features; NaN cells are written blank (missing). A
    repeated name, an infinite value or a field holding a line break raises
    ``ValueError`` and ``path`` is left as it was."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(trials), len(names)):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(trials)} trials x {len(names)} features")
    _require_unique(names, "feature column")
    header = _csv_line(["enroll", "test", *names])
    ids = map("{},{}".format, map(_csv_field, trials.enroll), map(_csv_field, trials.test))
    if names:
        lines = (f"{i},{row}\n" for i, row in zip(ids, _feature_rows(matrix)))
    else:
        lines = (f"{i}\n" for i in ids)
    atomic_write_text(str(path), itertools.chain((header,), lines))


def _feature_rows(matrix: np.ndarray) -> Iterator[str]:
    """Each row of ``matrix`` as its comma-joined cells, formatted a block of
    rows at a time: within a block each distinct bit pattern is formatted
    once, so 0.0 and -0.0 stay apart. repr of a Python float is format_float,
    and every NaN is written blank; an infinite value raises ``ValueError``.
    A cell's text takes up to about eight times its 8 bytes, so a block of
    cells whose texts fit in ``COSINE_BLOCK_BYTES`` holds an eighth of that
    in values."""
    from .scoring import blocks  # scoring imports this module

    for rows in blocks(matrix.shape[0], 8 * matrix.shape[1] * 8):
        block = matrix[rows]
        patterns, inverse = np.unique(block.view(np.int64), return_inverse=True)
        distinct = patterns.view(np.float64)
        if np.isinf(distinct).any():
            raise ValueError("infinite feature value")
        texts = ["" if v != v else repr(v) for v in distinct.tolist()]
        for row in inverse.reshape(block.shape).tolist():
            yield ",".join([texts[k] for k in row])


def read_trial_features(
    path: str, reference: TrialList | None = None, lead: int = 0
) -> tuple[TrialList, list[str], np.ndarray]:
    """(pairs, feature names, matrix) of a trial feature table, its rows read
    by :func:`_read_pairs` as the score reader's are, the pair on line i + 2
    being pair i; given a ``reference`` the matrix is made for its length at
    once. The matrix has ``lead`` more columns before the features, which
    are left for the caller to fill."""
    path = str(path)
    records = _csv_rows(path)
    _, header = next(records, (1, None))
    if header is None:
        raise DataFormatError("missing CSV header", path=path, line=1)
    if len(header) < 2 or header[0] != "enroll" or header[1] != "test":
        raise DataFormatError("header must start with 'enroll,test'", path=path, line=1)
    names = header[2:]
    if len(set(names)) != len(names):
        raise DataFormatError("duplicate feature columns", path=path, line=1)

    def rows() -> Iterator[list[str]]:
        for lineno, fields in records:
            if len(fields) != len(header):
                raise DataFormatError(f"expected {len(header)} fields, found {len(fields)}", path=path, line=lineno)
            if not (_is_token(fields[0]) and _is_token(fields[1])):
                raise DataFormatError(_id_fault(fields[0], fields[1]), path=path, line=lineno)
            yield fields

    trials, matrix = _read_pairs(path, rows(), 2, len(names), reference, lead)  # line 1 is the header
    return trials, names, matrix


def read_fusion_features(
    score_paths: Iterable[str],
    qmf_path: str | None = None,
    reference: TrialList | None = None,
) -> tuple[TrialList, list[str], np.ndarray]:
    """(pairs, names, raw matrix) of fusion's columns: one per score file, named
    by its stem, then the feature table's, each file checked against
    ``reference`` as it is read (the first score file's pairs when None).
    Names are unique. The feature table is cast straight into the one
    matrix, and the score columns are copied in."""
    names: list[str] = []
    columns: list[np.ndarray] = []
    for path in score_paths:
        reference, values = read_scores(path, reference)
        name = Path(path).stem
        if name in names:
            raise DataFormatError(f"duplicate score feature name {name!r} (from {path})")
        names.append(name)
        columns.append(values)
    if qmf_path is None:
        matrix = np.empty((len(reference), len(columns)))
    else:
        reference, qmf_names, matrix = read_trial_features(qmf_path, reference, lead=len(columns))
        for name in qmf_names:
            if name in names:
                raise DataFormatError(f"duplicate feature name {name!r} (from {qmf_path})")
        names += qmf_names
    for j, values in enumerate(columns):
        matrix[:, j] = values
    return reference, names, matrix


# ---------------------------------------------------------------------------
# Distractor selection table


def write_selections(rows, path: str) -> None:
    """CSV of ``(speaker_id, max_similarity, nearest_target)`` rows, in the
    given order, one line handed over at a time."""
    atomic_write_text(str(path), itertools.chain(
        (_csv_line(("speaker_id", "max_similarity", "nearest_target")),),
        (_csv_line((speaker_id, format_float(similarity), nearest)) for speaker_id, similarity, nearest in rows),
    ))


# ---------------------------------------------------------------------------
# Fusion model file


def _feature_vector(values, k: int, name: str) -> np.ndarray:
    """``values`` as a finite float vector of one entry per feature."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (k,):
        raise ValueError(f"{name} must have shape ({k},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {name}")
    return arr


@dataclass(frozen=True)
class MinMaxParams:
    """Per-feature scaling fixed at fit time: observed range and median."""

    names: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    median: np.ndarray

    def __post_init__(self):
        for attr in ("lo", "hi", "median"):
            object.__setattr__(self, attr, _feature_vector(getattr(self, attr), len(self.names), attr))
        if np.any(self.lo > self.hi):
            raise ValueError("feature minimum above feature maximum")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")


@dataclass
class FusionModel:
    """Fitted fusion weights plus the feature scaling fixed at fit time."""

    scaling: MinMaxParams
    weights: np.ndarray
    intercept: float
    lam: float

    def __post_init__(self):
        self.weights = _feature_vector(self.weights, len(self.feature_names), "weights")
        if not math.isfinite(self.intercept):
            raise ValueError("non-finite intercept")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.scaling.names


def save_fusion_model(model: FusionModel, path: str) -> None:
    scaling = model.scaling
    payload = {
        "feature_names": list(model.feature_names),
        "weights": [float(w) for w in model.weights],
        "intercept": float(model.intercept),
        "minmax": [[float(lo), float(hi)] for lo, hi in zip(scaling.lo, scaling.hi)],
        "medians": [float(m) for m in scaling.median],
        "lambda": float(model.lam),
    }
    atomic_write_text(str(path), json.dumps(payload, indent=2) + "\n")


def _json_number(value, name: str) -> float:
    """``value`` as a float when it is a JSON number; a bool or a numeric string raises ``ValueError``."""
    if type(value) not in (int, float):  # a JSON bool loads as a bool, a subclass of int
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_numbers(values, name: str) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError(f"{name} must be an array of numbers")
    return np.array([_json_number(value, name) for value in values], dtype=np.float64)


def load_fusion_model(path: str) -> FusionModel:
    """The model :func:`save_fusion_model` wrote; a value of a JSON type it does not write is refused."""
    path = str(path)
    text = read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}", path=path, line=exc.lineno) from None
    if not isinstance(payload, dict):
        raise DataFormatError("model file must hold a JSON object", path=path)
    required = ("feature_names", "weights", "intercept", "minmax", "medians", "lambda")
    for key in required:
        if key not in payload:
            raise DataFormatError(f"missing key {key!r}", path=path)
    try:
        names, minmax = payload["feature_names"], payload["minmax"]
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise ValueError("feature_names must be an array of strings")
        if not isinstance(minmax, list) or not all(isinstance(pair, list) and len(pair) == 2 for pair in minmax):
            raise ValueError("minmax must be an array of [lo, hi] pairs")
        lo, hi = (_json_numbers([pair[k] for pair in minmax], "minmax") for k in (0, 1))
        scaling = MinMaxParams(names=tuple(names), lo=lo, hi=hi, median=_json_numbers(payload["medians"], "medians"))
        model = FusionModel(
            scaling=scaling,
            weights=_json_numbers(payload["weights"], "weights"),
            intercept=_json_number(payload["intercept"], "intercept"),
            lam=_json_number(payload["lambda"], "lambda"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"invalid model contents: {exc}", path=path) from None
    return model
