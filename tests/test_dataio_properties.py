"""Property tests: the store reader against its token-by-token oracle, the
block-streamed line source against the whole-file read, the trial feature
reader against its csv one and against strict csv on every line, the score
reader against its per-line one (both with two faults, the first in line
order raised, and at block sizes of a few rows), the score and feature
readers against each other on one set of pairs, the trial list's
whole-list id check against the per-id one, the table writers against their
csv.writer and format_float oracles, writer round trips, the metric and
scaling kernels against numpy's, and the batched trial scorer against the
one-trial scorer."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import trial_list
from svbackend import dataio, metrics, qmf, scoring
from svbackend.asnorm import asnorm_trials
from svbackend.dataio import ChunkEmbeddings, TrialList
from svbackend.errors import DataFormatError, DegenerateCohortError

ID_CHARS = "abcxyz019_-.:"
finite = st.floats(allow_nan=False, allow_infinity=False)
# Spellings float() accepts; none rounds a finite value past the largest double.
value_tokens = st.one_of(
    finite.map(repr),
    finite.map("{:.17g}".format),
    finite.map("{:.6e}".format),
    st.sampled_from(["1_0", "+.5", "5.", "-0", "0e0", "1E-400", "１２", "٣", "7"]),
)
ids = st.text(ID_CHARS, min_size=1, max_size=6)


def token_read_embeddings(path):
    """The store reader as it was before its numpy fast path: every value parsed
    token by token. Kept here as the oracle for records and error text."""
    path = str(path)
    lines = list(enumerate(dataio.read_text(path).splitlines(), start=1))
    for lineno, raw in lines:
        if raw.strip() == "":
            raise DataFormatError("blank line", path=path, line=lineno)
    if not lines:
        raise DataFormatError("missing 'dim=<D>' header", path=path, line=1)
    header_no, header = lines[0]
    header = header.strip()
    if not header.startswith("dim="):
        raise DataFormatError(f"malformed header {header!r}, expected 'dim=<D>'", path=path, line=header_no)
    try:
        dim = int(header[len("dim="):])
    except ValueError:
        raise DataFormatError(f"malformed header {header!r}, expected 'dim=<D>'", path=path, line=header_no) from None
    if dim < 1:
        raise DataFormatError(f"dimension must be >= 1, got {dim}", path=path, line=header_no)
    records = []
    seen = set()
    for lineno, raw in lines[1:]:
        tokens = raw.split()
        if len(tokens) < 2:
            raise DataFormatError("expected 'utt_id n_chunks v1 ...'", path=path, line=lineno)
        utt_id = tokens[0]
        try:
            n_chunks = int(tokens[1])
        except ValueError:
            raise DataFormatError(f"invalid chunk count {tokens[1]!r}", path=path, line=lineno) from None
        if n_chunks < 1:
            raise DataFormatError(f"chunk count must be >= 1, got {n_chunks}", path=path, line=lineno)
        expected = n_chunks * dim
        values = tokens[2:]
        if len(values) != expected:
            raise DataFormatError(
                f"expected {expected} values for {n_chunks} chunks of dim {dim}, found {len(values)}",
                path=path,
                line=lineno,
            )
        if utt_id in seen:
            raise DataFormatError(f"duplicate utt_id {utt_id!r}", path=path, line=lineno)
        seen.add(utt_id)
        flat = np.array([dataio._parse_float(tok, path, lineno) for tok in values], dtype=np.float64)
        records.append(ChunkEmbeddings(utt_id, flat.reshape(n_chunks, dim)))
    return records


def outcome(reader, path):
    """Records as (id, shape, bytes), or the error text."""
    try:
        return [(r.utt_id, r.chunks.shape, r.chunks.tobytes()) for r in reader(path)]
    except DataFormatError as exc:
        return ("DataFormatError", str(exc))


@st.composite
def store_lines(draw, tokens=value_tokens):
    """Header plus record lines, each a token list: ragged chunk counts, dims 1-16."""
    dim = draw(st.integers(1, 16))
    utts = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    records = []
    for utt in utts:
        n = draw(st.integers(1, 4))
        count = draw(st.sampled_from([str(n), f"+{n}", f"0{n}"]))
        records.append([utt, count] + draw(st.lists(tokens, min_size=n * dim, max_size=n * dim)))
    return f"dim={dim}", records


def render(header, records, lead="", sep=" ", trail=""):
    return header + "\n" + "".join(lead + sep.join(tokens) + trail + "\n" for tokens in records)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return tmp_path_factory.mktemp("stores") / "embeddings.txt"


@given(store_lines(), st.data())
def test_reader_returns_the_token_path_records_bit_for_bit(store_path, store, data):
    header, records = store
    lead, sep, trail = (data.draw(st.sampled_from(choices)) for choices in (["", " "], [" ", "  ", "\t"], ["", " \t"]))
    store_path.write_text(render(header, records, lead, sep, trail), encoding="utf-8")
    expected = outcome(token_read_embeddings, store_path)
    assert expected[0] != "DataFormatError"
    assert outcome(dataio.read_embeddings, store_path) == expected


@given(store_lines(tokens=finite.map(repr)), st.data())
def test_mutated_store_raises_the_token_path_error(store_path, store, data):
    header, records = store
    i = data.draw(st.integers(0, len(records) - 1))
    line = records[i]
    kind = data.draw(st.sampled_from(["value", "drop", "add", "duplicate", "count", "blank"]))
    j = data.draw(st.integers(2, len(line) - 1))
    if kind == "value":
        line[j] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "x"]))
    elif kind == "drop":
        del line[j]
    elif kind == "add":
        line.insert(j, "0.5")
    elif kind == "duplicate":
        records.insert(data.draw(st.integers(i + 1, len(records))), list(line))
    elif kind == "count":
        line[1] = data.draw(st.sampled_from(["0", "2.0", "x"]))
    text = render(header, records)
    if kind == "blank":
        lines = text.splitlines(keepends=True)
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["\n", "  \n"])))
        text = "".join(lines)
    store_path.write_text(text, encoding="utf-8")
    expected = outcome(token_read_embeddings, store_path)
    assert expected[0] == "DataFormatError"
    assert outcome(dataio.read_embeddings, store_path) == expected


# ---------------------------------------------------------------------------
# The block-streamed line source against the whole-file read

# Pieces of line text: every line break str.splitlines splits at, and
# characters of 1 to 4 UTF-8 bytes.
line_text = st.lists(st.sampled_from([
    "a", "bc", " ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\u00e9", "\u20ac", "\U0001f600",
]), max_size=30).map("".join)


@given(line_text)
def test_line_source_yields_the_whole_file_lines_at_every_block_size(store_path, text):
    store_path.write_bytes(text.encode("utf-8"))
    expected = list(enumerate(dataio.read_text(store_path).splitlines(), start=1))
    for block in range(1, 8):
        with mock.patch.object(dataio, "_BLOCK_BYTES", block):
            assert list(dataio._lines(str(store_path))) == expected


@given(line_text, st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"]), st.data())
def test_line_source_locates_bytes_that_are_not_utf8_as_read_text_does(store_path, text, bad, data):
    at = data.draw(st.integers(0, len(text)))
    store_path.write_bytes(text[:at].encode("utf-8") + bad + text[at:].encode("utf-8"))
    with pytest.raises(DataFormatError) as whole:
        dataio.read_text(store_path)
    before = (text[:at] + "_").splitlines()[:-1]  # the lines wholly before the fault's
    assert whole.value.line == len(before) + 1
    for block in range(1, 8):
        streamed = []
        with mock.patch.object(dataio, "_BLOCK_BYTES", block), pytest.raises(DataFormatError) as err:
            for item in dataio._lines(str(store_path)):
                streamed.append(item)
        assert str(err.value) == str(whole.value)
        assert streamed == list(enumerate(before, start=1))


# ---------------------------------------------------------------------------
# Writer round trips


def chunk_matrices(dim, max_chunks=4):
    rows = st.lists(finite, min_size=dim, max_size=dim)
    return st.lists(rows, min_size=1, max_size=max_chunks).map(lambda m: np.array(m, dtype=np.float64))


@given(st.integers(1, 16).flatmap(lambda dim: st.lists(chunk_matrices(dim), min_size=1, max_size=6)), st.data())
def test_write_then_read_embeddings_is_identity(store_path, matrices, data):
    utts = data.draw(st.lists(ids, min_size=len(matrices), max_size=len(matrices), unique=True))
    records = [ChunkEmbeddings(u, m) for u, m in zip(utts, matrices)]
    dataio.write_embeddings(records, store_path)
    back = dataio.read_embeddings(store_path)
    assert [(r.utt_id, r.chunks.shape, r.chunks.tobytes()) for r in back] == [
        (r.utt_id, r.chunks.shape, r.chunks.tobytes()) for r in records
    ]


@given(st.lists(st.tuples(ids, ids, finite), max_size=20))
def test_write_then_read_scores_is_identity(store_path, rows):
    trials = trial_list((e, t) for e, t, _ in rows)
    scores = np.array([s for _, _, s in rows], dtype=np.float64)
    dataio.write_scores(trials, scores, store_path)
    back_trials, back_scores = dataio.read_scores(store_path)
    assert back_trials == trials
    assert back_scores.tobytes() == scores.tobytes()


@given(st.booleans().flatmap(lambda labeled: st.lists(
    st.tuples(ids, ids, st.booleans() if labeled else st.none()), max_size=20)))
def test_write_then_read_trials_is_identity(store_path, rows):
    labeled = any(y is not None for _, _, y in rows)
    trials = trial_list(((e, t) for e, t, _ in rows), [y for _, _, y in rows] if labeled else None)
    dataio.write_trials(trials, store_path)
    assert dataio.read_trials(store_path, expect_labels=labeled) == trials


# ---------------------------------------------------------------------------
# The trial feature table and the score writer against their csv and format_float oracles


def csv_read_trial_features(path):
    """read_trial_features as it was before its whole-file fast path: csv.reader
    and one _parse_float per cell."""
    path = str(path)
    return checked_feature_table(path, enumerate(csv.reader(dataio.read_text(path).splitlines()), start=1))


def strict_csv_read_trial_features(path):
    """read_trial_features with every line read by one strict csv.reader, as it
    read them before it split plain lines on commas: a fault of the reader,
    or a record that runs past the end of its line, is located at the line
    where the record starts."""
    path = str(path)

    def records():
        reader = csv.reader(dataio.read_text(path).splitlines(), strict=True)
        lineno = 0
        while True:
            try:
                fields = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise DataFormatError(f"malformed CSV: {exc}", path=path, line=lineno + 1) from None
            lineno += 1
            if reader.line_num != lineno:
                raise DataFormatError("quoted field runs past the end of its line", path=path, line=lineno)
            yield lineno, fields

    return checked_feature_table(path, records())


def checked_feature_table(path, records):
    """The feature table of (line number, fields) records, each record checked
    in full, with one _parse_float per cell, before the next is read."""
    _, header = next(records, (1, None))
    if header is None:
        raise DataFormatError("missing CSV header", path=path, line=1)
    if len(header) < 2 or header[0] != "enroll" or header[1] != "test":
        raise DataFormatError("header must start with 'enroll,test'", path=path, line=1)
    names = header[2:]
    if len(set(names)) != len(names):
        raise DataFormatError("duplicate feature columns", path=path, line=1)
    enroll, test = [], []
    rows = []
    for lineno, fields in records:
        if len(fields) != len(header):
            raise DataFormatError(f"expected {len(header)} fields, found {len(fields)}", path=path, line=lineno)
        for name, value in (("enroll_id", fields[0]), ("test_id", fields[1])):
            if not dataio._is_token(value):
                raise DataFormatError(f"{name} must be non-empty without whitespace, got {value!r}",
                                      path=path, line=lineno)
        enroll.append(fields[0])
        test.append(fields[1])
        rows.append([math.nan if cell == "" else dataio._parse_float(cell, path, lineno) for cell in fields[2:]])
    return TrialList(enroll, test), names, np.asarray(rows, dtype=np.float64).reshape(len(enroll), len(names))


def csv_writer_text(rows) -> str:
    """The text ``csv.writer`` writes for ``rows``, one line each."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def csv_write_trial_features(trials, names, matrix):
    """The text write_trial_features wrote through csv.writer and format_float."""
    return csv_writer_text([["enroll", "test", *names]] + [
        [e, t] + ["" if math.isnan(v) else dataio.format_float(v) for v in row]
        for e, t, row in zip(trials.enroll, trials.test, np.asarray(matrix, dtype=np.float64))])


def table_outcome(reader, *args):
    """("ok", result with every float array as (shape, bytes)), or the error text."""
    try:
        result = reader(*args)
    except DataFormatError as exc:
        return ("DataFormatError", str(exc))
    return ("ok", tuple((r.shape, r.tobytes()) if isinstance(r, np.ndarray) else r for r in result))


BAD_VALUES = ["nan", "inf", "-inf", "1e999", "x"]
feature_cells = st.one_of(value_tokens, st.just(""))


@st.composite
def feature_tables(draw):
    """A trial feature table as rows of CSV fields, header first. In half of the
    tables ids and names may hold commas and quotes, which csv.writer quotes and
    which send the table to the csv path."""
    quoting = draw(st.booleans())
    id_text = st.text(ID_CHARS + ',"' if quoting else ID_CHARS, min_size=1, max_size=6)
    names = draw(st.lists(st.text('fgh_ ,"' if quoting else "fgh_ ", min_size=1, max_size=5), max_size=5, unique=True))
    rows = [["enroll", "test", *names]]
    for _ in range(draw(st.integers(0, 6))):
        cells = draw(st.lists(feature_cells, min_size=len(names), max_size=len(names)))
        rows.append([draw(id_text), draw(id_text), *cells])
    return rows


def render_csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@given(feature_tables(), st.booleans(), st.data())
def test_trial_feature_reader_matches_the_csv_path(store_path, rows, mutated, data):
    kind = None
    if mutated:
        # each kind but "blank" faults one line and keeps every other line's field count
        kind = data.draw(st.sampled_from(["drop", "add", "value", "duplicate", "id", "blank"]))
        if kind == "duplicate":
            added = rows[0][-1:] if len(rows[0]) > 2 else ["f", "f"]
        else:
            added = ["f"] if kind == "value" and len(rows[0]) == 2 else []  # a column for the bad value
        rows[0] += added
        for row in rows[1:]:
            row += ["0.5"] * len(added)
        if len(rows) == 1:
            rows.append(["u", "v", *["0.5"] * (len(rows[0]) - 2)])
        line = rows[data.draw(st.integers(1, len(rows) - 1))]
        if kind == "drop":
            del line[data.draw(st.integers(0, len(line) - 1))]
        elif kind == "add":
            line.insert(data.draw(st.integers(0, len(line))), data.draw(feature_cells))
        elif kind == "value":
            line[data.draw(st.integers(2, len(line) - 1))] = data.draw(st.sampled_from(BAD_VALUES))
        elif kind == "id":
            line[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(["", "a b", "\t"]))
    text = render_csv(rows)
    if kind == "blank":
        lines = text.splitlines(keepends=True)
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.sampled_from(["\n", " \n"])))
        text = "".join(lines)
    store_path.write_text(text, encoding="utf-8")
    expected = table_outcome(csv_read_trial_features, store_path)
    assert table_outcome(dataio.read_trial_features, store_path) == expected
    assert expected[0] == ("DataFormatError" if mutated else "ok")


def token_read_scores(path):
    """read_scores as it was before its one-cast path: each line's fields and
    then its score checked in turn, one _parse_float per score."""
    path = str(path)
    enroll, test, scores = [], [], []
    for lineno, raw in enumerate(dataio.read_text(path).splitlines(), start=1):
        if raw.strip() == "":
            raise DataFormatError("blank line", path=path, line=lineno)
        tokens = raw.split()
        if len(tokens) != 3:
            raise DataFormatError(f"expected 'enroll test score', found {len(tokens)} fields", path=path, line=lineno)
        enroll.append(tokens[0])
        test.append(tokens[1])
        scores.append(dataio._parse_float(tokens[2], path, lineno))
    return dataio.TrialList(enroll, test), np.array(scores, dtype=np.float64)


@given(st.lists(st.tuples(ids, ids, value_tokens), min_size=1, max_size=8), st.data())
def test_score_reader_raises_the_first_fault_in_line_order(store_path, rows, data):
    # a bad score before a later structural fault is raised first, and after one it is not
    lines = [f"{e} {t} {v}" for e, t, v in rows]
    faulty = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=min(2, len(lines)), max_size=2, unique=True))
    for i in faulty:
        e, t, v = rows[i]
        lines[i] = data.draw(st.sampled_from([
            f"{e} {t} {data.draw(st.sampled_from(BAD_VALUES))}", f"{e} {t}", f"{e} {t} {v} {v}", " ",
        ]))
    store_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = table_outcome(token_read_scores, store_path)
    assert table_outcome(dataio.read_scores, store_path) == expected
    assert expected[1].startswith(f"{store_path}:{min(faulty) + 1}: ")


@given(feature_tables(), st.data())
def test_trial_feature_reader_raises_the_first_fault_in_line_order(store_path, rows, data):
    # a bad cell before a later short row or bad id is raised first, and after one it is not
    if len(rows[0]) == 2:
        rows = [[*row, "0.5"] for row in rows]
        rows[0][-1] = "f"
    while len(rows) < 3:
        rows.append(["u", "v", *["0.5"] * (len(rows[0]) - 2)])
    faulty = data.draw(st.lists(st.integers(1, len(rows) - 1), min_size=2, max_size=2, unique=True))
    for i in faulty:
        kind = data.draw(st.sampled_from(["value", "short", "id"]))
        if kind == "value":
            rows[i][data.draw(st.integers(2, len(rows[i]) - 1))] = data.draw(st.sampled_from(BAD_VALUES))
        elif kind == "short":
            del rows[i][data.draw(st.integers(0, len(rows[i]) - 1))]
        else:
            rows[i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(["", "a b", "\t", '"q r"']))
    store_path.write_text(render_csv(rows), encoding="utf-8")
    expected = table_outcome(csv_read_trial_features, store_path)
    assert table_outcome(dataio.read_trial_features, store_path) == expected
    assert expected[1].startswith(f"{store_path}:{min(faulty) + 1}: ")


FIELD_LIMIT = 32  # csv.field_size_limit() in the tests below: above every field feature_tables draws
LINE_EDITS = {"nul": "\0", "long": "x" * (FIELD_LIMIT + 1), "quote": '"', "comma": ",", "space": " ", "letter": "x",
              "empty": None}


@given(feature_tables(), st.lists(st.tuples(st.sampled_from(sorted(LINE_EDITS)), st.integers(0, 99), st.integers(0, 99)),
                                  max_size=2), st.integers(1, 320))
def test_trial_feature_reader_splits_plain_lines_as_strict_csv_reads_them(store_path, rows, edits, budget):
    """Lines shorter and longer than the field limit, quoted ids and names
    holding commas and quotes, blank cells, and up to two lines edited with a
    NUL byte, a field over the limit, a stray quote, comma, space or letter,
    or no text: the reader, which splits plain lines on commas and casts
    blocks of one to five rows here, gives the ids, names, values or located
    error of strict csv on every line."""
    lines = render_csv(rows).splitlines()
    for kind, line_at, char_at in edits:
        i = line_at % len(lines)
        k = char_at % (len(lines[i]) + 1)
        lines[i] = "" if LINE_EDITS[kind] is None else lines[i][:k] + LINE_EDITS[kind] + lines[i][k:]
    store_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        expected = table_outcome(strict_csv_read_trial_features, store_path)
        with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
            assert table_outcome(dataio.read_trial_features, store_path) == expected
    finally:
        csv.field_size_limit(limit)


@given(st.lists(st.tuples(ids, ids, value_tokens), min_size=1, max_size=12), st.integers(64, 256), st.data())
def test_score_reader_blocks_give_the_per_line_outcome(store_path, rows, budget, data):
    """With blocks of one to four scores, each cast on its own, a bad score
    and maybe a short line give the per-line reader's first error."""
    lines = [f"{e} {t} {v}" for e, t, v in rows]
    bad = data.draw(st.integers(0, len(lines) - 1))
    lines[bad] = f"{rows[bad][0]} {rows[bad][1]} {data.draw(st.sampled_from(BAD_VALUES))}"
    if data.draw(st.booleans()):
        short = data.draw(st.integers(0, len(lines) - 1))
        lines[short] = f"{rows[short][0]} {rows[short][1]}"
    store_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        got = table_outcome(dataio.read_scores, store_path)
    assert got == table_outcome(token_read_scores, store_path)


def read_then_check_pairs(reader, path, reference, first_line):
    """``reader(path)``, then its pairs checked against ``reference`` as the
    fusion and eval stages checked them after reading the whole file: the
    count first, then the first mismatched pair, named on its file line (pair
    i is on line ``first_line + i``)."""
    pairs, *rest = reader(path)
    if len(pairs) != len(reference):
        raise DataFormatError(f"expected {len(reference)} scored pairs, found {len(pairs)}", path=str(path))
    for i, (want, got) in enumerate(zip(zip(reference.enroll, reference.test), zip(pairs.enroll, pairs.test))):
        if want != got:
            raise DataFormatError(f"pair mismatch vs trial list: expected '{want[0]} {want[1]}', "
                                  f"found '{got[0]} {got[1]}'", path=str(path), line=first_line + i)
    return (reference, *rest)


def edited_pairs(data, pairs):
    """A trial list of ``pairs`` as they are, with one dropped or added, or
    with one id changed."""
    pairs = [list(pair) for pair in pairs]
    kind = data.draw(st.sampled_from(["same", "drop", "add", "id"] if pairs else ["same", "add"]))
    if kind == "drop":
        del pairs[data.draw(st.integers(0, len(pairs) - 1))]
    elif kind == "add":
        pairs.insert(data.draw(st.integers(0, len(pairs))), [data.draw(ids), data.draw(ids)])
    elif kind == "id":
        pairs[data.draw(st.integers(0, len(pairs) - 1))][data.draw(st.integers(0, 1))] += "q"
    return dataio.TrialList([e for e, _ in pairs], [t for _, t in pairs])


@given(st.lists(st.tuples(ids, ids, value_tokens), max_size=12), st.integers(64, 256), st.data())
def test_score_reader_checks_pairs_against_a_reference_as_reading_then_checking_does(store_path, rows, budget, data):
    """With blocks of one to four scores, a reference that is the file's
    pairs, one short, one longer or with one id changed, and maybe a bad
    score or a short line: the scores, or the first of a format fault, a
    count that differs and a mismatched pair with its line."""
    reference = edited_pairs(data, [(e, t) for e, t, _ in rows])
    lines = [f"{e} {t} {v}" for e, t, v in rows]
    if lines and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = data.draw(st.sampled_from([f"{rows[i][0]} {rows[i][1]} nan", f"{rows[i][0]} {rows[i][1]}"]))
    store_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        got = table_outcome(dataio.read_scores, store_path, reference)
    assert got == table_outcome(read_then_check_pairs, dataio.read_scores, store_path, reference, 1)


@given(feature_tables(), st.integers(1, 320), st.data())
def test_feature_reader_checks_pairs_against_a_reference_as_reading_then_checking_does(store_path, rows, budget,
                                                                                       data):
    """As the score reader's test above, for feature tables read a block of
    one to five rows at a time, where pair i is on line i + 2."""
    reference = edited_pairs(data, [row[:2] for row in rows[1:]])
    if len(rows) > 1 and len(rows[0]) > 2 and data.draw(st.booleans()):
        row = rows[data.draw(st.integers(1, len(rows) - 1))]
        kind = data.draw(st.sampled_from(["value", "short", "id"]))
        if kind == "value":
            row[data.draw(st.integers(2, len(row) - 1))] = data.draw(st.sampled_from(BAD_VALUES))
        elif kind == "short":
            del row[data.draw(st.integers(0, len(row) - 1))]
        else:
            row[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(["", "a b"]))
    store_path.write_text(render_csv(rows), encoding="utf-8")
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        got = table_outcome(dataio.read_trial_features, store_path, reference)
    assert got == table_outcome(read_then_check_pairs, dataio.read_trial_features, store_path, reference, 2)


def located_outcome(reader, path, reference):
    """("ok", pairs, values as one column's bytes), or ("error", message
    without its path and line, line)."""
    try:
        pairs, *rest = reader(path, reference)
    except DataFormatError as exc:
        prefix = f"{exc.path}:" if exc.line is None else f"{exc.path}:{exc.line}:"
        return "error", str(exc)[len(prefix) + 1:], exc.line
    return "ok", pairs, rest[-1].reshape(-1).tobytes()


@given(st.lists(st.tuples(ids, ids, finite), max_size=12), st.integers(64, 256), st.data())
def test_score_and_feature_readers_read_one_set_of_pairs_alike(store_path, rows, budget, data):
    """A score file and a one-column feature table written from the same
    pairs and values, read in blocks of one to four rows, maybe with a
    ``zebra`` or ``inf`` value at row i and maybe against a reference with a
    pair changed, dropped or added: the same pairs and bits, or the same
    message, on line i + 1 of the score file and line i + 2 of the table."""
    trials = trial_list((e, t) for e, t, _ in rows)
    values = np.array([v for _, _, v in rows], dtype=np.float64)
    scores_path, table_path = store_path.with_name("scores.txt"), store_path.with_name("table.csv")
    dataio.write_scores(trials, values, scores_path)
    dataio.write_trial_features(trials, ["f"], values[:, None], table_path)
    bad = data.draw(st.none() | st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(["zebra", "inf"]))
                    if rows else st.none())
    if bad is not None:
        i, token = bad
        for path, at, text in ((scores_path, i, f"{rows[i][0]} {rows[i][1]} {token}"),
                               (table_path, i + 1, f"{rows[i][0]},{rows[i][1]},{token}")):
            lines = path.read_text().splitlines()
            lines[at] = text
            path.write_text("".join(line + "\n" for line in lines))
    reference = edited_pairs(data, [(e, t) for e, t, _ in rows]) if data.draw(st.booleans()) else None
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        from_scores = located_outcome(dataio.read_scores, scores_path, reference)
        from_table = located_outcome(dataio.read_trial_features, table_path, reference)
    if bad is None and reference in (None, trials):
        assert from_scores == from_table == ("ok", trials, values.tobytes())
    else:
        kind, message, line = from_scores
        assert kind == "error"
        assert from_table == (kind, message, None if line is None else line + 1)
        if bad is not None:
            expected = f"invalid float {token!r}" if token == "zebra" else f"non-finite value {token!r}"
            assert (message, line) == (expected, i + 1)


# every character str.split splits on, and ids made of them, of letters, or empty
WHITESPACE = "".join(filter(str.isspace, map(chr, range(0x110000))))
id_or_not = st.one_of(st.text("ab", min_size=1, max_size=3), st.text(WHITESPACE + "ab", max_size=3))


@given(st.lists(st.tuples(id_or_not, id_or_not), max_size=6))
def test_trial_list_id_check_is_the_per_id_token_check(pairs):
    expected = next((
        f"{name} must be non-empty without whitespace, got {value!r}"
        for pair in pairs for name, value in zip(("enroll_id", "test_id"), pair) if not dataio._is_token(value)
    ), None)
    try:
        trials = dataio.TrialList([e for e, _ in pairs], [t for _, t in pairs])
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None and len(trials) == len(pairs)


# every float, NaN and +-inf included, plus values whose repr takes exponent form
any_float = st.one_of(st.floats(), st.sampled_from([-0.0, 1e16, 1e22, -1e-7, 5e-324, 1.5e-5, 123456789012345680.0]))
finite_float = any_float.filter(math.isfinite)
feature_float = any_float.filter(lambda v: not math.isinf(v))  # what write_trial_features writes: NaN but no +-inf


@given(st.lists(st.text(ID_CHARS + '," ', max_size=5), max_size=4), st.data())
def test_write_trial_features_matches_csv_writer_bytes(store_path, names, data):
    n = data.draw(st.integers(0, 5))
    id_text = st.text(ID_CHARS + ',"', min_size=1, max_size=6)
    trials = trial_list((data.draw(id_text), data.draw(id_text)) for _ in range(n))
    matrix = np.array(data.draw(st.lists(st.lists(feature_float, min_size=len(names), max_size=len(names)),
                                         min_size=n, max_size=n)), dtype=np.float64).reshape(n, len(names))
    dataio.write_trial_features(trials, names, matrix, store_path)
    assert store_path.read_bytes() == csv_write_trial_features(trials, names, matrix).encode("utf-8")


def test_write_trial_features_matches_csv_writer_bytes_on_repeated_bit_patterns(store_path):
    # 0.0 and -0.0 compare equal but print apart; NaNs of any sign or payload print blank
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    matrix = np.array([[0.0, -0.0, nans[0], 0.1], [-0.0, 0.0, 0.1, nans[1]], [0.1, 0.1, nans[2], -0.0]])
    trials = trial_list([("a", "b"), ("a", "c"), ('q"', "x,y")])
    names = ["f", "g", "h", "i"]
    dataio.write_trial_features(trials, names, matrix, store_path)
    assert store_path.read_bytes() == csv_write_trial_features(trials, names, matrix).encode("utf-8")
    assert store_path.read_text().splitlines()[1] == "a,b,0.0,-0.0,,0.1"


@given(st.lists(st.tuples(ids, ids, finite_float), max_size=20))
def test_write_scores_matches_format_float_bytes(store_path, rows):
    trials = trial_list((e, t) for e, t, _ in rows)
    scores = np.array([s for _, _, s in rows], dtype=np.float64)
    dataio.write_scores(trials, scores, store_path)
    reference = "".join(f"{e} {t} {dataio.format_float(s)}\n" for e, t, s in zip(trials.enroll, trials.test, scores))
    assert store_path.read_bytes() == reference.encode("utf-8")


# The writers refuse a field that holds a character at which str.splitlines breaks lines, so the
# fields drawn hold none; quotes, commas, spaces, tabs and NUL are in.
csv_text = st.text(ID_CHARS + '," \t\0é', max_size=5)


@given(st.lists(st.lists(csv_text, max_size=4), max_size=6))
@example([[""], ["", ""], [], ['"'], ["a,b", ""]])
def test_csv_line_writes_what_csv_writer_does_but_for_one_empty_field(rows):
    for row in rows:
        if row == [""]:
            assert (dataio._csv_line(row), csv_writer_text([row])) == ("\n", '""\n')
        else:
            assert dataio._csv_line(row) == csv_writer_text([row])


def csv_write_attributes(table) -> str:
    """The text write_attributes wrote through csv.writer and format_float."""
    def cell(value):
        return "" if value is None else dataio.format_float(value) if isinstance(value, float) else str(value)

    return csv_writer_text([("utt_id", *table.columns)] + [
        [utt_id, *(cell(row.get(name)) for name in table.columns)] for utt_id, row in table.rows.items()])


attribute_cells = st.one_of(st.none(), finite_float, finite_float.map(np.float64), st.text(ID_CHARS + ',"', max_size=4))


@given(st.lists(st.text(ID_CHARS + ',"', min_size=1, max_size=4), unique=True, max_size=3), st.data())
def test_write_attributes_and_selections_match_csv_writer_bytes(store_path, names, data):
    table = dataio.AttributeTable(columns=tuple(names))
    keys = data.draw(st.lists(st.text(ID_CHARS + ',"', min_size=1, max_size=5), unique=True, max_size=5))
    for utt_id in keys:
        table.rows[utt_id] = {name: data.draw(attribute_cells) for name in names}
    dataio.write_attributes(table, store_path)
    assert store_path.read_bytes() == csv_write_attributes(table).encode("utf-8")

    rows = data.draw(st.lists(st.tuples(csv_text.filter(bool), any_float, csv_text.filter(bool)), max_size=5))
    dataio.write_selections(rows, store_path)
    reference = [("speaker_id", "max_similarity", "nearest_target")]
    reference += [(speaker_id, dataio.format_float(v), nearest) for speaker_id, v, nearest in rows]
    assert store_path.read_bytes() == csv_writer_text(reference).encode("utf-8")


# ---------------------------------------------------------------------------
# Metric and scaling kernels against numpy's

tie_prone = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, -1.5, 1e-300, 3.0]), st.floats(-1e6, 1e6))


@given(st.lists(tie_prone, min_size=2, max_size=200), st.data())
def test_det_curve_thresholds_are_np_unique_bit_for_bit(scores, data):
    labels = [True, False] + data.draw(st.lists(st.booleans(), min_size=len(scores) - 2, max_size=len(scores) - 2))
    thresholds = metrics.det_curve(scores, labels).thresholds
    distinct = np.unique(np.array(scores))
    assert bits(thresholds[-1]) == bits(np.nextafter(distinct[-1], np.inf))
    # np.unique's hash table sets the sign of a zero where -0.0 and +0.0 tie (7 x -0.0
    # then 0.0 gives -0.0, 8 x gives 0.0); det_curve keeps the first in input order
    zero = distinct == 0.0
    assert bits(thresholds[:-1][~zero]) == bits(distinct[~zero])
    assert bits(thresholds[:-1][zero]) == bits([s for s in scores if s == 0.0][:1])


@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.one_of(tie_prone, st.just(math.nan)), min_size=k, max_size=k), min_size=1, max_size=30)))
def test_minmax_fit_medians_are_np_median_bit_for_bit(rows):
    matrix = np.array(rows, dtype=np.float64)
    matrix[0, np.isnan(matrix).all(axis=0)] = -0.0  # every feature needs one observed value
    params = qmf.minmax_fit(matrix, [f"f{j}" for j in range(matrix.shape[1])])
    expected = [np.median(column[np.isfinite(column)]) for column in matrix.T]
    assert bits(params.median) == bits(expected)


# ---------------------------------------------------------------------------
# Batched scoring

moderate = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-100)


def nonzero_rows(matrix):
    matrix = np.array(matrix, dtype=np.float64)
    matrix[~matrix.any(axis=1), 0] = 1.0
    return matrix


@st.composite
def scored_store(draw, min_trials=1):
    """A ragged store of one dim with nonzero chunks, and trials over it."""
    dim = draw(st.integers(1, 16))
    utts = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    rows = st.lists(moderate, min_size=dim, max_size=dim)
    # some records Fortran-ordered, whose chunk rows are not contiguous
    order = st.sampled_from([np.ascontiguousarray, np.asfortranarray])
    records = [
        ChunkEmbeddings(u, draw(order)(nonzero_rows(draw(st.lists(rows, min_size=1, max_size=4))))) for u in utts
    ]
    side = st.sampled_from(utts)
    trials = draw(st.lists(st.tuples(side, side), min_size=min_trials, max_size=30).map(trial_list))
    return records, trials


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@given(scored_store(min_trials=2), st.data())
def test_score_trials_equals_pairwise_score_across_blocks(store, data):
    records, trials = store
    by_id = dataio.embeddings_by_id(records)
    pairs = [(by_id[e], by_id[t]) for e, t in zip(trials.enroll, trials.test)]
    # at most one trial's products per block, and often a fraction of one
    smallest = min(e.n_chunks * t.n_chunks * e.dim * 8 for e, t in pairs)
    budget = data.draw(st.integers(1, smallest))
    with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
        batched = scoring.score_trials(records, trials)
        single = [scoring.pairwise_score(e, t).value for e, t in pairs]
        per_trial = [math.fsum(scoring.cosine_matrix(e.chunks, t.chunks).ravel()) / (e.n_chunks * t.n_chunks)
                     for e, t in pairs]
    assert bits(batched) == bits(single) == bits(per_trial)
    assert bits(scoring.score_trials(records, trials)) == bits(batched)


@given(scored_store(), st.data())
def test_score_and_asnorm_trials_are_swap_symmetric(store, data):
    records, trials = store
    swapped = TrialList(trials.test, trials.enroll)
    raw = scoring.score_trials(records, trials)
    assert bits(scoring.score_trials(records, swapped)) == bits(raw)

    dim = records[0].dim
    n_cohort = data.draw(st.integers(2, 6))
    rows = nonzero_rows(data.draw(st.lists(st.lists(moderate, min_size=dim, max_size=dim),
                                           min_size=n_cohort, max_size=n_cohort)))
    cohort = [ChunkEmbeddings(f"spk{k}", row[None, :]) for k, row in enumerate(rows)]
    top_n = data.draw(st.integers(2, n_cohort))
    try:
        forward = asnorm_trials(raw, trials, records, cohort, top_n)
    except DegenerateCohortError:
        assume(False)
    assert bits(asnorm_trials(raw, swapped, records, cohort, top_n)) == bits(forward)
