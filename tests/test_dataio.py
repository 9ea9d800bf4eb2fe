"""File formats: bit-exact round trips and located errors on malformed input."""

import json
import math
import os
import stat
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import trial_list
from svbackend import dataio, scoring
from svbackend.errors import DataFormatError

EDGE_FLOATS = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1 + 0.2,
    math.pi,
    1e-308,
    5e-324,
    1.7976931348623157e308,
    -2.2250738585072014e-308,
    1 / 3,
]


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def test_format_float_round_trips_edge_values():
    for x in EDGE_FLOATS:
        assert bits(float(dataio.format_float(x))) == bits(x)


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    dataio.atomic_write_text(str(path), "new contents\n")
    assert path.read_text() == "new contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        dataio.atomic_write_text(str(path), "contents\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_atomic_write_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    # a rename is durable only once the directory holding it is synced
    path = tmp_path / "out.txt"
    synced = []  # (is a directory, the target's text at that moment)
    real_fsync = os.fsync

    def record(fd):
        real_fsync(fd)
        synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.read_text() if path.exists() else None))

    monkeypatch.setattr(os, "fsync", record)
    dataio.atomic_write_text(str(path), "contents\n")
    assert synced == [(False, None), (True, "contents\n")]
    assert os.listdir(tmp_path) == ["out.txt"]


def test_read_text_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataFormatError, match="gone.txt"):
        dataio.read_text(str(tmp_path / "gone.txt"))


# Each reader with a first line it accepts; a byte 0xff follows on line 2.
SNR_SCHEMA = [dataio.SchemaColumn("snr", "real", "identity")]
UTF8_READERS = {
    "read_text": ("x", dataio.read_text),
    "read_embeddings": ("dim=1", dataio.read_embeddings),
    "read_trials": ("1 a b", lambda p: dataio.read_trials(p, expect_labels=True)),
    "read_trials_inferred": ("1 a b", dataio.read_trials),
    "sniff_trial_labels": ("1 a b", dataio.sniff_trial_labels),
    "read_scores": ("a b 0.5", dataio.read_scores),
    "read_speaker_map": ("a s", dataio.read_speaker_map),
    "read_schema": ("snr real identity", dataio.read_schema),
    "read_attributes": ("utt_id,snr", lambda p: dataio.read_attributes(p, SNR_SCHEMA)),
    "read_trial_features": ("enroll,test,f", dataio.read_trial_features),
    "load_fusion_model": ("{", dataio.load_fusion_model),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("reader", sorted(UTF8_READERS))
def test_readers_locate_bytes_that_are_not_utf8(tmp_path, reader, newline):
    first, read = UTF8_READERS[reader]
    path = tmp_path / "bad.txt"
    path.write_bytes(f"{first}{newline}".encode() + b"ab\xffc" + newline.encode())
    with pytest.raises(DataFormatError, match=r"bad\.txt:2: invalid UTF-8 byte 0xff") as err:
        read(str(path))
    assert err.value.line == 2


def test_read_text_reads_newlines_as_text_mode_does(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes("a\r\nb\rc\n\u00e9\r\n\r".encode())
    with open(path, encoding="utf-8") as handle:
        assert dataio.read_text(str(path)) == handle.read() == "a\nb\nc\n\u00e9\n\n"


# ---------------------------------------------------------------------------
# Embedding stores


def test_embeddings_round_trip_bit_exact(tmp_path, np_rng):
    records = []
    for i in range(40):
        n_chunks = int(np_rng.integers(1, 5))
        chunks = np_rng.normal(size=(n_chunks, 6)) * 10.0 ** np_rng.integers(-20, 20)
        records.append(dataio.ChunkEmbeddings(f"utt{i:03d}", chunks))
    # salt a record with representation edge cases
    records.append(dataio.ChunkEmbeddings("edge", np.array([EDGE_FLOATS[:6]])))
    path = str(tmp_path / "emb.txt")
    dataio.write_embeddings(records, path)
    back = dataio.read_embeddings(path)
    assert [r.utt_id for r in back] == [r.utt_id for r in records]
    for orig, rt in zip(records, back):
        assert orig.chunks.shape == rt.chunks.shape
        assert orig.chunks.tobytes() == rt.chunks.tobytes()


def test_embeddings_write_then_rewrite_identical_bytes(tmp_path, small_synth):
    records, _ = small_synth
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    dataio.write_embeddings(records, a)
    dataio.write_embeddings(dataio.read_embeddings(a), b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "missing 'dim=<D>' header"),
        ("u1 1 0.5 0.5\n", 1, "dim"),
        ("dim=two\nu1 1 0.5 0.5\n", 1, "header"),
        ("dim=0\n", 1, ">= 1"),
        ("dim=2\nu1 2 0.5 0.5 0.5\n", 2, "expected 4 values"),
        ("dim=2\nu1 1 0.5 nan\n", 2, "non-finite"),
        ("dim=2\nu1 1 0.5 abc\n", 2, "invalid float"),
        ("dim=2\nu1 0 \n", 2, "chunk count"),
        ("dim=2\nu1 x 0.5 0.5\n", 2, "invalid chunk count"),
        ("dim=2\nu1 1 0.5 0.5\nu1 1 0.5 0.5\n", 3, "duplicate"),
        ("dim=2\nu1 1 0.5 0.5\n\nu2 1 0.5 0.5\n", 3, "blank line"),
        ("dim=2\nu1\n", 2, "expected"),
    ],
)
def test_malformed_embeddings_have_located_errors(tmp_path, text, line, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataFormatError) as err:
        dataio.read_embeddings(str(path))
    assert err.value.path == str(path)
    assert err.value.line == line
    assert fragment in str(err.value)
    assert err.value.path == str(path)
    assert err.value.line == line


@pytest.mark.parametrize("later_fault", [b"ab\xffc\n", b"\n"], ids=["invalid-byte", "blank-line"])
def test_store_reader_raises_the_first_fault_in_line_order(tmp_path, later_fault):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"dim=1\nu1 x 0.5\nu2 1 0.5\n" + later_fault + b"u3 1 0.5\n")
    with pytest.raises(DataFormatError, match=r"bad\.txt:2: invalid chunk count 'x'"):
        dataio.read_embeddings(str(path))


def test_store_reader_peak_memory_stays_near_its_values(tmp_path, np_rng, traced_peak):
    # about 3 MB of text; a reader that held the text whole peaked near 5x the values
    records = [dataio.ChunkEmbeddings(f"utt{i:04d}", np_rng.normal(size=(4, 64))) for i in range(600)]
    path = str(tmp_path / "emb.txt")
    dataio.write_embeddings(records, path)
    assert os.path.getsize(path) > 2_500_000
    back, peak = traced_peak(dataio.read_embeddings, path)
    assert len(back) == len(records)
    assert peak < 2 * sum(rec.chunks.nbytes for rec in back)


def test_write_embeddings_rejects_bad_stores(tmp_path):
    path = str(tmp_path / "emb.txt")
    with pytest.raises(ValueError):
        dataio.write_embeddings([], path)
    r1 = dataio.ChunkEmbeddings("a", np.ones((1, 2)))
    r2 = dataio.ChunkEmbeddings("b", np.ones((1, 3)))
    with pytest.raises(ValueError, match="mixed dimensions"):
        dataio.write_embeddings([r1, r2], path)
    with pytest.raises(ValueError, match="duplicate"):
        dataio.write_embeddings([r1, r1], path)


@pytest.mark.parametrize("fault", ["duplicate id", "mixed dims"])
def test_streaming_store_writer_fault_in_last_record_keeps_target(tmp_path, fault):
    records = [dataio.ChunkEmbeddings(f"u{i}", np.full((2, 3), i + 0.5)) for i in range(50)]
    if fault == "duplicate id":
        records.append(dataio.ChunkEmbeddings("u7", np.ones((1, 3))))
    else:
        records.append(dataio.ChunkEmbeddings("last", np.ones((1, 4))))
    path = tmp_path / "emb.txt"
    path.write_bytes(b"dim=1\nold 1 0.5\n")
    with pytest.raises(ValueError, match="duplicate utt_id" if fault == "duplicate id" else "mixed dimensions"):
        dataio.write_embeddings(records, str(path))
    assert path.read_bytes() == b"dim=1\nold 1 0.5\n"
    assert os.listdir(tmp_path) == ["emb.txt"]


def test_atomic_write_takes_pieces(tmp_path):
    path = tmp_path / "out.txt"
    dataio.atomic_write_text(str(path), (f"line {i}\n" for i in range(3)))
    assert path.read_text() == "line 0\nline 1\nline 2\n"
    dataio.atomic_write_text(str(path), [])
    assert path.read_text() == ""
    assert os.listdir(tmp_path) == ["out.txt"]


def test_score_and_store_writers_hand_over_one_line_at_a_time(tmp_path, monkeypatch):
    # the file's text is never held whole: the writer gets one piece per line
    pieces = {}

    def record(path, text):
        assert not isinstance(text, str)
        pieces[os.path.basename(path)] = list(text)

    monkeypatch.setattr(dataio, "atomic_write_text", record)
    trials = trial_list((f"e{i}", f"t{i}") for i in range(4))
    dataio.write_scores(trials, [0.5, -0.0, 1e-300, 2.0], str(tmp_path / "scores.txt"))
    records = [dataio.ChunkEmbeddings(f"u{i}", np.full((1, 2), i + 0.5)) for i in range(3)]
    dataio.write_embeddings(records, str(tmp_path / "emb.txt"))
    assert pieces["scores.txt"] == ["e0 t0 0.5\n", "e1 t1 -0.0\n", "e2 t2 1e-300\n", "e3 t3 2.0\n"]
    assert pieces["emb.txt"] == ["dim=2\n", "u0 1 0.5 0.5\n", "u1 1 1.5 1.5\n", "u2 1 2.5 2.5\n"]


def test_csv_writers_hand_over_one_line_at_a_time(tmp_path, monkeypatch):
    pieces = {}

    def record(path, text):
        assert not isinstance(text, str)
        pieces[os.path.basename(path)] = list(text)

    monkeypatch.setattr(dataio, "atomic_write_text", record)
    table = dataio.AttributeTable(columns=("gender", "snr"))
    table.rows["u1"] = {"gender": "m", "snr": np.float64(0.5)}
    table.rows["u,2"] = {"gender": None, "snr": -0.0}
    dataio.write_attributes(table, str(tmp_path / "attr.csv"))
    dataio.write_selections([("s1", np.float64(0.25), "t0"), ("s2", 1e-300, 't"1')], str(tmp_path / "ddf.csv"))
    # a numpy scalar is written as the float it holds, not as its repr
    assert pieces["attr.csv"] == ["utt_id,gender,snr\n", "u1,m,0.5\n", '"u,2",,-0.0\n']
    assert pieces["ddf.csv"] == ["speaker_id,max_similarity,nearest_target\n", "s1,0.25,t0\n", 's2,1e-300,"t""1"\n']


def one_row_attributes(utt_id="u1", lang="en", snr=0.5):
    table = dataio.AttributeTable(columns=("lang", "snr"))
    table.rows[utt_id] = {"lang": lang, "snr": snr}
    return table


def one_trial_features(value=0.5, name="f1"):
    return trial_list([("e", "t")]), [name], np.array([[value]])


# input each writer once wrote without error, into a file that a reader of its format rejects
UNREADABLE_WRITES = {
    "attribute cell with a newline": (dataio.write_attributes, one_row_attributes(lang="en\nus")),
    "attribute cell with a vertical tab": (dataio.write_attributes, one_row_attributes(lang="en\x0bus")),
    "NaN attribute": (dataio.write_attributes, one_row_attributes(snr=math.nan)),
    "inf attribute": (dataio.write_attributes, one_row_attributes(snr=math.inf)),
    "-inf attribute": (dataio.write_attributes, one_row_attributes(snr=np.float64(-math.inf))),
    "empty utt_id": (dataio.write_attributes, one_row_attributes(utt_id="")),
    "speaker-map id with a space": (dataio.write_speaker_map, {"u 1": "s1"}),
    "empty speaker id": (dataio.write_speaker_map, {"u1": ""}),
    "inf feature": (dataio.write_trial_features, *one_trial_features(value=math.inf)),
    "-inf feature": (dataio.write_trial_features, *one_trial_features(value=-math.inf)),
    "feature name with a newline": (dataio.write_trial_features, *one_trial_features(name="f\n1")),
    "repeated feature name": (dataio.write_trial_features, trial_list([("e", "t")]), ["f1", "f1"],
                              np.array([[0.5, 0.25]])),
    "repeated attribute column": (dataio.write_attributes,
                                  dataio.AttributeTable(columns=("snr", "snr"), rows={"u1": {"snr": 0.5}})),
    "selection id with a newline": (dataio.write_selections, [("s\n1", 0.25, "t0")]),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_WRITES))
def test_writers_refuse_what_their_readers_reject(tmp_path, case):
    writer, *args = UNREADABLE_WRITES[case]
    path = tmp_path / "out.txt"
    path.write_bytes(b"old,contents\n")
    with pytest.raises(ValueError):
        writer(*args, str(path))
    assert path.read_bytes() == b"old,contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("char", list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_csv_field_refuses_every_line_boundary(char):
    with pytest.raises(ValueError, match="line break"):
        dataio._csv_field(f"a{char}b")
    assert dataio._csv_field("a\tb\0") == "a\tb\0"


def test_attribute_writer_peak_stays_within_a_few_blocks(tmp_path, traced_peak):
    # about 835 KiB of text, which a writer that gathered the table's text first held whole
    table = dataio.AttributeTable(columns=("gender", "snr", "length"))
    for i in range(20_000):
        table.rows[f"utt{i:05d}"] = {"gender": "mf"[i % 2], "snr": i / 7,
                                     "length": None if i % 5 == 0 else math.pi * i}
    path = tmp_path / "attr.csv"
    _, peak = traced_peak(dataio.write_attributes, table, str(path))
    assert os.path.getsize(path) > 3 * scoring.COSINE_BLOCK_BYTES
    assert peak < 2 * scoring.COSINE_BLOCK_BYTES


def test_is_token_agrees_with_isspace_rule_on_every_code_point():
    # the rule it replaced: invalid when empty or when any character is whitespace
    def old_rule(s):
        return not (not s or any(ch.isspace() for ch in s))

    assert not dataio._is_token("")
    samples = (text for cp in range(0x110000) for text in (chr(cp), f"a{chr(cp)}b"))
    assert [s for s in samples if dataio._is_token(s) != old_rule(s)] == []


def test_chunk_embeddings_validation():
    with pytest.raises(ValueError):
        dataio.ChunkEmbeddings("has space", np.ones((1, 2)))
    with pytest.raises(ValueError):
        dataio.ChunkEmbeddings("u", np.ones(3))
    with pytest.raises(ValueError):
        dataio.ChunkEmbeddings("u", np.array([[1.0, np.inf]]))
    rec = dataio.ChunkEmbeddings("u", np.array([[1.0, 3.0], [3.0, 5.0]]))
    assert rec.n_chunks == 2 and rec.dim == 2


def test_embeddings_by_id():
    rec = dataio.ChunkEmbeddings("u", np.ones((1, 2)))
    assert dataio.embeddings_by_id([rec])["u"] is rec


# ---------------------------------------------------------------------------
# Trials and scores


def test_trials_round_trip_labeled_and_unlabeled(tmp_path):
    labeled = trial_list([("a", "b"), ("b", "c")], [True, False])
    unlabeled = trial_list([("a", "b"), ("c", "d")])
    p1, p2 = str(tmp_path / "l.txt"), str(tmp_path / "u.txt")
    dataio.write_trials(labeled, p1)
    dataio.write_trials(unlabeled, p2)
    assert dataio.read_trials(p1, expect_labels=True) == labeled
    assert dataio.read_trials(p2, expect_labels=False) == unlabeled
    assert dataio.read_trials(p1) == labeled
    assert dataio.read_trials(p2) == unlabeled
    assert dataio.sniff_trial_labels(p1) is True
    assert dataio.sniff_trial_labels(p2) is False


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("a b c d\n", "expected 2 or 3 fields, found 4", 1),
        ("a\n", "expected 2 or 3 fields, found 1", 1),
        ("1 a b\nc d\n", "missing label", 2),
        ("1 a b\n2 c d\n", "invalid label", 2),
        ("a b\n1 c d\n", "expected 2 fields, found 3", 2),
        # the list is read once, so a field fault comes before a blank line after it
        ("a b\n1 c d\n\n", "expected 2 fields, found 3", 2),
        ("a b\n\n1 c d\n", "blank line", 2),
    ],
)
def test_read_trials_infers_labels_from_the_first_line(tmp_path, text, fragment, line):
    path = tmp_path / "t.txt"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=fragment) as err:
        dataio.read_trials(str(path))
    assert err.value.line == line


def test_read_trials_of_an_empty_file_is_unlabeled(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("")
    assert dataio.read_trials(str(path)) == dataio.TrialList([], [])
    assert dataio.sniff_trial_labels(str(path)) is False


def test_read_trials_errors(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a b\n")
    with pytest.raises(DataFormatError, match="missing label"):
        dataio.read_trials(str(path), expect_labels=True)
    path.write_text("2 a b\n")
    with pytest.raises(DataFormatError, match="invalid label"):
        dataio.read_trials(str(path), expect_labels=True)
    path.write_text("1 a b c\n")
    with pytest.raises(DataFormatError, match="expected 3 fields"):
        dataio.read_trials(str(path), expect_labels=True)
    path.write_text("a b c\n")
    with pytest.raises(DataFormatError, match="expected 2 fields"):
        dataio.read_trials(str(path), expect_labels=False)


def test_scores_round_trip_and_alignment(tmp_path):
    trials = trial_list([("a", "b"), ("c", "d")])
    values = np.array([0.1 + 0.2, -5e-324])
    path = str(tmp_path / "s.txt")
    dataio.write_scores(trials, values, path)
    pairs, back = dataio.read_scores(path)
    assert pairs == trials
    assert back.tobytes() == values.tobytes()
    dataio.check_score_alignment(trials, pairs, path)
    with pytest.raises(DataFormatError, match="pair mismatch"):
        dataio.check_score_alignment(trial_list([("c", "d"), ("a", "b")]), pairs, path)
    with pytest.raises(DataFormatError, match="scored pairs"):
        dataio.check_score_alignment(trial_list([("a", "b")]), pairs, path)


def test_scores_errors(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("a b\n")
    with pytest.raises(DataFormatError, match="enroll test score"):
        dataio.read_scores(str(path))
    path.write_text("a b inf\n")
    with pytest.raises(DataFormatError, match="non-finite"):
        dataio.read_scores(str(path))
    with pytest.raises(ValueError, match="non-finite"):
        dataio.write_scores(trial_list([("a", "b")]), np.array([np.nan]), str(path))
    with pytest.raises(ValueError, match="one score per trial"):
        dataio.write_scores(trial_list([("a", "b")]), np.array([1.0, 2.0]), str(path))


# ---------------------------------------------------------------------------
# Speaker maps, schemas, attributes


def test_speaker_map_round_trip(tmp_path):
    mapping = {"u2": "s1", "u1": "s1", "u3": "s2"}
    path = str(tmp_path / "spk.txt")
    dataio.write_speaker_map(mapping, path)
    assert dataio.read_speaker_map(path) == mapping


def test_speaker_map_errors(tmp_path):
    path = tmp_path / "spk.txt"
    path.write_text("u1 s1 extra\n")
    with pytest.raises(DataFormatError, match="utt_id speaker_id"):
        dataio.read_speaker_map(str(path))
    path.write_text("u1 s1\nu1 s2\n")
    with pytest.raises(DataFormatError, match="duplicate") as err:
        dataio.read_speaker_map(str(path))
    assert err.value.line == 2


def test_schema_round_trip_and_validation(tmp_path):
    cols = [
        dataio.SchemaColumn("gender", "categorical", "match"),
        dataio.SchemaColumn("snr", "real", "identity"),
        dataio.SchemaColumn("length", "real", "log1p"),
    ]
    path = str(tmp_path / "schema.txt")
    dataio.write_schema(cols, path)
    assert dataio.read_schema(path) == cols

    with pytest.raises(ValueError, match="unknown kind"):
        dataio.SchemaColumn("x", "int", "identity")
    with pytest.raises(ValueError, match="not valid for kind"):
        dataio.SchemaColumn("x", "categorical", "log1p")
    with pytest.raises(ValueError, match="not valid for kind"):
        dataio.SchemaColumn("x", "real", "match")


def test_schema_file_errors(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("gender categorical\n")
    with pytest.raises(DataFormatError, match="name kind transform"):
        dataio.read_schema(str(path))
    path.write_text("snr real identity\nsnr real log1p\n")
    with pytest.raises(DataFormatError, match="duplicate") as err:
        dataio.read_schema(str(path))
    assert err.value.line == 2
    path.write_text("snr real match\n")
    with pytest.raises(DataFormatError, match="not valid"):
        dataio.read_schema(str(path))


def test_attributes_round_trip_with_missing_cells(tmp_path):
    schema = [
        dataio.SchemaColumn("gender", "categorical", "match"),
        dataio.SchemaColumn("snr", "real", "identity"),
    ]
    table = dataio.AttributeTable(columns=("gender", "snr"))
    table.rows["u1"] = {"gender": "m", "snr": 0.1 + 0.2}
    table.rows["u2"] = {"gender": None, "snr": None}
    path = str(tmp_path / "attr.csv")
    dataio.write_attributes(table, path)
    back = dataio.read_attributes(path, schema)
    assert back.columns == table.columns
    assert back.rows["u1"]["gender"] == "m"
    assert bits(back.rows["u1"]["snr"]) == bits(0.1 + 0.2)
    assert back.rows["u2"] == {"gender": None, "snr": None}


def test_attributes_errors(tmp_path):
    schema = [dataio.SchemaColumn("snr", "real", "identity")]
    path = tmp_path / "attr.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match=r"attr\.csv:1: missing CSV header"):
        dataio.read_attributes(str(path), schema)
    path.write_text("id,snr\nu1,3\n")
    with pytest.raises(DataFormatError, match="utt_id"):
        dataio.read_attributes(str(path), schema)
    path.write_text("utt_id,bogus\nu1,3\n")
    with pytest.raises(DataFormatError, match="unknown attribute column"):
        dataio.read_attributes(str(path), schema)
    path.write_text("utt_id\nu1\n")
    with pytest.raises(DataFormatError, match="missing from table"):
        dataio.read_attributes(str(path), schema)
    path.write_text("utt_id,snr,snr\nu1,3,4\n")
    with pytest.raises(DataFormatError, match="duplicate attribute column"):
        dataio.read_attributes(str(path), schema)
    path.write_text('utt_id,snr\n"",3\n')
    with pytest.raises(DataFormatError, match=r"attr\.csv:2: empty utt_id"):
        dataio.read_attributes(str(path), schema)
    path.write_text("utt_id,snr\nu1,3\nu1,4\n")
    with pytest.raises(DataFormatError, match="duplicate utt_id") as err:
        dataio.read_attributes(str(path), schema)
    assert err.value.line == 3
    path.write_text("utt_id,snr\nu1,3,9\n")
    with pytest.raises(DataFormatError, match="expected 2 fields"):
        dataio.read_attributes(str(path), schema)
    path.write_text("utt_id,snr\nu1,low\n")
    with pytest.raises(DataFormatError, match="invalid float") as err:
        dataio.read_attributes(str(path), schema)
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# Trial feature tables and fusion models


def test_trial_features_round_trip_with_nan(tmp_path):
    trials = trial_list([("a", "b"), ("c", "d")])
    matrix = np.array([[0.5, np.nan], [1 / 3, 2.0]])
    path = str(tmp_path / "feat.csv")
    dataio.write_trial_features(trials, ["f1", "f2"], matrix, path)
    back_trials, names, back = dataio.read_trial_features(path)
    assert back_trials == trials
    assert names == ["f1", "f2"]
    assert np.isnan(back[0, 1])
    assert bits(back[1, 0]) == bits(1 / 3)
    assert back[0, 0] == 0.5 and back[1, 1] == 2.0


def test_trial_features_errors(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match=r"feat\.csv:1: missing CSV header"):
        dataio.read_trial_features(str(path))
    path.write_text("a,b,f1\nu1,u2,0.5\n")
    with pytest.raises(DataFormatError, match="enroll"):
        dataio.read_trial_features(str(path))
    path.write_text("enroll,test,f1\nu1,u2\n")
    with pytest.raises(DataFormatError, match="expected 3 fields"):
        dataio.read_trial_features(str(path))
    path.write_text("enroll,test,f1\nu1,u2,zebra\n")
    with pytest.raises(DataFormatError, match="invalid float"):
        dataio.read_trial_features(str(path))
    # a bad cell is reported before any fault on a later line
    for later in ("u3,u4\n", 'u3,"u4,0.5\n', "u3,u4,inf\n"):
        path.write_text("enroll,test,f1\nu0,u1,0.5\nu1,u2,zebra\n" + later)
        with pytest.raises(DataFormatError, match="invalid float 'zebra'") as err:
            dataio.read_trial_features(str(path))
        assert err.value.line == 3


LONG_CELL = "1" * (131072 + 1)  # one past csv's default field_size_limit

CSV_DEFECTS = {
    # name: (header, data lines, line of the located error, message fragment)
    "cell over csv's field limit": ("{key},f1", [f"u1{{sep}}{LONG_CELL}"], 2, "field larger than field limit"),
    "quoted field spanning lines": ("{key},f1", ['"u\n1"{sep}0.5'], 2, "runs past the end of its line"),
    "spanning field after good rows": ("{key},f1", ["u0{sep}0.25", 'u1{sep}"0.5', '"'], 3, "runs past"),
    "quote left open on the last line": ("{key},f1", ["u0{sep}0.25", 'u1{sep}"0.5'], 3, "unexpected end of data"),
    "quote left open before more lines": ("{key},f1", ['u1{sep}"0.5', "u2{sep}0.25"], 2, "unexpected end of data"),
    "text after a closing quote": ("{key},f1", ['"u"1{sep}0.5'], 2, "',' expected after"),
}


@pytest.mark.parametrize("defect", sorted(CSV_DEFECTS))
def test_csv_readers_locate_long_cells_and_multiline_fields(tmp_path, defect):
    header, rows, line, fragment = CSV_DEFECTS[defect]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header.format(key="enroll,test")] + [r.format(sep=",u2,") for r in rows]) + "\n")
    with pytest.raises(DataFormatError, match=fragment) as err:
        dataio.read_trial_features(str(path))
    assert (err.value.path, err.value.line) == (str(path), line)

    schema = [dataio.SchemaColumn("f1", "real", "identity")]
    path.write_text("\n".join([header.format(key="utt_id")] + [r.format(sep=",") for r in rows]) + "\n")
    with pytest.raises(DataFormatError, match=fragment) as err:
        dataio.read_attributes(str(path), schema)
    assert (err.value.path, err.value.line) == (str(path), line)


def test_trial_features_read_quoted_ids_and_names(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text('enroll,test,"f,1","f""2"\n"a,b",c,0.5,\nd,"e""f",,2.0\n')
    trials, names, matrix = dataio.read_trial_features(str(path))
    assert trials == dataio.TrialList(["a,b", "d"], ["c", 'e"f'])
    assert names == ["f,1", 'f"2']
    assert matrix.tobytes() == np.array([[0.5, np.nan], [np.nan, 2.0]]).tobytes()
    dataio.write_trial_features(trials, names, matrix, str(tmp_path / "back.csv"))
    assert (tmp_path / "back.csv").read_text() == path.read_text()


def test_feature_writer_bytes_do_not_depend_on_the_block_size(tmp_path, np_rng):
    # repeated cells, signed zeros, NaNs and ids that need quoting, over blocks of
    # one row, of a few rows with a partial last block, and of the whole table
    matrix = np_rng.choice([0.0, -0.0, np.nan, 1 / 3, -2.5, 1e-300, 7.0], size=(23, 4))
    trials = dataio.TrialList([f"a,{i}" for i in range(23)], [f'b"{i}' for i in range(23)])
    names = ["f1", "f,2", 'f"3', "f4"]
    texts = set()
    for budget in (1, 3 * 8 * 8 * 4, scoring.COSINE_BLOCK_BYTES):
        path = tmp_path / f"feat-{budget}.csv"
        with mock.patch.object(scoring, "COSINE_BLOCK_BYTES", budget):
            dataio.write_trial_features(trials, names, matrix, str(path))
        texts.add(path.read_bytes())
    assert len(texts) == 1
    back_trials, back_names, back = dataio.read_trial_features(str(path))
    assert (back_trials, back_names) == (trials, names)
    assert back.tobytes() == matrix.tobytes()


def test_feature_writer_peak_stays_within_a_few_blocks(tmp_path, np_rng, traced_peak):
    """20 000 trials of 17 features whose cells repeat, as a side's value does in
    each of its trials: finding the whole table's distinct values at once
    peaked near 14 MB (53 budgets); a block of rows at a time stays within a few."""
    n_trials = 20_000
    trials = dataio.TrialList([f"e{i:05d}" for i in range(n_trials)], [f"t{i:05d}" for i in range(n_trials)])
    matrix = np_rng.choice(np_rng.normal(size=5000), size=(n_trials, 17))
    names = [f"f{j}" for j in range(17)]
    _, peak = traced_peak(dataio.write_trial_features, trials, names, matrix, str(tmp_path / "feat.csv"))
    assert peak < 4 * scoring.COSINE_BLOCK_BYTES


def id_bytes(trials):
    """Bytes of a trial list's id columns: their two lists and their strings."""
    return sum(sys.getsizeof(ids) + sum(map(sys.getsizeof, ids)) for ids in (trials.enroll, trials.test))


def test_feature_reader_peak_stays_within_its_output_and_a_few_blocks(tmp_path, np_rng, traced_peak):
    """20 000 rows of 17 features drawn from 5 000 distinct values: an index of
    the table's distinct cell texts and a code per cell held the matrix about
    twice over; casting a block of rows at a time into a matrix grown in place
    holds the ids and the matrix plus a few budgets."""
    n_trials = 20_000
    trials = dataio.TrialList([f"e{i:05d}" for i in range(n_trials)], [f"t{i:05d}" for i in range(n_trials)])
    matrix = np_rng.choice(np_rng.normal(size=5000), size=(n_trials, 17))
    path = str(tmp_path / "feat.csv")
    dataio.write_trial_features(trials, [f"f{j}" for j in range(17)], matrix, path)
    (back_trials, _, back), peak = traced_peak(dataio.read_trial_features, path)
    assert back.tobytes() == matrix.tobytes()
    assert peak < id_bytes(back_trials) + matrix.nbytes + 4 * scoring.COSINE_BLOCK_BYTES


def test_score_reader_peak_stays_within_its_output_and_a_few_blocks(tmp_path, np_rng, traced_peak):
    """50 000 scores: holding every score token until one cast held about nine
    times the scores' bytes beside them; a cast per block holds the ids and
    the scores plus a few budgets."""
    n_trials = 50_000
    trials = dataio.TrialList([f"e{i:05d}" for i in range(n_trials)], [f"t{i:05d}" for i in range(n_trials)])
    scores = np_rng.normal(size=n_trials)
    path = str(tmp_path / "scores.txt")
    dataio.write_scores(trials, scores, path)
    (pairs, back), peak = traced_peak(dataio.read_scores, path)
    assert back.tobytes() == scores.tobytes()
    assert peak < id_bytes(pairs) + scores.nbytes + 4 * scoring.COSINE_BLOCK_BYTES


def test_fusion_reader_peak_stays_within_its_matrix_and_a_few_blocks(tmp_path, np_rng, traced_peak):
    """A score file and a table of 17 features on 20 000 trials, read against
    the trial list: stacking the columns held the table's matrix and its id
    lists beside the stacked copy; casting the table into the one matrix and
    checking pairs as they are read holds that matrix plus a few budgets, and
    none of the files' id lists."""
    n_trials = 20_000
    trials = dataio.TrialList([f"e{i:05d}" for i in range(n_trials)], [f"t{i:05d}" for i in range(n_trials)])
    scores = np_rng.normal(size=n_trials)
    matrix = np_rng.choice(np_rng.normal(size=5000), size=(n_trials, 17))
    raw, table = str(tmp_path / "raw.txt"), str(tmp_path / "qmf.csv")
    dataio.write_scores(trials, scores, raw)
    dataio.write_trial_features(trials, [f"f{j}" for j in range(17)], matrix, table)
    (pairs, names, back), peak = traced_peak(dataio.read_fusion_features, [raw], table, trials)
    assert pairs is trials and names == ["raw"] + [f"f{j}" for j in range(17)]
    assert back.tobytes() == np.column_stack([scores, matrix]).tobytes()
    assert peak < back.nbytes + 4 * scoring.COSINE_BLOCK_BYTES


def test_score_reader_given_a_reference_checks_its_pairs(tmp_path):
    path = str(tmp_path / "s.txt")
    reference = dataio.TrialList(["a", "c", "e"], ["b", "d", "f"])
    with open(path, "w") as handle:
        handle.write("a b 0.5\nc d -1.0\ne f 2.0\n")
    pairs, scores = dataio.read_scores(path, reference)
    assert pairs is reference and scores.tolist() == [0.5, -1.0, 2.0]
    # the mismatch names the file line of the pair
    with open(path, "w") as handle:
        handle.write("a b 0.5\nx d -1.0\ne f 2.0\n")
    with pytest.raises(DataFormatError) as err:
        dataio.read_scores(path, reference)
    assert str(err.value) == f"{path}:2: pair mismatch vs trial list: expected 'c d', found 'x d'"
    # a malformed line after the mismatch is raised instead
    with open(path, "w") as handle:
        handle.write("a b 0.5\nx d -1.0\ne f\n")
    with pytest.raises(DataFormatError, match="expected 'enroll test score'") as err:
        dataio.read_scores(path, reference)
    assert err.value.line == 3
    # a short file raises the count, not the mismatch before it
    with open(path, "w") as handle:
        handle.write("a b 0.5\nx d -1.0\n")
    with pytest.raises(DataFormatError) as err:
        dataio.read_scores(path, reference)
    assert str(err.value) == f"{path}: expected 3 scored pairs, found 2"


def test_feature_reader_given_a_reference_checks_its_pairs(tmp_path):
    path = str(tmp_path / "qmf.csv")
    reference = dataio.TrialList(["a", "c", "e"], ["b", "d", "f"])
    with open(path, "w") as handle:
        handle.write("enroll,test,f1\na,b,0.5\nc,d,\ne,f,2.0\n")
    pairs, names, matrix = dataio.read_trial_features(path, reference)
    assert pairs is reference and names == ["f1"]
    assert matrix.tobytes() == np.array([[0.5], [np.nan], [2.0]]).tobytes()
    # with lead columns the features follow them
    assert dataio.read_trial_features(path, reference, lead=2)[2][:, 2:].tobytes() == matrix.tobytes()
    # the row on file line 3 is pair 1: the mismatch names line 3
    with open(path, "w") as handle:
        handle.write("enroll,test,f1\na,b,0.5\nx,d,\ne,f,2.0\n")
    with pytest.raises(DataFormatError) as err:
        dataio.read_trial_features(path, reference)
    assert str(err.value) == f"{path}:3: pair mismatch vs trial list: expected 'c d', found 'x d'"
    # a malformed line after the mismatch is raised instead
    with open(path, "w") as handle:
        handle.write("enroll,test,f1\na,b,0.5\nx,d,\ne,f,inf\n")
    with pytest.raises(DataFormatError, match="non-finite") as err:
        dataio.read_trial_features(path, reference)
    assert err.value.line == 4
    # a short file raises the count, not the mismatch before it
    with open(path, "w") as handle:
        handle.write("enroll,test,f1\na,b,0.5\nx,d,\n")
    with pytest.raises(DataFormatError) as err:
        dataio.read_trial_features(path, reference)
    assert str(err.value) == f"{path}: expected 3 scored pairs, found 2"


def fusion_input_files(tmp_path):
    """Two aligned score files, raw.txt and norm.txt, and a feature table with column f1."""
    trials = trial_list([("a", "b"), ("c", "d")])
    paths = {name: str(tmp_path / name) for name in ("raw.txt", "norm.txt", "qmf.csv")}
    dataio.write_scores(trials, [0.5, -0.25], paths["raw.txt"])
    dataio.write_scores(trials, [1.5, 2.0], paths["norm.txt"])
    dataio.write_trial_features(trials, ["f1"], np.array([[3.0], [np.nan]]), paths["qmf.csv"])
    return trials, paths


def test_read_fusion_features_names_columns_by_stem_and_stacks_them(tmp_path):
    trials, paths = fusion_input_files(tmp_path)
    pairs, names, raw = dataio.read_fusion_features([paths["raw.txt"], paths["norm.txt"]], paths["qmf.csv"])
    assert pairs == trials
    assert names == ["raw", "norm", "f1"]
    assert raw.tobytes() == np.array([[0.5, 1.5, 3.0], [-0.25, 2.0, np.nan]]).tobytes()
    labeled = dataio.TrialList(["a", "c"], ["b", "d"], np.array([True, False]))
    pairs, names, raw = dataio.read_fusion_features([paths["raw.txt"]], reference=labeled)
    assert pairs is labeled and names == ["raw"] and raw.shape == (2, 1)


def test_read_fusion_features_rejects_repeated_names_and_misaligned_files(tmp_path):
    trials, paths = fusion_input_files(tmp_path)
    (tmp_path / "other").mkdir()
    twin = str(tmp_path / "other" / "raw.txt")
    dataio.write_scores(trials, [0.0, 1.0], twin)
    with pytest.raises(DataFormatError) as err:
        dataio.read_fusion_features([paths["raw.txt"], twin])
    assert str(err.value) == f"duplicate score feature name 'raw' (from {twin})"

    f1 = str(tmp_path / "f1.txt")
    dataio.write_scores(trials, [0.0, 1.0], f1)
    with pytest.raises(DataFormatError, match="duplicate feature name 'f1'"):
        dataio.read_fusion_features([f1], paths["qmf.csv"])

    reversed_trials = dataio.TrialList(trials.enroll[::-1], trials.test[::-1])
    swapped = str(tmp_path / "swapped.txt")
    dataio.write_scores(reversed_trials, [0.0, 1.0], swapped)
    with pytest.raises(DataFormatError, match="pair mismatch") as err:
        dataio.read_fusion_features([paths["raw.txt"], swapped])
    assert (err.value.path, err.value.line) == (swapped, 1)

    # the feature table's header is its line 1, so its pair i is on line i + 2
    table = str(tmp_path / "swapped.csv")
    dataio.write_trial_features(reversed_trials, ["f1"], np.array([[3.0], [4.0]]), table)
    with pytest.raises(DataFormatError, match="pair mismatch") as err:
        dataio.read_fusion_features([paths["raw.txt"]], table)
    assert (err.value.path, err.value.line) == (table, 2)


def make_model() -> dataio.FusionModel:
    return dataio.FusionModel(
        scaling=dataio.MinMaxParams(
            names=("sys1", "emb_l2_norm_min"),
            lo=np.array([0.0, 1.0]),
            hi=np.array([1.0, 3.0]),
            median=np.array([0.5, 2.0]),
        ),
        weights=np.array([1.5, -0.25]),
        intercept=0.125,
        lam=0.01,
    )


def test_fusion_model_round_trip(tmp_path):
    model = make_model()
    path = str(tmp_path / "model.json")
    dataio.save_fusion_model(model, path)
    back = dataio.load_fusion_model(path)
    assert back.feature_names == model.feature_names
    assert back.weights.tobytes() == model.weights.tobytes()
    assert back.intercept == model.intercept
    assert back.scaling.lo.tobytes() == model.scaling.lo.tobytes()
    assert back.scaling.hi.tobytes() == model.scaling.hi.tobytes()
    assert back.scaling.median.tobytes() == model.scaling.median.tobytes()
    assert back.lam == model.lam
    payload = json.loads(Path(path).read_text())
    assert set(payload) == {"feature_names", "weights", "intercept", "minmax", "medians", "lambda"}


def test_fusion_model_file_errors(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError, match="model.json"):
        dataio.load_fusion_model(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(DataFormatError, match=r"model\.json: model file must hold a JSON object"):
        dataio.load_fusion_model(str(path))
    good = {
        "feature_names": ["a"],
        "weights": [1.0],
        "intercept": 0.0,
        "minmax": [[0.0, 1.0]],
        "medians": [0.5],
        "lambda": 0.01,
    }
    for key in good:
        broken = {k: v for k, v in good.items() if k != key}
        path.write_text(json.dumps(broken))
        with pytest.raises(DataFormatError):
            dataio.load_fusion_model(str(path))
    mismatched = dict(good, weights=[1.0, 2.0])
    path.write_text(json.dumps(mismatched))
    with pytest.raises(DataFormatError):
        dataio.load_fusion_model(str(path))


# JSON that json.loads reads but save_fusion_model never writes: names as one string or as
# numbers, a bool or a numeric string where a number goes, a number where an array goes, a
# minmax entry that is not a pair, an integer too large for a float, and values a model
# refuses: a NaN intercept (json reads the literal NaN) and a negative lambda
NOT_PAIRS = r"minmax must be an array of \[lo, hi\] pairs"
MALFORMED_MODELS = {
    "names as one string": (dict(feature_names="ab"), "feature_names must be an array of strings"),
    "names as numbers": (dict(feature_names=[1, 2]), "feature_names must be an array of strings"),
    "bool weight": (dict(weights=[True, 1.0]), "weights must be a number, got True"),
    "bool intercept": (dict(intercept=True), "intercept must be a number, got True"),
    "numeric string lambda": ({"lambda": "0.01"}, "lambda must be a number, got '0.01'"),
    "numeric string median": (dict(medians=[0.5, "2.0"]), "medians must be a number, got '2.0'"),
    "minmax entry of three numbers": (dict(minmax=[[0.0, 1.0, 2.0], [1.0, 3.0]]), NOT_PAIRS),
    "minmax entry as a string": (dict(minmax=["01", [1.0, 3.0]]), NOT_PAIRS),
    "integer past the float range": (dict(intercept=10**400), "int too large to convert to float"),
    "weights as a number": (dict(weights=5), "weights must be an array of numbers"),
    "NaN intercept": (dict(intercept=float("nan")), "non-finite intercept"),
    "negative lambda": ({"lambda": -1}, r"lambda must be finite and >= 0, got -1\.0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_model_loader_refuses_values_a_saved_model_never_holds(tmp_path, case):
    changes, message = MALFORMED_MODELS[case]
    payload = {"feature_names": ["a", "b"], "weights": [1.0, -1.0], "intercept": 0.0,
               "minmax": [[0.0, 1.0], [1.0, 3.0]], "medians": [0.5, 2.0], "lambda": 0.01, **changes}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match=f"model.json: invalid model contents: {message}") as err:
        dataio.load_fusion_model(str(path))
    assert (err.value.path, err.value.line) == (str(path), None)


SCALING_DEFECTS = {
    "lo above hi": (dict(lo=[2.0, 1.0], hi=[1.0, 3.0]), "minimum above"),
    "non-finite": (dict(median=[0.5, float("nan")]), "non-finite"),
    "duplicate names": (dict(names=["a", "a"]), "duplicate"),
    "wrong shape": (dict(median=[0.5, 2.0, 1.0]), "shape"),
}


@pytest.mark.parametrize("defect", sorted(SCALING_DEFECTS))
def test_minmax_params_reject_defects_and_loader_locates_them(tmp_path, defect):
    changes, message = SCALING_DEFECTS[defect]
    fields = {"names": ["a", "b"], "lo": [0.0, 1.0], "hi": [1.0, 3.0], "median": [0.5, 2.0], **changes}
    with pytest.raises(ValueError, match=message):
        dataio.MinMaxParams(
            names=tuple(fields["names"]),
            **{k: np.array(fields[k]) for k in ("lo", "hi", "median")},
        )
    payload = {
        "feature_names": fields["names"],
        "weights": [1.0, -1.0],
        "intercept": 0.0,
        "minmax": [[lo, hi] for lo, hi in zip(fields["lo"], fields["hi"])],
        "medians": fields["median"],
        "lambda": 0.01,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match=f"model.json: invalid model contents: .*{message}"):
        dataio.load_fusion_model(str(path))


def test_write_selections_csv(tmp_path):
    path = tmp_path / "ddf.csv"
    dataio.write_selections([("spk1", 0.1 + 0.2, "t0"), ("s,2", -0.0, "t1")], path)
    assert path.read_text() == (
        "speaker_id,max_similarity,nearest_target\nspk1,0.30000000000000004,t0\n\"s,2\",-0.0,t1\n"
    )
