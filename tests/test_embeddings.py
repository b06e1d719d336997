"""Embedding-matrix tests: statistics, expansion, anchor freeze, checkpoints."""

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

import oracles
from lexcl import bpe, config, embeddings as emb, harness, report
from lexcl.bench import BenchConfig
from lexcl.errors import CheckpointError, DatasetError, InvalidInputError
from lexcl.metrics import EvalMatrix

# one-sided KS critical value at alpha = 0.01 is c(alpha)/sqrt(n), c = 1.628
KS_C_01 = 1.628


def _fail_writes_halfway(monkeypatch, hits):
    """Make every file that embeddings opens for writing at a path for
    which `hits(path)` holds take half of its first write, then raise
    as a full disk would."""

    class HalfWriter:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(bytes(data)[: len(data) // 2])
            raise OSError("no space left on device")

    real_open = open

    def failing_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return HalfWriter(f) if "w" in mode and hits(str(path)) else f

    monkeypatch.setattr(emb, "open", failing_open, raising=False)


def _drawn(rows: int, dim: int, seed: int) -> np.ndarray:
    """A rows x dim float32 matrix grown from empty under the fixed init."""
    return emb.expand(np.zeros((0, dim), np.float32), rows, emb.FIXED_INIT, seed)


class TestDistStats:
    def test_all_zero(self):
        s = emb.dist_stats(np.zeros((4, 4), np.float32))
        assert s.mu == 0.0 and s.sigma == 0.0

    def test_hand_case(self):
        s = emb.dist_stats(np.array([[1.0, -1.0], [1.0, -1.0]], np.float32))
        assert s.mu == 0.0 and s.sigma == 1.0

    def test_sampled_table_moments(self):
        t = _drawn(10_000, 64, 5)
        s = emb.dist_stats(t)
        n = 10_000 * 64
        assert abs(s.mu) < 4 * 0.02 / np.sqrt(n)
        assert abs(s.sigma - 0.02) < 0.01 * 0.02

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8)).astype(np.float32)
        a = emb.dist_stats(m)
        perm = rng.permutation(m.ravel()).reshape(8, 8)
        b = emb.dist_stats(perm)
        assert np.isclose(a.mu, b.mu) and np.isclose(a.sigma, b.sigma)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            emb.dist_stats(np.zeros((0, 4), np.float32))


def scipy_ks(x, mu, sigma):
    return sps.kstest(np.asarray(x, dtype=np.float64).ravel(), "norm",
                      args=(mu, sigma)).statistic


class TestKsStatistic:
    """`ks_statistic` against scipy's `kstest`, its oracle."""

    @pytest.mark.parametrize("x, mu, sigma", [
        ([0.3], 0.0, 1.0),                           # n = 1
        ([-2.5], 1.0, 0.5),
        ([0.5] * 5 + [1.0] * 3, 0.7, 0.2),           # ties
        ([0.0, 0.0, 0.0, 0.0], 0.0, 1.0),            # all tied at the mean
        ([40.0, 50.0, -60.0], 0.0, 1.0),             # far in both tails
        (np.arange(-3, 4, dtype=float), 0.0, 2.0),
    ])
    def test_hand_cases(self, x, mu, sigma):
        assert abs(emb.ks_statistic(x, mu, sigma) - scipy_ks(x, mu, sigma)) < 1e-12

    @pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (5.0, 1.0),
                                              (0.0, 1e-3), (-3.0, 40.0)])
    def test_shifted_and_scaled(self, shift, scale):
        z = np.random.default_rng(1).standard_normal(2000)
        x = shift + scale * z
        assert abs(emb.ks_statistic(x, shift, scale) - scipy_ks(x, shift, scale)) < 1e-12
        # the statistic of z against N(0, 1) is invariant under the map
        assert abs(emb.ks_statistic(x, shift, scale)
                   - emb.ks_statistic(z, 0.0, 1.0)) < 1e-9

    def test_float32_matrix_like_the_harness_passes(self):
        m = np.random.default_rng(2).normal(0.01, 0.3, size=(40, 16)).astype(np.float32)
        assert abs(emb.ks_statistic(m, 0.0, 0.3) - scipy_ks(m, 0.0, 0.3)) < 1e-12

    @given(x=st.lists(st.floats(-50, 50), min_size=1, max_size=200),
           mu=st.floats(-5, 5), sigma=st.floats(1e-3, 100))
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy(self, x, mu, sigma):
        assert abs(emb.ks_statistic(x, mu, sigma) - scipy_ks(x, mu, sigma)) < 1e-12

    @given(x=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
           sigma=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy_with_many_ties(self, x, sigma):
        assert abs(emb.ks_statistic(x, 0.0, sigma) - scipy_ks(x, 0.0, sigma)) < 1e-12

    @pytest.mark.parametrize("x, sigma", [([], 1.0), ([1.0], 0.0), ([1.0], -1.0)])
    def test_rejects_empty_or_nonpositive_sigma(self, x, sigma):
        with pytest.raises(InvalidInputError):
            emb.ks_statistic(x, 0.0, sigma)


class TestExpand:
    def test_zero_new_rows_identity(self):
        t = _drawn(10, 8, 1)
        out = emb.expand(t, 0, emb.FIXED_INIT, rng_seed=2)
        assert np.array_equal(out, t)

    def test_grows_an_empty_matrix(self):
        """Grown from 0 rows, every row is the init's seeded draw."""
        out = emb.expand(np.zeros((0, 8), np.float32), 300, emb.FIXED_INIT,
                         rng_seed=4)
        want = np.random.default_rng(4).normal(0.0, 0.02, size=(300, 8))
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert out.tobytes() == want.astype(np.float32).tobytes()

    def test_prefix_bit_exact(self):
        t = _drawn(50, 16, 3)
        before = oracles.matrix_hash(t)
        out = emb.expand(t, 200, emb.dist_stats(t), rng_seed=4)
        assert oracles.matrix_hash(out[:50]) == before

    def test_fixed_policy_distribution(self):
        t = _drawn(4, 8, 0)
        out = emb.expand(t, 2000, emb.FIXED_INIT, rng_seed=7)
        new = out[4:].astype(np.float64).ravel()
        n = new.size
        assert n >= 10_000
        assert abs(new.mean()) < 4 * 0.02 / np.sqrt(n)
        se_sigma = 0.02 / np.sqrt(2 * n)
        assert abs(new.std() - 0.02) < 4 * se_sigma
        ks = sps.kstest(new, "norm", args=(0.0, 0.02)).statistic
        assert ks < KS_C_01 / np.sqrt(n)

    def test_matched_policy_distribution(self):
        rng = np.random.default_rng(11)
        trained = rng.normal(0.03, 0.31, size=(400, 64)).astype(np.float32)
        src = emb.dist_stats(trained)
        out = emb.expand(trained, 200, src, rng_seed=13)
        new = out[400:].astype(np.float64).ravel()
        n = new.size
        assert n >= 10_000
        assert abs(new.mean() - src.mu) < 4 * src.sigma / np.sqrt(n)
        assert abs(new.std() - src.sigma) < 4 * src.sigma / np.sqrt(2 * n)
        ks = sps.kstest(new, "norm", args=(src.mu, src.sigma)).statistic
        assert ks < KS_C_01 / np.sqrt(n)

    def test_negative_rejected(self):
        t = _drawn(4, 4, 0)
        with pytest.raises(InvalidInputError):
            emb.expand(t, -1, emb.FIXED_INIT, rng_seed=0)
        with pytest.raises(InvalidInputError):
            emb.expand(t, 1, emb.DistStats(0.0, -0.1), rng_seed=0)

    def test_seeded_determinism(self):
        t = _drawn(4, 4, 0)
        a = emb.expand(t, 10, emb.FIXED_INIT, rng_seed=9)
        b = emb.expand(t, 10, emb.FIXED_INIT, rng_seed=9)
        assert np.array_equal(a, b)


class TestAnchor:
    def test_anchor_frozen_under_mutation(self):
        t = _drawn(6, 4, 2)
        anchor = emb.snapshot_anchor(t)
        snap = anchor.copy()
        t += 1.0
        assert np.array_equal(anchor, snap)

    def test_anchor_write_blocked(self):
        t = _drawn(3, 3, 2)
        anchor = emb.snapshot_anchor(t)
        with pytest.raises(ValueError):
            anchor[0, 0] = 1.0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        t = _drawn(17, 9, 5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {"task": 0}, p)
        back, side = emb.load_checkpoint(p)
        assert np.array_equal(back, t)
        assert side == {"task": 0, "rows": 17, "dim": 9}

    def test_corrupt_magic(self, tmp_path):
        t = _drawn(3, 3, 5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        raw = bytearray(p.read_bytes())
        raw[0] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            emb.load_checkpoint(p)

    def test_truncated_payload(self, tmp_path):
        t = _drawn(3, 3, 5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(CheckpointError,
                           match="truncated payload of 3 x 3"):
            emb.load_checkpoint(p)

    def test_header_past_the_file_fails_before_the_read(self, tmp_path):
        """A header that declares 0xFFFFFFFF x 0xFFFFFFFF entries names
        the file as truncated: no OverflowError, and no read of the
        declared size."""
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(_drawn(3, 3, 5), {}, p)
        raw = bytearray(p.read_bytes())
        raw[len(emb.EMB_MAGIC) + 4 : len(emb.EMB_MAGIC) + 12] = b"\xff" * 8
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated payload") as e:
            emb.load_checkpoint(p)
        assert str(p) in str(e.value)

    def test_row_mismatch(self, tmp_path):
        t = _drawn(3, 3, 5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        with pytest.raises(CheckpointError, match="3 rows, vocab expects 5"):
            emb.load_checkpoint(p, expected_rows=5)

    def test_width_checked_against_sidecar_and_caller(self, tmp_path):
        t = _drawn(3, 4, 5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        emb.load_checkpoint(p, expected_dim=4)
        with pytest.raises(CheckpointError, match="model.dim is 8"):
            emb.load_checkpoint(p, expected_dim=8)
        emb.write_matrix(p, emb.EMB_MAGIC, t[:, :2])
        with pytest.raises(CheckpointError,
                           match="2 columns, sidecar declares 4"):
            emb.load_checkpoint(p)

    def test_unsupported_version(self, tmp_path):
        t = _drawn(2, 2, 5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        raw = bytearray(p.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported version 99"):
            emb.load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        t = _drawn(3, 3, 5)
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {}, p)
        with open(p, "ab") as f:
            f.write(b"\0")
        with pytest.raises(CheckpointError, match="trailing"):
            emb.load_checkpoint(p)

    def test_vocab_hash_checked_when_given(self, tmp_path):
        t = _drawn(3, 3, 5)
        ours, theirs = emb.vocab_hash([b"a", b"b"]), emb.vocab_hash([b"a", b"c"])
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(t, {"vocab_hash": ours}, p)
        assert np.array_equal(
            emb.load_checkpoint(p, expected_vocab_hash=ours)[0], t)
        emb.load_checkpoint(p)  # no expectation, no check
        with pytest.raises(CheckpointError, match="sidecar vocab hash"):
            emb.load_checkpoint(p, expected_vocab_hash=theirs)
        os.remove(str(p) + ".json")
        with pytest.raises(FileNotFoundError, match=r"ckpt\.bin\.json"):
            emb.load_checkpoint(p, expected_vocab_hash=ours)

    @pytest.mark.parametrize("value", [None, "absent", 3.0, "3", True])
    @pytest.mark.parametrize("name", ["rows", "dim"])
    def test_sidecar_must_declare_the_shape(self, tmp_path, name, value):
        """`save_checkpoint` always writes rows and dim, so a sidecar that
        lacks either, or holds something other than an integer, is
        refused naming the sidecar, before any shape is compared."""
        p = tmp_path / "ckpt.bin"
        emb.save_checkpoint(_drawn(3, 3, 5), {}, p)
        side = Path(f"{p}.json")
        meta = json.loads(side.read_text())
        if value == "absent":
            del meta[name]
        else:
            meta[name] = value
        side.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError,
                           match=rf"ckpt\.bin\.json: .*integer 'rows' and 'dim'"):
            emb.load_checkpoint(p)

    @pytest.mark.parametrize("target", [".bin", ".json"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, target):
        """A write that dies half way (disk full, a crash) must leave the
        previous checkpoint and sidecar whole, and no temp file behind."""
        p = tmp_path / "ckpt.bin"
        old = _drawn(6, 4, 1)
        emb.save_checkpoint(old, {"vocab_hash": "old"}, p)
        before = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}

        _fail_writes_halfway(
            monkeypatch, lambda path: (".json" in path) == (target == ".json"))
        new = _drawn(9, 4, 2)
        with pytest.raises(OSError):
            emb.save_checkpoint(new, {"vocab_hash": "new"}, p)
        monkeypatch.undo()
        after = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}
        if target == ".bin":
            assert after == before
        else:  # the matrix went in whole; only the sidecar write failed
            assert after[p.name + ".json"] == before[p.name + ".json"]
            assert set(after) == set(before)


class TestReadLines:
    """The one checked reader of every text file a run or dataset holds."""

    def read(self, tmp_path, raw: bytes, parse=str, **kw):
        p = tmp_path / "f.txt"
        p.write_bytes(raw)
        return emb.read_lines(p, parse, DatasetError, **kw)

    def test_line_ends_stripped_and_blank_lines_skipped(self, tmp_path):
        raw = b"a b\r\n\r\n \t \n c\t\nd"
        assert self.read(tmp_path, raw) == ["a b", " c\t", "d"]

    def test_header_checked_and_not_parsed(self, tmp_path):
        assert self.read(tmp_path, b"x,y\r\n1,2\r\n", header="x,y") == ["1,2"]
        with pytest.raises(DatasetError, match=r"f\.txt:1: .*'x,y'"):
            self.read(tmp_path, b"x,z\r\n1,2\r\n", header="x,y")

    def test_empty_file_needing_a_header_is_an_error(self, tmp_path):
        assert self.read(tmp_path, b"") == []
        with pytest.raises(DatasetError, match=r"f\.txt:1: "):
            self.read(tmp_path, b"", header="x,y")

    @pytest.mark.parametrize("encoding, raw, line", [
        ("utf-8", b"ok\n\xc3\xa9\nbad \xff byte\n", 3),
        ("ascii", b"ok\r\n\r\n\xc3\xa9\n", 3),
    ])
    def test_bad_byte_names_path_and_line(self, tmp_path, encoding, raw, line):
        with pytest.raises(DatasetError,
                           match=rf"f\.txt:{line}: not {encoding} text"):
            self.read(tmp_path, raw, encoding=encoding)

    def test_value_error_from_parse_names_the_line(self, tmp_path):
        with pytest.raises(DatasetError, match=r"f\.txt:3: .*'x'"):
            self.read(tmp_path, b"1\n\nx\n2\n", int)

    def test_package_error_keeps_its_class(self, tmp_path):
        def parse(line):
            if line == "b":
                raise CheckpointError("dangles")
            return line

        with pytest.raises(CheckpointError, match=r"f\.txt:2: dangles"):
            self.read(tmp_path, b"a\nb\n", parse)


class TestReadJson:
    @pytest.mark.parametrize("raw, named", [
        (b'{"a":\n "\xff"}', r"f\.json:2: not utf-8 text"),
        (b'{"a": 1,\n}', r"f\.json: not valid JSON: .*line 2"),
        (b"", r"f\.json: not valid JSON: .*line 1"),
        (b"1" * 5000, r"f\.json: not valid JSON"),
    ])
    def test_damage_names_path_and_line(self, tmp_path, raw, named):
        p = tmp_path / "f.json"
        p.write_bytes(raw)
        with pytest.raises(CheckpointError, match=named):
            emb.read_json(p, CheckpointError)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_bytes('{"a": ["\u00e9", 1.5]}'.encode())
        assert emb.read_json(p, CheckpointError) == {"a": ["\u00e9", 1.5]}


_READERS = {"json.load", "csv.reader", "csv.DictReader"}


def text_reads(source: str) -> list[tuple[int, str]]:
    """(line, call) of each call in `source` that reads a file as text
    by itself: json.load, a csv reader, open in a text read mode (or a
    mode that is not a literal) or Path.read_text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name == "open":
            mode = (node.args[1] if len(node.args) > 1 else
                    next((k.value for k in node.keywords if k.arg == "mode"),
                         ast.Constant("r")))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value) & set("bwax")):
                found.append((node.lineno, name))
        elif name in _READERS or name.endswith(".read_text"):
            found.append((node.lineno, name))
    return found


class TestOneReader:
    def test_scanner_finds_text_reads(self):
        source = ("open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode=m)\n"
                  "json.load(f)\ncsv.reader(f)\ncsv.DictReader(f)\n"
                  "p.read_text()\nopen(p, encoding='utf-8')\njson.dumps(x)\n")
        assert [n for n, _ in text_reads(source)] == [1, 4, 5, 6, 7, 8, 9]

    def test_only_embeddings_reads_text(self):
        """Every text, CSV and JSON read goes through embeddings.read_lines
        or read_json, so that all of them decode and report faults alike."""
        found = {p.name: text_reads(p.read_text(encoding="utf-8"))
                 for p in Path(emb.__file__).parent.glob("*.py")}
        del found["embeddings.py"]  # the one module that reads text
        assert {name: hits for name, hits in found.items() if hits} == {}


# Top-level names that no lexcl module uses, each with the reason it stays.
_ENTRY_POINTS: dict[str, str] = {}


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.name` of each top-level function or class in `sources`
    ({module: source}) that no module names, as a name or an attribute,
    outside the definition itself."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    uses: dict[str, list[int]] = {}  # name -> ids of the nodes naming it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                name = n.id if isinstance(n, ast.Name) else n.attr
                uses.setdefault(name, []).append(id(n))
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {id(n) for n in ast.walk(node)}
                if all(u in own for u in uses.get(node.name, ())):
                    found.append(f"{mod}.{node.name}")
    return found


class TestEveryDefinitionHasACaller:
    def test_scanner_finds_unused_definitions(self):
        sources = {"a": "def f():\n    return g()\ndef g():\n    return 1\n"
                        "def h():\n    return h()\nclass C:\n    pass\n",
                   "b": "from a import f\nf()\n"}
        assert unreferenced(sources) == ["a.h", "a.C"]

    def test_every_definition_is_used_in_the_package(self):
        """Code with no caller in lexcl is deleted rather than kept as an
        option. The package __init__ does not count as a caller: it
        re-exports names, it does not use them."""
        sources = {p.stem: p.read_text(encoding="utf-8")
                   for p in Path(emb.__file__).parent.glob("*.py")
                   if p.name != "__init__.py"}
        assert sorted(unreferenced(sources)) == sorted(_ENTRY_POINTS)


def _eval_matrix(v):
    m = EvalMatrix()
    m.set(0, 0, "img2txt", v)
    return m


def _report_copy(p, k):
    """lexcl report's copy of a diagnostics file whose version is k: the
    bytes it read from the run, written through write_atomic."""
    emb.write_atomic(p, f"task\n{k}\n".encode())


# Version k of each run file, written by the writer that makes it.
_WRITERS = {
    "eval_matrix.csv": lambda p, k: _eval_matrix(10.0 * k).save_csv(p),
    "vocab_task0.txt": lambda p, k: bpe.save_vocab([b"a", b"b" * k], p),
    "merges_task0.txt": lambda p, k: bpe.save_merges(
        [bpe.MergeRule(0, 1, 256 + k, 0, 0)], p),
    "registry_manifest.json": lambda p, k: harness._write_json(
        p, [{"task_index": 0, "vocab_after": 256 + k, "counts": [k]}]),
    "fisher.csv": lambda p, k: harness._write_csv(
        p, ["task", "fisher_trace"], [{"task": 0, "fisher_trace": 0.5 * k}]),
    "effective_config.txt": lambda p, k: config.dump_config(
        BenchConfig(seed=k), p),
    "ar_f.csv": lambda p, k: report.write_ar_f(
        report.ar_f(_eval_matrix(10.0 * k), "continual"), p),
    "ar_vs_task.svg": lambda p, k: report.write_svg_lines(
        p, {"img2txt": [(0.0, 10.0), (1.0, 5.0)]}, f"version {k}"),
    "dist_stats.csv": _report_copy,
}


class TestAtomicRunFiles:
    @pytest.mark.parametrize("name", sorted(_WRITERS))
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, name):
        """Each run file goes through write_atomic: a write that dies half
        way leaves the old file whole and no temp file behind."""
        p = tmp_path / name
        _WRITERS[name](p, 1)
        before = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}
        _fail_writes_halfway(monkeypatch, lambda path: True)
        with pytest.raises(OSError):
            _WRITERS[name](p, 2)
        monkeypatch.undo()
        after = {n: (tmp_path / n).read_bytes() for n in os.listdir(tmp_path)}
        assert after == before
        _WRITERS[name](p, 2)
        assert p.read_bytes() != before[name]
