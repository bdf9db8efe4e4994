"""The scan's pool: tasks of up to SCAN_CHUNK consecutive cells, rows in cell
order, and each chunk's cache entries written as the chunk arrives."""

import os

import pytest

import pweil.cli

# 32 cells: the 16 primes p <= 60 that do not divide n, for n = 5 and n = 7
ARGS = ["scan", "--n-range", "5,7", "--p-max", "60", "--precision", "128", "--bound", "100",
        "--format", "csv"]


def run_scan(capsys, *argv):
    code = pweil.cli.main(list(ARGS) + list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def cache_files(path):
    names = sorted(name for name in os.listdir(path) if name.endswith(".json"))
    return {name: (path / name).read_text() for name in names}


def test_two_workers_give_the_stdout_and_cache_files_of_one(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(pweil.cli.os, "cpu_count", lambda: 2)
    runs = {}
    for workers in ("1", "2"):
        cache = tmp_path / workers
        code, out, err = run_scan(capsys, "--workers", workers, "--cache-dir", str(cache))
        runs[workers] = (code, out, err, cache_files(cache))
    assert runs["1"] == runs["2"]
    code, out, err, files = runs["1"]
    assert (code, err, len(files)) == (0, "", 32)
    assert out.count("\n") == 33


@pytest.mark.parametrize("p_max, workers, want", [
    ("11", "2", [4, 4]),          # 8 cells: ceil(8 / 2) = 4 per task
    ("60", "2", [8, 8, 8, 8]),    # 32 cells: capped at SCAN_CHUNK = 8
    ("60", "3", [8, 8, 8, 8]),
])
def test_pool_tasks_are_chunks_of_consecutive_cells(capsys, monkeypatch, p_max, workers, want):
    import concurrent.futures

    tasks = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            tasks.extend(items)
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pweil.cli.os, "cpu_count", lambda: 8)
    code, out, _ = run_scan(capsys, "--p-max", p_max, "--workers", workers)
    assert code == 0
    assert [len(task) for task in tasks] == want
    cells = [cell[:2] for task in tasks for cell in task]
    assert cells == sorted(cells)
    assert [tuple(map(int, line.split(",")[:2])) for line in out.split("\n")[1:-1]] == cells


def test_cache_entries_are_written_as_each_chunk_arrives(capsys, monkeypatch, tmp_path):
    # one worker, chunks of 8: every cell of a chunk starts with the entries
    # of all the chunks before it on disk
    seen = []
    real = pweil.cli._scan_cell

    def counting(cell):
        seen.append(len(cache_files(tmp_path)))
        return real(cell)

    monkeypatch.setattr(pweil.cli, "_scan_cell", counting)
    code, _, _ = run_scan(capsys, "--workers", "1", "--cache-dir", str(tmp_path))
    assert code == 0
    assert seen == [0] * 8 + [8] * 8 + [16] * 8 + [24] * 8
    assert len(cache_files(tmp_path)) == 32
