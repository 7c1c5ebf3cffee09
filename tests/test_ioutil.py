import pytest

from semicontract.ioutil import atomic_write_text


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "trace.csv"
    target.write_text("old\n", encoding="utf-8")

    def chunks():
        yield "new,"
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        atomic_write_text(target, chunks())
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]  # no .trace.csv.*.tmp
