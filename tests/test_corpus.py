"""Golden corpus: every case must reproduce its frozen expected output."""

import json

import pytest

from conftest import corpus_cases, load_expected, run_case, strip_paths


def test_corpus_has_at_least_25_cases():
    assert len(corpus_cases()) >= 25


@pytest.mark.parametrize("name", corpus_cases())
def test_corpus_case(name, tmp_path, cache_dir):
    code, outputs = run_case(name, str(tmp_path), cache_dir)
    assert code == 0
    assert strip_paths(outputs) == load_expected(name)


def test_provenance_records_the_format_of_a_file(tmp_path, cache_dir):
    code, _ = run_case("formats_match", str(tmp_path), cache_dir)
    assert code == 0
    (record,) = (tmp_path / "out-1" / "provenance").iterdir()
    prov = json.loads(record.read_text())
    assert prov["jobOrder"]["table"]["format"] == "iana:text/csv"
