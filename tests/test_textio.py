"""The input rules that every reader shares through `textio`."""

import csv
import gc
import io
import json
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paneldid import textio

from paneldid.bite import TreatmentDesign, WageMicrodata
from paneldid.cli import _read_region_values, main
from paneldid.designs import DesignKind, load_spec
from paneldid.panel import ingest_panel
from paneldid.simulate import load_dgp_config
from paneldid.textio import IngestError, to_number, to_numbers, write_csv

# Each reader with a small valid file for it; the files hold no quoted cells.
READERS = {
    "panel": (
        ingest_panel,
        "unit,year,quarter,outcome,weight\n"
        "a,2014,1,10.0,1.0\nb,2014,1,20.0,2.0\nb,2014,2,21.0,2.0\n",
    ),
    "microdata": (
        lambda path: WageMicrodata.read_csv(path, 8.5, 2014),
        "region,hourly_wage\na,8.0\nb,9.5\na,7.25\n",
    ),
    "design": (
        TreatmentDesign.read_csv,
        "region,gap_first,gap_second,high_first,high_second,group,cohort,population_weight\n"
        "a,0.9,0.8,1,1,high/high,2014Q3,1.0\n"
        "b,0.1,0.6,0,1,low/high,2019Q1,1.5\n"
        "c,0.1,0.1,0,0,low/low,,2.0\n",
    ),
    "region values": (
        lambda path: _read_region_values(path, "weight"),
        "region,weight\na,3\nb,1.5\n",
    ),
}


def read(tmp_path, reader, text):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return READERS[reader][0](path)


def edit_lines(text, edit):
    return "".join(edit(i, line) + "\n" for i, line in enumerate(text.splitlines()))


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", ["bom and padded header", "repeated column",
                                  "whitespace-only row", "missing column", "empty file",
                                  "wide row", "grouped digits", "non-ascii digit"])
def test_shared_input_rules(tmp_path, reader, case):
    plain = READERS[reader][1]
    header = plain.splitlines()[0].split(",")
    if case == "bom and padded header":
        text = "\ufeff" + edit_lines(plain, lambda i, line: line if i else
                                     ",".join(f" {name}\t" for name in header))
        assert read(tmp_path, reader, text) == read(tmp_path, reader, plain)
    elif case == "repeated column":
        text = edit_lines(plain, lambda i, line: f"{line},{line.split(',')[0]}")
        with pytest.raises(ValueError, match=rf"repeats column\(s\) \['{header[0]}'\]$") as exc:
            read(tmp_path, reader, text)
        assert exc.type is ValueError
    elif case == "whitespace-only row":
        text = edit_lines(plain, lambda i, line: f"{line}\n , \t" if i == 1 else line)
        assert read(tmp_path, reader, text) == read(tmp_path, reader, plain)
    elif case == "missing column":
        text = edit_lines(plain, lambda i, line: line.rsplit(",", 1)[0])
        with pytest.raises(ValueError, match=rf"lacks column\(s\) \['{header[-1]}'\]$") as exc:
            read(tmp_path, reader, text)
        assert exc.type is ValueError
    elif case == "empty file":
        with pytest.raises(ValueError, match="is empty: expected a header row$") as exc:
            read(tmp_path, reader, "")
        assert exc.type is ValueError
    elif case == "wide row":
        text = edit_lines(plain, lambda i, line: f"{line},junk" if i == 1 else line)
        with pytest.raises(IngestError,
                           match=rf"row 2: expected {len(header)} fields, got {len(header) + 1}$"):
            read(tmp_path, reader, text)
    else:
        # the last column of every file here is numeric
        cell = "1_0" if case == "grouped digits" else "\u0663"
        text = edit_lines(plain, lambda i, line: line.rsplit(",", 1)[0] + f",{cell}"
                          if i == 1 else line)
        message = rf"row 2: column '{header[-1]}': could not parse '{cell}' as a number$"
        with pytest.raises(IngestError, match=message):
            read(tmp_path, reader, text)


@pytest.mark.parametrize("reader", READERS)
def test_columns_found_by_name_in_any_order(tmp_path, reader):
    plain = READERS[reader][1]
    order = [*range(1, len(plain.splitlines()[0].split(","))), 0]
    text = edit_lines(plain, lambda i, line: ",".join(line.split(",")[j] for j in order))
    assert read(tmp_path, reader, text) == read(tmp_path, reader, plain)


LONG = "x" * (csv.field_size_limit() + 1)  # one character past the csv module's limit


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("line, cell, row", [
    (2, LONG, 3),  # on the row path: the batch is refused for its long line
    (2, f'"{LONG}"', 3),  # quoted: read by the csv module from row 2 on
    (1, f'"{LONG}"', 2),  # the first row the csv module reads after a quote
    (0, LONG, None),  # the header
], ids=["row 3", "quoted row 3", "quoted row 2", "header"])
def test_csv_module_faults_are_named(tmp_path, reader, line, cell, row):
    # The first cell of each file here is an id, or the header's first name.
    text = edit_lines(READERS[reader][1], lambda i, text: cell + text[text.index(","):]
                      if i == line else text)
    where = "header" if row is None else f"row {row}"
    kind = ValueError if row is None else IngestError
    message = rf"{where}: field larger than field limit \({csv.field_size_limit()}\)$"
    with pytest.raises(kind, match=message) as exc:
        read(tmp_path, reader, text)
    assert exc.type is kind
    if reader == "region values":  # this reader names its file
        assert str(exc.value).startswith(f"{tmp_path / 'input.csv'}{'' if row is None else ':'} ")


def test_cli_names_a_csv_module_fault(tmp_path, capsys):
    design = READERS["design"][1].replace("\nb,", f"\n{LONG},")
    (tmp_path / "design.csv").write_text(design)
    (tmp_path / "panel.csv").write_text(READERS["panel"][1])
    (tmp_path / "spec.txt").write_text("kind = staggered_twfe\n")
    assert main(["estimate", "--panel", str(tmp_path / "panel.csv"), "--design",
                 str(tmp_path / "design.csv"), "--spec", str(tmp_path / "spec.txt"),
                 "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
        "error": "IngestError",
        "message": f"row 3: field larger than field limit ({csv.field_size_limit()})",
    }


def readme_block(first_key):
    """The fenced block of README.md whose first line sets `first_key`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    (block,) = [b for b in blocks if b.startswith(f"{first_key} =")]
    return block


def test_readme_key_value_files_load():
    # both README examples put '#' comments after values
    spec = load_spec(io.StringIO(readme_block("kind")))
    assert spec.kind is DesignKind.EVENT_STUDY
    assert [str(term) for term in spec.covariates] == ["east*time", "popshare*time*east"]
    config = load_dgp_config(io.StringIO(readme_block("n_early")))
    assert config.effect_early.values == (-0.004, -0.008, -0.012)
    assert config.seed == 42


@pytest.mark.parametrize("load, text, message", [
    (load_spec, "kind = baseline\ncutoff = 2014Q5   # a bad quarter\n",
     r"^line 2: cutoff: expected a period like '2014Q3', got '2014Q5'$"),
    (load_dgp_config, "n_early = 60\nn_late = many   # --seed overrides\n",
     r"^line 2: n_late: invalid literal for int\(\) with base 10: 'many'$"),
])
def test_bad_key_value_names_line_and_key(load, text, message):
    with pytest.raises(ValueError, match=message):
        load(io.StringIO(text))


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-Infinity", "1e400"])
def test_to_number_rejects_non_finite_values(text):
    with pytest.raises(ValueError, match=rf"^non-finite value '{text}'$"):
        to_number(text)
    with pytest.raises(ValueError, match=rf"^non-finite value '{text}'$"):
        to_numbers(f"0.5, {text}")
    assert to_number("1" * 400, int) == int("1" * 400)  # an integer is always finite


@pytest.mark.parametrize("reader", READERS)
def test_number_beyond_float_range_names_row_and_column(tmp_path, reader):
    # 400 digits: too large for a float, whether read as an integer or a float
    plain = READERS[reader][1]
    header = plain.splitlines()[0].split(",")
    column = "year" if reader == "panel" else header[-1]
    at, big = header.index(column), "1" * 400
    text = edit_lines(plain, lambda i, line: ",".join(
        big if i == 1 and j == at else cell for j, cell in enumerate(line.split(","))))
    problem = "integer out of range" if column == "year" else "non-finite value"
    with pytest.raises(IngestError, match=rf"row 2: column '{column}': {problem} '{big}'$"):
        read(tmp_path, reader, text)


WRITE_CELLS = st.one_of(
    st.sampled_from(["", " ", "a", "x#y", "1.5", "ä", ",", '"', "\n", "\r", "\x00", "a,b"]),
    st.text(max_size=3), st.integers(),
)


def written(write):
    """What `write` puts in a stream, or the message of the `csv.Error` it raises."""
    sink = io.StringIO()
    try:
        write(sink)
    except csv.Error as exc:
        return str(exc)
    return sink.getvalue()


def by_csv_module(header, rows):
    def write(sink):
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return written(write)


@pytest.mark.parametrize("batch", [1, 4096])
@pytest.mark.parametrize("header, rows", [
    (["h1", "h2"], [("a", "b"), ["c", ""]]),  # joined
    (["h"], [["a"], [""]]),  # one column: csv quotes a lone empty cell
    (["h1", "h2"], [["a", "b", "c"], [""]]),  # widths that offset each other
    (["h1", "h2"], [["a,b", "c"]]),
    (["h1", "h2"], [["a\nb", "c"], ["d", "e"]]),
    (["h1", "h2"], [['a"b', "c"]]),
    (["h1", "h2"], [["a\rb", "c"]]),
    (["h1", "h2"], [["a\x00b", "c"]]),
    (["h1", "h2"], [[1, 2.5]]),
])
def test_write_csv_rows_that_need_the_csv_module(header, rows, batch):
    with mock.patch.object(textio, "BATCH_ROWS", batch):
        assert written(lambda sink: write_csv(sink, header, rows)) == by_csv_module(header, rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(min_value=1, max_value=4),
       batch=st.sampled_from([1, 2, 3, 4096]))
def test_write_csv_writes_the_csv_modules_bytes(data, width, batch):
    # Mostly rows of plain cells at the header's width, so most chunks are joined.
    plain = st.sampled_from(["a", " b", "1.5", "x#y", ""])
    header = data.draw(st.lists(plain, min_size=width, max_size=width))
    rows = data.draw(st.lists(st.one_of(
        st.lists(plain, min_size=width, max_size=width),
        st.lists(st.one_of(plain, WRITE_CELLS), min_size=width, max_size=width),
        st.lists(WRITE_CELLS, max_size=5).map(tuple),
    ), max_size=12))

    with mock.patch.object(textio, "BATCH_ROWS", batch):
        assert written(lambda sink: write_csv(sink, header, iter(rows))) == by_csv_module(
            header, rows)


def test_plain_batches_take_numpy_path(tmp_path):
    # With the row path made to fail, a plain file reads only if every one of
    # its batches stayed on numpy's reader; padded ids and labels are plain.
    panel = tmp_path / "panel.csv"
    units = [f"{' ' * (i % 3)}u{i}" for i in range(40)]
    panel.write_text("unit,year,quarter,outcome,weight,cluster\n" + "".join(
        f"{unit},2014,{q},{1.0 + i + q / 8!r},1.5,{' ' if i % 2 else ''}c{i // 4}\n"
        for i, unit in enumerate(units) for q in (1, 2, 3, 4)))
    wave = tmp_path / "wave.csv"
    wave.write_text("region,hourly_wage\n" + "".join(
        f"{' ' * (i % 2)}r{i % 7},{7.0 + i / 16!r}\n" for i in range(200)))
    design = tmp_path / "design.csv"
    design.write_text(READERS["design"][1] + "".join(
        f"{' ' * (i % 2)}r{i},{i / 8!r},0.25, {i % 2},0,{'high/low' if i % 2 else 'low/low'},"
        f"{'2014Q3' if i % 2 else ''},{1.0 + i!r}\n" for i in range(40)))
    values = tmp_path / "values.csv"
    values.write_text("region,weight\n" + "".join(f"r{i} ,{i / 4!r}\n" for i in range(40)))

    def read_all():
        return (ingest_panel(panel), WageMicrodata.read_csv(wave, 8.5, 2014),
                TreatmentDesign.read_csv(design), _read_region_values(values, "weight"))

    one_batch = read_all()

    def row_path(*args):
        raise AssertionError("a plain batch took the row path")

    with mock.patch.object(textio, "BATCH_ROWS", 16), \
            mock.patch.object(textio.CsvTable, "checked", row_path):
        batched = read_all()
    assert batched == one_batch
    assert len(one_batch[0].units) == 40 and len(set(one_batch[0].cluster.values())) == 10
    assert one_batch[1].regions == tuple(f"r{i}" for i in range(7))
    assert len(one_batch[2].regions) == 43 and one_batch[2].regions["r39"].high_first
    assert one_batch[3] == {f"r{i}": i / 4 for i in range(40)}


@pytest.mark.parametrize("quote", ["", '"'], ids=["numpy path", "row path"])
def test_readers_leave_no_reference_cycle(quote):
    # A cycle would keep a finished reader, and every column it read, alive
    # until the collector next runs, raising the peak memory of what follows.
    panel = "unit,year,quarter,outcome,weight,cluster\n" + "".join(
        f"{quote}u{i}{quote},2014,{q},1.5,1.0,c{i // 2}\n" for i in range(6) for q in (1, 2))
    wave = "region,hourly_wage\n" + "".join(f"{quote}r{i % 3}{quote},8.0\n" for i in range(6))
    design = READERS["design"][1].replace("\nb,", f"\n{quote}b{quote},")
    values = "region,weight\n" + "".join(f"{quote}r{i}{quote},2.5\n" for i in range(6))
    gc.collect()
    gc.disable()
    try:
        ingest_panel(io.StringIO(panel))
        WageMicrodata.read_csv(io.StringIO(wave), 8.5, 2014)
        TreatmentDesign.read_csv(io.StringIO(design))
        _read_region_values(io.StringIO(values), "weight")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("reader, column", [
    ("panel", "outcome"), ("panel", "weight"), ("panel", "z"), ("microdata", "hourly_wage"),
    ("design", "gap_first"), ("design", "gap_second"), ("design", "population_weight"),
    ("region values", "weight"),
])
@pytest.mark.parametrize("cell", ["1.5\xa0", "\xa01.5", ""], ids=["nbsp after", "nbsp before",
                                                               "blank"])
def test_every_numeric_cell_keeps_the_number_rule(tmp_path, reader, column, cell):
    # Whitespace that is not ASCII, such as a no-break space, breaks the
    # number rule in every numeric column; a blank cell cannot be parsed.
    plain = READERS[reader][1]
    if reader == "panel":  # with a covariate column
        plain = edit_lines(plain, lambda i, line: line + (",z" if i == 0 else ",0.5"))
    at = plain.splitlines()[0].split(",").index(column)
    text = edit_lines(plain, lambda i, line: ",".join(
        cell if i == 1 and j == at else value for j, value in enumerate(line.split(","))))
    message = rf"row 2: column '{column}': could not parse {re.escape(repr(cell))} as a number$"
    with pytest.raises(IngestError, match=message):
        read(tmp_path, reader, text)
