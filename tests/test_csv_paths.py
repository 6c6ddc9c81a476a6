"""Every CSV reader on both paths: numpy's tokeniser and the csv rows.

Inputs that need the csv module's rules (CRLF line ends, quoted cells, one
holding a line break, non-ASCII and '#' ids, blank rows) must read as the
same rows written plainly, whatever the batch size. Any panel, microdata,
design or region-value file, with any fault, must read or fail the same way
with the row path forced for every batch.
"""

import csv
import io
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paneldid import textio
from paneldid.bite import DESIGN_COLUMNS, SwitcherGroup, TreatmentDesign, WageMicrodata, WageRecord
from paneldid.cli import _read_region_values
from paneldid.panel import PanelDataset, ingest_panel
from paneldid.periods import Period
from paneldid.textio import IngestError

BATCHES = [1, 2, 3, 4096]
PLAIN_IDS = ["a", "b", "c", "d", "e", "f"]
TRICKY_IDS = {
    "quoted comma": "x,y",
    "quoted line break": "x\ny",
    "non-ascii": "ä٣",
    "hash": "x#y",
}
PERIODS = [Period(2014, 1), Period(2014, 2)]


def panel_rows(ids):
    """Header and rows of a panel: each id at both periods."""
    rows = [[unit, str(p.year), str(p.quarter), repr(1.0 + i + t / 4), repr(0.5 + i)]
            for i, unit in enumerate(ids) for t, p in enumerate(PERIODS)]
    return ["unit", "year", "quarter", "outcome", "weight"], rows


def micro_rows(ids):
    """Header and rows of a wave: each id with two wages."""
    rows = [[region, repr(7.5 + i + t / 8)] for t in range(2) for i, region in enumerate(ids)]
    return ["region", "hourly_wage"], rows


def panel_of(rows):
    return PanelDataset.from_columns(
        [r[0] for r in rows], [Period(int(r[1]), int(r[2])) for r in rows],
        [float(r[3]) for r in rows], [float(r[4]) for r in rows],
    )


def micro_of(rows):
    return WageMicrodata([WageRecord(r[0], float(r[1])) for r in rows], 8.5, 2014)


def micro_reader(source):
    return WageMicrodata.read_csv(source, 8.5, 2014)


READERS = {
    "panel": (ingest_panel, panel_rows, panel_of),
    "microdata": (micro_reader, micro_rows, micro_of),
}


def csv_text(header, rows, *, line_end="\n", quote_all=False, blank_at=()):
    """`rows` written by the csv module, with blank rows before each of `blank_at`."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator=line_end,
                        quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for i, row in enumerate(rows):
        if i in blank_at:
            sink.write(("" if i % 2 else " , \t") + line_end)
        writer.writerow(row)
    if len(rows) in blank_at:
        sink.write(" " + line_end)
    return sink.getvalue()


def read(tmp_path, reader, text, batch):
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textio, "BATCH_ROWS", batch)
        return READERS[reader][0](path)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("tricky", [None, *TRICKY_IDS])
@pytest.mark.parametrize("form", ["plain", "crlf", "quote every cell", "blank rows"])
def test_inputs_read_as_the_plain_file(tmp_path, reader, tricky, form, batch):
    _, rows_of, built = READERS[reader]
    ids = list(PLAIN_IDS)
    if tricky is not None:
        ids[1], ids[3] = TRICKY_IDS[tricky] + "0", TRICKY_IDS[tricky] + "1"
    header, rows = rows_of(ids)
    text = csv_text(header, rows, line_end="\r\n" if form == "crlf" else "\n",
                    quote_all=form == "quote every cell",
                    blank_at=(0, 1, 3, 4, 6, len(rows)) if form == "blank rows" else ())
    expected = built(rows)
    assert read(tmp_path, reader, csv_text(header, rows), 4096) == expected
    assert read(tmp_path, reader, text, batch) == expected


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("reader", READERS)
def test_bad_row_after_a_multi_line_record_is_numbered_by_record(tmp_path, reader, batch):
    _, rows_of, _ = READERS[reader]
    header, rows = rows_of(["a", "x\ny", "b", "c\nd\ne"])
    rows[5][-1] = "-1.0"  # row 7 counts records; a later line number would be wrong
    column = header[-1]
    with pytest.raises(IngestError, match=rf"^row 7: column '{column}' must be positive"):
        read(tmp_path, reader, csv_text(header, rows), batch)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("reader", READERS)
def test_a_bad_row_wins_over_a_later_csv_error(tmp_path, reader, batch):
    _, rows_of, _ = READERS[reader]
    header, rows = rows_of(["x\ny", "a", "b", "c"])
    rows[3][-1] = "-1.0"  # row 5
    rows[5][header.index("unit" if reader == "panel" else "region")] = "z" * 40  # row 7
    old_limit = csv.field_size_limit(20)
    try:
        with pytest.raises(IngestError, match=r"^row 5: column '\w+' must be positive"):
            read(tmp_path, reader, csv_text(header, rows), batch)
    finally:
        csv.field_size_limit(old_limit)


# Files of valid rows with one fault among those that must send a batch to
# the row path or raise there, applied at some rows.
BASE_IDS = ["a", "b", "c", "x#y"]
PADS = ["", "", " ", "\t"]
STAMPS = [("2014", "1"), ("2014", "2"), (" 2015", "3 "), ("2015", "4")]
ODD_NUMBERS = ["1_0", "١٢", "1.5\xa0", "1.5\x1c", "nan", "-inf", "1e400", "", " ",
               "0", "-2.5", "x", '"3.5"']
ODD_IDS = ["", "  ", "ä", '"a"', '"c,d"', '"e\nf"', "g\x1ch", "i\x00"]
ODD_FLAGS = ["", "2", " 1", "1.0", "yes", '"0"']
ODD_CELLS = {
    "unit": ODD_IDS, "region": ODD_IDS, "note": ODD_IDS, "cluster": [*ODD_IDS, "k3"],
    "year": ["x", "2014.0", "1_0", "10000", ""], "quarter": ["5", "", "1.0"],
    "outcome": ODD_NUMBERS, "weight": ODD_NUMBERS, "z": ODD_NUMBERS,
    "hourly_wage": ODD_NUMBERS, "gap_first": ODD_NUMBERS, "gap_second": ODD_NUMBERS,
    "population_weight": ODD_NUMBERS, "high_first": ODD_FLAGS, "high_second": ODD_FLAGS,
    "group": ["", "mid", " low/low", '"high/high"', "low/high"],
    "cohort": ["", " 2014Q3", "2019Q5", "2019Q1", "x", '"2014Q3"'],
}
EXTRA_ROWS = {  # a row put before a hit row, from its cells and the lines so far
    "blank row": lambda cells, lines: "",
    "spaces row": lambda cells, lines: " \t",
    "empty cells row": lambda cells, lines: "," * (len(cells) - 1),
    "short row": lambda cells, lines: ",".join(cells[:-1]),
    "long row": lambda cells, lines: ",".join([*cells, "1"]),
    "repeated row": lambda cells, lines: lines[-1],
    "padded repeat": lambda cells, lines: " " + lines[-1],
}
ROW_FAULTS = [*EXTRA_ROWS, "carriage returns"]
PANEL_HEADER = ["unit", "year", "quarter", "outcome", "weight", "z", "cluster"]
MICRO_HEADER = ["hourly_wage", "region", "note"]
DESIGN_HEADER = list(DESIGN_COLUMNS)
VALUES_HEADER = ["weight", "region"]
HEADERS = {"panel": PANEL_HEADER, "microdata": MICRO_HEADER, "design": DESIGN_HEADER,
           "region values": VALUES_HEADER}


def faulty_text(header, rows, fault, hits):
    """CSV text of `rows`, dicts of cells, with `fault` at each row index in `hits`."""
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        cells = [row[name] for name in header]
        if i in hits and isinstance(fault, tuple):
            cells[header.index(fault[0])] = fault[1]
        elif i in hits and fault in EXTRA_ROWS:
            lines.append(EXTRA_ROWS[fault](cells, lines))
        lines.append(",".join(cells))
    line_end = "\r\n" if fault == "carriage returns" else "\n"
    return line_end.join(lines) + line_end


def faults(header):
    return [None, *ROW_FAULTS, *((name, cell) for name in header for cell in ODD_CELLS[name])]


@st.composite
def csv_files(draw, reader):
    """Text of a random panel or microdata file with one drawn fault."""
    numbers = st.one_of(st.floats(min_value=0.01, max_value=1e6).map(repr),
                        st.sampled_from(["1e5", " 7 ", "+4", "3.25\t"]))

    def padded(base):
        return draw(st.sampled_from(PADS)) + base + draw(st.sampled_from(PADS))

    if reader == "panel":
        header = draw(st.sampled_from([PANEL_HEADER, PANEL_HEADER[:-1],
                                       [*PANEL_HEADER[:5], "cluster"]]))
        label = {base: draw(st.sampled_from(["k1", "k2"])) for base in BASE_IDS}
        keys = draw(st.lists(st.tuples(st.sampled_from(BASE_IDS), st.sampled_from(STAMPS)),
                             unique=True, max_size=14))
        rows = [{"unit": padded(base), "year": year, "quarter": quarter,
                 "outcome": draw(numbers), "weight": draw(numbers), "z": draw(numbers),
                 "cluster": padded(label[base])}
                for base, (year, quarter) in keys]
    elif reader == "microdata":
        header = draw(st.sampled_from([MICRO_HEADER, MICRO_HEADER[1::-1]]))
        rows = [{"region": padded(draw(st.sampled_from(BASE_IDS))),
                 "hourly_wage": draw(numbers), "note": padded("n")}
                for _ in range(draw(st.integers(min_value=0, max_value=14)))]
    elif reader == "design":
        header = draw(st.sampled_from([DESIGN_HEADER, DESIGN_HEADER[::-1]]))
        rows = [design_row(padded(base), draw(st.booleans()), draw(st.booleans()),
                           draw(numbers), draw(numbers), draw(numbers))
                for base in draw(st.lists(st.sampled_from(BASE_IDS), unique=True))]
    else:
        header = draw(st.sampled_from([VALUES_HEADER, VALUES_HEADER[::-1]]))
        rows = [{"region": padded(draw(st.sampled_from(BASE_IDS))), "weight": draw(numbers)}
                for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    fault = draw(st.one_of(
        st.none(), st.sampled_from(ROW_FAULTS),
        st.sampled_from(header).flatmap(
            lambda name: st.tuples(st.just(name), st.sampled_from(ODD_CELLS[name]))),
    ))
    hits = draw(st.sets(st.integers(min_value=0, max_value=max(len(rows) - 1, 0))))
    text = faulty_text(header, rows, fault, hits)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def read_text(read, text, batch, row_path, field_limit):
    """What `read` gives for `text`, or the type and message of what it raises."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may reach the caller
            patch.setattr(textio, "BATCH_ROWS", batch)
            if row_path:
                patch.setattr(textio.CsvBatch, "columns", lambda self, numeric: None)
            return read(io.StringIO(text, newline=""))
    except Exception as exc:  # noqa: BLE001 - compared as type and message
        return type(exc), str(exc)
    finally:
        csv.field_size_limit(old_limit)


def panel_reader(positive=True):
    return lambda source: ingest_panel(source, require_positive_outcome=positive)


class NamedText(io.StringIO):
    """A text stream with the same name on every read, as errors name it."""

    def __str__(self):
        return "values.csv"


def values_reader(source):
    return _read_region_values(NamedText(source.read(), newline=""), "weight")


FAULT_READERS = {"microdata": micro_reader, "design": TreatmentDesign.read_csv,
                 "region values": values_reader}


def design_row(region, high_first, high_second, gap_first, gap_second, weight):
    """A design-file row whose group and cohort follow its flags."""
    return {"region": region, "gap_first": gap_first, "gap_second": gap_second,
            "high_first": str(int(high_first)), "high_second": str(int(high_second)),
            "group": SwitcherGroup.from_flags(high_first, high_second).value,
            "cohort": "2014Q3" if high_first else "2019Q1" if high_second else "",
            "population_weight": weight}


def fixed_rows(reader):
    """Six valid rows. In a panel, the fourth is the first of a unit seen again later."""
    regions = ["a", "x#y", " b", "c ", "d", "e"]
    if reader == "design":
        return [design_row(region, i % 2 == 0, i % 3 == 0, repr(0.25 * i), repr(0.5 - i / 8),
                           repr(1.0 + i)) for i, region in enumerate(regions)]
    if reader == "region values":
        return [{"region": region, "weight": repr(1.5 + i)} for i, region in enumerate(regions)]
    if reader == "panel":
        keys = [("a", "k1", 0), ("a", "k1", 1), (" b", "k2", 0), ("x#y", "k1", 0),
                (" b", "k2", 1), ("x#y", "k1", 1)]
        return [{"unit": unit, "year": STAMPS[t][0], "quarter": STAMPS[t][1],
                 "outcome": repr(2.0 + i), "weight": repr(0.5 + i), "z": repr(i / 4),
                 "cluster": label}
                for i, (unit, label, t) in enumerate(keys)]
    return [{"region": region, "hourly_wage": repr(7.5 + i), "note": "n"}
            for i, region in enumerate(["a", "x#y", " b", "b", "a", "c"])]


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("reader, fault", [
    (reader, fault) for reader, header in HEADERS.items() for fault in faults(header)
])
def test_each_fault_reads_as_the_row_path(reader, fault, batch):
    header = HEADERS[reader]
    text = faulty_text(header, fixed_rows(reader), fault, {3})
    read = panel_reader() if reader == "panel" else FAULT_READERS[reader]
    limit = csv.field_size_limit()
    assert read_text(read, text, batch, False, limit) == read_text(read, text, batch, True, limit)


@pytest.mark.parametrize("reader", HEADERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_files_read_as_the_row_path(reader, data):
    text = data.draw(csv_files(reader))
    batch = data.draw(st.sampled_from(BATCHES))
    field_limit = data.draw(st.sampled_from([csv.field_size_limit(), 16]))
    read = panel_reader(data.draw(st.booleans())) if reader == "panel" else FAULT_READERS[reader]
    fast = read_text(read, text, batch, False, field_limit)
    assert fast == read_text(read, text, batch, True, field_limit)


# A fault across rows, made at row index `at` of `fixed_rows`, and its message.
CROSS_ROW_FAULTS = {
    "duplicate observation": ("panel", "repeated row", 3, r"^row 5: duplicate observation "
                              r"for unit 'b' period 2014Q1 \(first seen at row 4\)$"),
    "conflicting cluster label": ("panel", ("cluster", "k3"), 4, r"^row 6: unit 'b' has "
                                  r"conflicting cluster labels 'k2' and 'k3'$"),
    "duplicate design region": ("design", "repeated row", 3, r"^row 5: column 'region': "
                                r"duplicate region 'b', first listed at row 4$"),
    "duplicate region value": ("region values", "repeated row", 3,
                               r"^values\.csv: duplicate region 'b' at row 5$"),
}


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("row_path", [False, True], ids=["numpy path", "row path"])
@pytest.mark.parametrize("case", CROSS_ROW_FAULTS)
def test_a_fault_across_rows_wins_over_a_later_cell_fault(case, row_path, batch):
    reader, fault, at, message = CROSS_ROW_FAULTS[case]
    rows = fixed_rows(reader)
    rows[-1]["weight" if reader != "design" else "population_weight"] = "x"  # a later row
    read = panel_reader() if reader == "panel" else FAULT_READERS[reader]
    text = faulty_text(HEADERS[reader], rows, fault, {at})
    kind, got = read_text(read, text, batch, row_path, csv.field_size_limit())
    assert kind is IngestError and re.search(message, got)
