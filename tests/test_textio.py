"""The input rules that every CSV reader shares through `textio.read_csv`."""

import pytest

from paneldid.bite import TreatmentDesign, WageMicrodata
from paneldid.cli import _read_region_values
from paneldid.panel import ingest_panel

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
                                  "whitespace-only row", "missing column", "empty file"])
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
    else:
        with pytest.raises(ValueError, match="is empty: expected a header row$") as exc:
            read(tmp_path, reader, "")
        assert exc.type is ValueError


@pytest.mark.parametrize("reader", READERS)
def test_columns_found_by_name_in_any_order(tmp_path, reader):
    plain = READERS[reader][1]
    order = [*range(1, len(plain.splitlines()[0].split(","))), 0]
    text = edit_lines(plain, lambda i, line: ",".join(line.split(",")[j] for j in order))
    assert read(tmp_path, reader, text) == read(tmp_path, reader, plain)
