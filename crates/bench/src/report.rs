//! The report pipeline: what every experiment returns and the two
//! renderings of it.
//!
//! An experiment builds a [`Report`]: a title, JSON header fields and
//! row tables whose columns are declared once (`col`: JSON key, text
//! header and a `Cell`, which carries a text override where the
//! printed form differs in units or precision). [`Report::render_text`]
//! is the only code that lays out a table for the terminal and
//! [`Report::to_json`] hands the same cells to the workspace's one JSON
//! writer ([`locus_obs::export::json_document`]).

use locus_obs::export::{json_document, Json};

/// One table cell: the JSON value and, where the printed form differs in
/// units or precision, the text.
pub(crate) struct Cell {
    value: Json,
    text: Option<String>,
}

impl Cell {
    /// Overrides the text form (units, `yes`/`no`).
    pub(crate) fn shown(mut self, text: impl Into<String>) -> Cell {
        self.text = Some(text.into());
        self
    }
}

macro_rules! cell_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell { value: v.into(), text: None }
            }
        }
    )*};
}
cell_from!(Json, u16, u32, u64, usize, bool, &str);

/// A float with `decimals` places, in the file and on the terminal.
pub(crate) fn fixed(v: f64, decimals: usize) -> Cell {
    Json::Float(v, Some(decimals)).into()
}

/// A float the file keeps to `decimals` places and the terminal to `shown`.
pub(crate) fn fixed_as(v: f64, decimals: usize, shown: usize) -> Cell {
    fixed(v, decimals).shown(format!("{v:.shown$}"))
}

/// A float in Rust's shortest form (`0.25`, `1`).
pub(crate) fn float(v: f64) -> Cell {
    Json::Float(v, None).into()
}

/// A fraction the file keeps to `decimals` places and the terminal
/// prints as a whole percentage (`0.838` → `84%`).
pub(crate) fn fraction(v: f64, decimals: usize) -> Cell {
    fixed(v, decimals).shown(format!("{:.0}%", v * 100.0))
}

/// A cell of a text-only column.
pub(crate) fn text(shown: impl Into<String>) -> Cell {
    Cell::from(Json::Null).shown(shown)
}

/// One column of a row table over rows of type `R`.
pub(crate) struct Col<R> {
    key: &'static str,
    header: &'static str,
    cell: fn(&R) -> Cell,
}

/// Declares a column: its JSON key (empty: text only), its text header
/// (empty: JSON only) and the cell read off a row. Unless the cell says
/// otherwise its text is the value written plainly (`-` for a missing
/// one).
pub(crate) fn col<R>(key: &'static str, header: &'static str, cell: fn(&R) -> Cell) -> Col<R> {
    Col { key, header, cell }
}

/// A row table with its cells evaluated: per column `(key, header)`, per
/// row and column `(value, text)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    key: &'static str,
    cols: Vec<(&'static str, &'static str)>,
    rows: Vec<Vec<(Json, String)>>,
}

/// What an experiment produced, before rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Printed verbatim above the tables (a table-less report, such as
    /// a figure, is all title and ends it with its own newline).
    pub title: String,
    /// JSON fields written before the tables.
    pub header: Vec<(&'static str, Json)>,
    /// Row tables, each a JSON array under its key.
    pub tables: Vec<Table>,
    /// Text printed after the last table.
    pub footer: String,
    /// Text printed last, after the report file has been written.
    pub closing: String,
    /// Set when the experiment's own check failed: the caller still
    /// writes the report, then prints this and exits nonzero.
    pub failure: Option<String>,
}

impl Report {
    /// A report with only a title.
    pub fn new(title: impl Into<String>) -> Self {
        Report { title: title.into(), ..Report::default() }
    }

    /// Appends a JSON header field.
    pub(crate) fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.header.push((key, value.into()));
        self
    }

    /// Appends a row table, evaluating every column over every row.
    pub(crate) fn table<R>(mut self, key: &'static str, rows: &[R], cols: &[Col<R>]) -> Self {
        let cell = |c: &Col<R>, r: &R| {
            let Cell { value, text } = (c.cell)(r);
            let text = text.unwrap_or_else(|| match &value {
                Json::Str(s) => s.clone(),
                Json::Null => "-".to_string(),
                other => other.to_string(),
            });
            (value, text)
        };
        self.tables.push(Table {
            key,
            cols: cols.iter().map(|c| (c.key, c.header)).collect(),
            rows: rows.iter().map(|r| cols.iter().map(|c| cell(c, r)).collect()).collect(),
        });
        self
    }

    /// The terminal rendering: the title, then each table that has text
    /// columns between blank lines — aligned, the first column to the
    /// left and the rest to the right, as the paper sets its tables —
    /// then the footer.
    pub fn render_text(&self) -> String {
        let mut out = self.title.clone();
        for table in &self.tables {
            let shown: Vec<usize> =
                (0..table.cols.len()).filter(|&i| !table.cols[i].1.is_empty()).collect();
            if shown.is_empty() {
                continue;
            }
            let width = |i: usize| {
                let cells = table.rows.iter().map(|row| row[i].1.chars().count());
                cells.chain([table.cols[i].1.chars().count()]).max().unwrap_or(0)
            };
            let widths: Vec<usize> = shown.iter().map(|&i| width(i)).collect();
            let line = |cells: &mut dyn Iterator<Item = &str>| {
                let mut line = String::new();
                for (n, (cell, &w)) in cells.zip(&widths).enumerate() {
                    line += &if n == 0 { format!("{cell:<w$}") } else { format!("  {cell:>w$}") };
                }
                line + "\n"
            };
            out += "\n\n";
            out += &line(&mut shown.iter().map(|&i| table.cols[i].1));
            out += &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
            out += "\n";
            for row in &table.rows {
                out += &line(&mut shown.iter().map(|&i| row[i].1.as_str()));
            }
            out += "\n";
        }
        out.push_str(&self.footer);
        out
    }

    /// The JSON rendering: the header fields, then each table that has
    /// keyed columns as an array of row objects.
    pub fn to_json(&self) -> String {
        let mut fields = self.header.clone();
        for table in &self.tables {
            let keyed = |row: &Vec<(Json, String)>| {
                let cells = table.cols.iter().zip(row).filter(|((key, _), _)| !key.is_empty());
                Json::Object(cells.map(|((key, _), (value, _))| (*key, value.clone())).collect())
            };
            fields.push((table.key, Json::Array(table.rows.iter().map(keyed).collect())));
        }
        json_document(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let rows = [("a", 1u64, 0.5f64), ("longer", 12345, 0.25)];
        Report::new("Sample (µ)").field("procs", 4u64).table(
            "rows",
            &rows,
            &[
                col("name", "name", |r: &(&str, u64, f64)| r.0.into()),
                col("val", "val", |r| r.1.into()),
                col("share", "", |r| fixed(r.2, 3)),
                col("", "share", |r| fraction(r.2, 3)),
                col("", "gap", |_| Json::Null.into()),
            ],
        )
    }

    #[test]
    fn text_aligns_columns_and_honours_overrides() {
        let text = sample().render_text();
        assert_eq!(
            text,
            "Sample (µ)\n\n\
             name      val  share  gap\n\
             -------------------------\n\
             a           1    50%    -\n\
             longer  12345    25%    -\n\n"
        );
    }

    #[test]
    fn json_carries_keyed_columns_only() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\n  \"procs\": 4,\n  \"rows\": [\n    \
             {\"name\": \"a\", \"val\": 1, \"share\": 0.500},\n    \
             {\"name\": \"longer\", \"val\": 12345, \"share\": 0.250}\n  ]\n}\n"
        );
    }

    #[test]
    fn table_less_report_is_its_title() {
        let r = Report { footer: "after\n".into(), ..Report::new("Figure\nbody\n") };
        assert_eq!(r.render_text(), "Figure\nbody\nafter\n");
    }
}
