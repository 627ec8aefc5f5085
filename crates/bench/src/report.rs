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

/// A row table with its cells evaluated once into both renderings: the
/// JSON array of its keyed columns and the text of its shown ones.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    key: &'static str,
    /// One object per row.
    json: Json,
    headers: Vec<&'static str>,
    /// Per row, the text of each shown column.
    text: Vec<Vec<String>>,
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
        let headers: Vec<&'static str> =
            cols.iter().map(|c| c.header).filter(|h| !h.is_empty()).collect();
        let mut objects = Vec::with_capacity(rows.len());
        let mut lines = Vec::with_capacity(rows.len());
        for r in rows {
            let mut object = Vec::with_capacity(cols.len());
            let mut line = Vec::with_capacity(headers.len());
            for c in cols {
                let Cell { value, text } = (c.cell)(r);
                if !c.header.is_empty() {
                    line.push(text.unwrap_or_else(|| match &value {
                        Json::Str(s) => s.clone(),
                        Json::Null => "-".to_string(),
                        other => other.to_string(),
                    }));
                }
                if !c.key.is_empty() {
                    object.push((c.key, value));
                }
            }
            objects.push(Json::Object(object));
            lines.push(line);
        }
        self.tables.push(Table { key, json: Json::Array(objects), headers, text: lines });
        self
    }

    /// The terminal rendering: the title, then each table that has text
    /// columns after a blank line — aligned, the first column to the
    /// left and the rest to the right, as the paper sets its tables — and
    /// a blank line after the last, then the footer.
    pub fn render_text(&self) -> String {
        let mut out = self.title.clone();
        for (t, table) in self.tables.iter().filter(|shown| !shown.headers.is_empty()).enumerate() {
            let width = |i: usize| {
                let cells = table.text.iter().map(|row| row[i].chars().count());
                cells.chain([table.headers[i].chars().count()]).max().unwrap_or(0)
            };
            let widths: Vec<usize> = (0..table.headers.len()).map(width).collect();
            let line = |cells: &mut dyn Iterator<Item = &str>| {
                let mut line = String::new();
                for (n, (cell, &w)) in cells.zip(&widths).enumerate() {
                    line += &if n == 0 { format!("{cell:<w$}") } else { format!("  {cell:>w$}") };
                }
                line + "\n"
            };
            // The title ends without a newline; a table ends with a blank line.
            out += if t == 0 { "\n\n" } else { "" };
            out += &line(&mut table.headers.iter().copied());
            out += &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
            out += "\n";
            for row in &table.text {
                out += &line(&mut row.iter().map(String::as_str));
            }
            out += "\n";
        }
        out.push_str(&self.footer);
        out
    }

    /// The JSON rendering: the header fields, then each table as an array
    /// of row objects.
    pub fn to_json(&self) -> String {
        let header = self.header.iter().map(|(key, value)| (*key, value));
        let tables = self.tables.iter().map(|t| (t.key, &t.json));
        json_document(&header.chain(tables).collect::<Vec<_>>())
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
    fn tables_are_one_blank_line_apart_and_json_only_ones_are_not_shown() {
        let rows = [(1u32, 2u32)];
        let report = Report::new("Two")
            .table("a", &rows, &[col("x", "x", |r: &(u32, u32)| r.0.into())])
            .table("hidden", &rows, &[col("y", "", |r: &(u32, u32)| r.1.into())])
            .table("b", &rows, &[col("y", "y", |r: &(u32, u32)| r.1.into())]);
        assert_eq!(report.render_text(), "Two\n\nx\n-\n1\n\ny\n-\n2\n\n");
        assert_eq!(
            report.to_json(),
            "{\n  \"a\": [\n    {\"x\": 1}\n  ],\n  \"hidden\": [\n    {\"y\": 2}\n  ],\n  \
             \"b\": [\n    {\"y\": 2}\n  ]\n}\n"
        );
    }

    fn quick_analysis(engine: &str, procs: usize) -> String {
        let cfg = crate::catalog::RunCfg {
            harness: crate::Harness::with_threads(1),
            quick: true,
            memory_backend: None,
        };
        let report = crate::catalog::analyze(&cfg, engine, Some(procs)).expect("analysis runs");
        let json = report.to_json();
        locus_obs::export::validate_json(&json).expect("an analysis report is valid JSON");
        json
    }

    #[test]
    fn race_report_json_is_valid_and_carries_headline_keys() {
        // A 2-proc emulator run on the small circuit: a real report, with
        // or without races, and both shapes keep every headline key.
        let json = quick_analysis("shmem-emul", 2);
        for key in ["\"engine\"", "\"synchronized_pairs\"", "\"quality_affecting\"", "\"pairs\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn staleness_report_json_is_valid() {
        let json = quick_analysis("msgpass-sender", 2);
        for key in ["\"engine\": \"msgpass-sender\"", "\"procs\": 2", "\"audits\": "] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn table_less_report_is_its_title() {
        let r = Report { footer: "after\n".into(), ..Report::new("Figure\nbody\n") };
        assert_eq!(r.render_text(), "Figure\nbody\nafter\n");
    }
}
