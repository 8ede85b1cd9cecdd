//! Figure output model: every figure builds a [`Figure`] — a list of
//! labelled tables — which renders both the fixed-width text the
//! `figs` binary prints *and* the machine-readable JSON written under
//! `bench_results/figNN.json` through [`crate::json`]. One source of
//! truth, two renderings, so whole figure runs diff across PRs without
//! losing the human-readable console output.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::{write_json, Json};
use crate::{header, row, Scale};

/// One labelled row of numbers.
#[derive(Debug, Clone)]
struct Row {
    label: String,
    values: Vec<f64>,
    /// Overrides the table precision (e.g. integer rows in a float
    /// table).
    precision: Option<usize>,
}

/// One table (title, column labels, numeric rows) of a figure.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    /// Corner label naming the row/column axes (e.g. `"ND \ percentile"`).
    corner: String,
    cols: Vec<String>,
    width: usize,
    precision: usize,
    rows: Vec<Row>,
    /// Free-form footnote lines (convergence bounds and the like).
    notes: Vec<String>,
}

impl Table {
    /// A new empty table; `width`/`precision` set the text rendering.
    pub fn new(
        title: impl Into<String>,
        corner: impl Into<String>,
        cols: Vec<String>,
        width: usize,
        precision: usize,
    ) -> Self {
        Table {
            title: title.into(),
            corner: corner.into(),
            cols,
            width,
            precision,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row at the table's default precision.
    pub fn row(&mut self, label: impl Into<String>, values: &[f64]) -> &mut Self {
        self.rows.push(Row {
            label: label.into(),
            values: values.to_vec(),
            precision: None,
        });
        self
    }

    /// Appends a row with its own text precision.
    pub fn row_prec(
        &mut self,
        label: impl Into<String>,
        values: &[f64],
        precision: usize,
    ) -> &mut Self {
        self.rows.push(Row {
            label: label.into(),
            values: values.to_vec(),
            precision: Some(precision),
        });
        self
    }

    /// Appends a footnote line.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Self {
        self.notes.push(line.into());
        self
    }

    fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&header(&self.corner, &self.cols, self.width));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&row(
                &r.label,
                &r.values,
                self.width,
                r.precision.unwrap_or(self.precision),
            ));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(self.title.clone())),
            ("corner", Json::str(self.corner.clone())),
            (
                "cols",
                Json::Arr(self.cols.iter().map(|c| Json::str(c.clone())).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("label", Json::str(r.label.clone())),
                                (
                                    "values",
                                    Json::Arr(r.values.iter().map(|&v| Json::Num(v)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n.clone())).collect()),
            ),
        ])
    }
}

/// A complete figure: named tables plus the scale it ran at.
#[derive(Debug, Clone)]
pub struct Figure {
    name: String,
    tables: Vec<Table>,
}

impl Figure {
    /// A new empty figure named as the `figs` binary knows it (`"fig07"`).
    pub fn new(name: impl Into<String>) -> Self {
        Figure {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    /// The figure's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a finished table.
    pub fn push(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// The fixed-width text rendering the `figs` binary prints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&t.to_text());
        }
        out
    }

    /// The JSON document written under `bench_results/`.
    pub fn to_json(&self, scale: Scale) -> Json {
        Json::obj([
            ("figure", Json::str(self.name.clone())),
            (
                "scale",
                Json::str(match scale {
                    Scale::Quick => "quick",
                    Scale::Full => "full",
                }),
            ),
            (
                "tables",
                Json::Arr(self.tables.iter().map(|t| t.to_json()).collect()),
            ),
        ])
    }

    /// Writes `dir/<name>.json`; returns the path written.
    pub fn write_json(&self, dir: impl AsRef<Path>, scale: Scale) -> io::Result<PathBuf> {
        let path = dir.as_ref().join(format!("{}.json", self.name));
        write_json(&path, &self.to_json(scale))?;
        Ok(path)
    }
}

/// The workspace-root `bench_results/` directory, anchored at compile
/// time so figure binaries write the committed tree no matter which
/// directory `cargo run` is invoked from.
pub fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results"))
}

/// The workspace-root `traces/` directory: committed flight-recorder
/// artifacts (`*.trace.jsonl` + Chrome `*.trace.json`), kept separate
/// from `bench_results/` so the closed-world tests over the metric files
/// never iterate trace exports.
pub fn traces_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("fig99");
        let mut t = Table::new(
            "Fig 99: demo",
            "strategy",
            vec!["a".into(), "b".into()],
            8,
            2,
        );
        t.row("Mixed", &[1.5, 2.25]);
        t.row_prec("count", &[3.0, 4.0], 0);
        t.note("(a note)");
        f.push(t);
        f
    }

    #[test]
    fn text_matches_legacy_table_shape() {
        let text = sample().to_text();
        assert!(text.starts_with("# Fig 99: demo\n"));
        assert!(text.contains("Mixed"));
        assert!(text.contains("1.50"));
        assert!(text.contains("2.25"));
        assert!(text.contains("       3        4"), "integer precision row");
        assert!(text.ends_with("(a note)\n"));
    }

    #[test]
    fn json_carries_full_structure() {
        let json = sample().to_json(Scale::Quick);
        let rendered = json.to_pretty();
        assert!(rendered.contains("\"figure\": \"fig99\""));
        assert!(rendered.contains("\"scale\": \"quick\""));
        assert!(rendered.contains("\"label\": \"Mixed\""));
        assert!(rendered.contains("2.25"));
        assert!(rendered.contains("\"(a note)\""));
    }
}
