//! Result-row types and plain-text table rendering for the reproduction
//! harness.

/// One point of an update-time figure (Figures 1-3): a (dataset, deletion
/// rate, method) triple with its online update time and model quality.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Dataset / configuration name (paper naming).
    pub dataset: String,
    /// Deletion rate (fraction of training samples removed).
    pub deletion_rate: f64,
    /// Method name (`BaseL`, `PrIU`, `PrIU-opt`, `Closed-form`, `INFL`).
    pub method: String,
    /// Online update time in seconds.
    pub update_seconds: f64,
    /// Validation accuracy (classification) or validation MSE (regression).
    pub quality: f64,
    /// L2 distance of the parameters to the BaseL (retrained) model.
    pub distance: f64,
    /// Cosine similarity of the parameters to the BaseL model.
    pub similarity: f64,
}

impl FigureRow {
    /// Speed-up of this row relative to a BaseL time.
    pub fn speedup_over(&self, basel_seconds: f64) -> f64 {
        if self.update_seconds > 0.0 {
            basel_seconds / self.update_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// One row of the repeated-deletion experiment (Figure 4).
#[derive(Debug, Clone)]
pub struct RepeatedRow {
    /// Dataset name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// Number of removed subsets.
    pub num_subsets: usize,
    /// Total time to process all subsets, in seconds.
    pub total_seconds: f64,
}

/// One row of the memory-consumption table (Table 3).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset / configuration name.
    pub dataset: String,
    /// Approximate working-set of BaseL (the dataset itself), in MiB.
    pub basel_mib: f64,
    /// Captured provenance of PrIU / PrIU-opt, in MiB.
    pub provenance_mib: f64,
    /// Ratio provenance / BaseL.
    pub ratio: f64,
}

/// One row of the accuracy / similarity comparison (Table 4, deletion rate
/// 0.2).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Dataset / configuration name.
    pub dataset: String,
    /// Validation quality of the BaseL (retrained) model (accuracy or MSE).
    pub basel_quality: f64,
    /// Validation quality of the PrIU / PrIU-opt model.
    pub priu_quality: f64,
    /// Validation quality of the INFL model (NaN when INFL was skipped).
    pub infl_quality: f64,
    /// L2 distance PrIU vs BaseL.
    pub priu_distance: f64,
    /// L2 distance INFL vs BaseL.
    pub infl_distance: f64,
    /// Cosine similarity PrIU vs BaseL.
    pub priu_similarity: f64,
    /// Cosine similarity INFL vs BaseL.
    pub infl_similarity: f64,
    /// Sign flips of PrIU vs BaseL (Q4 fine-grained analysis).
    pub priu_sign_flips: usize,
}

/// Minimal JSON encoding for the report rows (offline stand-in for
/// `serde_json`: the workspace builds without network access). Non-finite
/// numbers encode as `null`, matching what lenient JSON consumers expect.
pub trait JsonRow {
    /// This row as a JSON object.
    fn to_json(&self) -> String;
}

/// Encodes a float as a JSON number. Non-finite timings (`NaN` from a 0/0
/// ratio, `inf` from a zero-duration divisor) are not representable in
/// JSON; they encode as `null` so the emitted document always parses.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Encodes a string as a JSON string literal, escaping quotes, backslashes
/// and control characters — dataset and method names flow into reports
/// verbatim, so the encoder must never trust them to be JSON-clean.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl JsonRow for FigureRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\":{},\"deletion_rate\":{},\"method\":{},\"update_seconds\":{},\"quality\":{},\"distance\":{},\"similarity\":{}}}",
            json_str(&self.dataset),
            json_f64(self.deletion_rate),
            json_str(&self.method),
            json_f64(self.update_seconds),
            json_f64(self.quality),
            json_f64(self.distance),
            json_f64(self.similarity),
        )
    }
}

impl JsonRow for RepeatedRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\":{},\"method\":{},\"num_subsets\":{},\"total_seconds\":{}}}",
            json_str(&self.dataset),
            json_str(&self.method),
            self.num_subsets,
            json_f64(self.total_seconds),
        )
    }
}

impl JsonRow for Table3Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\":{},\"basel_mib\":{},\"provenance_mib\":{},\"ratio\":{}}}",
            json_str(&self.dataset),
            json_f64(self.basel_mib),
            json_f64(self.provenance_mib),
            json_f64(self.ratio),
        )
    }
}

impl JsonRow for Table4Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\":{},\"basel_quality\":{},\"priu_quality\":{},\"infl_quality\":{},\"priu_distance\":{},\"infl_distance\":{},\"priu_similarity\":{},\"infl_similarity\":{},\"priu_sign_flips\":{}}}",
            json_str(&self.dataset),
            json_f64(self.basel_quality),
            json_f64(self.priu_quality),
            json_f64(self.infl_quality),
            json_f64(self.priu_distance),
            json_f64(self.infl_distance),
            json_f64(self.priu_similarity),
            json_f64(self.infl_similarity),
            self.priu_sign_flips,
        )
    }
}

/// Encodes a slice of rows as a JSON array.
pub fn to_json_array<T: JsonRow>(rows: &[T]) -> String {
    let items: Vec<String> = rows.iter().map(JsonRow::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Renders a slice of serialisable rows as an aligned plain-text table with
/// the given column headers and per-row cell extractor.
pub fn render_table<T>(headers: &[&str], rows: &[T], cells: impl Fn(&T) -> Vec<String>) -> String {
    let mut table: Vec<Vec<String>> = vec![headers.iter().map(|h| h.to_string()).collect()];
    for row in rows {
        table.push(cells(row));
    }
    let cols = headers.len();
    let mut widths = vec![0usize; cols];
    for row in &table {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in table.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push('\n');
        if r == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Formats seconds with adaptive precision.
pub fn fmt_seconds(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_relative_to_basel() {
        let row = FigureRow {
            dataset: "x".into(),
            deletion_rate: 0.01,
            method: "PrIU".into(),
            update_seconds: 0.5,
            quality: 0.9,
            distance: 0.0,
            similarity: 1.0,
        };
        assert_eq!(row.speedup_over(5.0), 10.0);
        let zero = FigureRow {
            update_seconds: 0.0,
            ..row
        };
        assert!(zero.speedup_over(5.0).is_infinite());
    }

    #[test]
    fn render_table_aligns_columns() {
        let rows = vec![("a", 1.0), ("longer", 2.5)];
        let text = render_table(&["name", "value"], &rows, |r| {
            vec![r.0.to_string(), format!("{:.1}", r.1)]
        });
        assert!(text.contains("name"));
        assert!(text.contains("longer"));
        assert!(text.lines().count() >= 4);
        // Header separator line present.
        assert!(text.lines().nth(1).unwrap().starts_with('-'));
    }

    #[test]
    fn seconds_formatting_adapts_to_magnitude() {
        assert!(fmt_seconds(0.0000005).ends_with("us"));
        assert!(fmt_seconds(0.005).ends_with("ms"));
        assert!(fmt_seconds(2.0).ends_with('s'));
    }

    #[test]
    fn json_rows_encode_valid_objects() {
        let row = FigureRow {
            dataset: "SGEMM \"ext\"".into(),
            deletion_rate: 0.01,
            method: "PrIU".into(),
            update_seconds: 0.5,
            quality: f64::NAN,
            distance: 2.0,
            similarity: 1.0,
        };
        let json = row.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"dataset\":\"SGEMM \\\"ext\\\"\""));
        assert!(json.contains("\"quality\":null"));
        assert!(json.contains("\"distance\":2.0"));

        let arr = to_json_array(&[row.clone(), row]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("\"method\":\"PrIU\"").count(), 2);
        assert!(to_json_array::<FigureRow>(&[]).eq("[]"));
    }

    #[test]
    fn strings_escape_every_hostile_character() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_str("a\nb\rc\td"), "\"a\\nb\\rc\\td\"");
        // Other control characters take the \u form.
        assert_eq!(json_str("\u{0}x\u{1f}"), "\"\\u0000x\\u001f\"");
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(json_str("μ-örtchen"), "\"μ-örtchen\"");
    }

    #[test]
    fn non_finite_floats_encode_as_null_everywhere() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_f64(bad), "null");
        }
        // Finite values stay numbers, integral ones gaining a decimal
        // point so consumers parse them as floats.
        assert_eq!(json_f64(5.0), "5.0");
        assert_eq!(json_f64(-0.25), "-0.25");
        assert_eq!(json_f64(3.5e-5), "0.000035");
        // Display never emits exponent notation, so huge magnitudes render
        // as long plain decimals — still valid JSON numbers.
        assert!(json_f64(1e300).parse::<f64>().is_ok());

        // Rows with non-finite timings still render parseable objects.
        let row = RepeatedRow {
            dataset: "d".into(),
            method: "PrIU".into(),
            num_subsets: 3,
            total_seconds: f64::INFINITY,
        };
        assert!(row.to_json().contains("\"total_seconds\":null"));
        let t3 = Table3Row {
            dataset: "line\nbreak".into(),
            basel_mib: f64::NAN,
            provenance_mib: 1.5,
            ratio: f64::NAN,
        };
        let json = t3.to_json();
        assert!(json.contains("\"dataset\":\"line\\nbreak\""));
        assert!(json.contains("\"basel_mib\":null"));
        assert!(json.contains("\"ratio\":null"));
        let t4 = Table4Row {
            dataset: "d".into(),
            basel_quality: 0.9,
            priu_quality: 0.9,
            infl_quality: f64::NAN,
            priu_distance: 0.0,
            infl_distance: f64::NAN,
            priu_similarity: 1.0,
            infl_similarity: f64::NAN,
            priu_sign_flips: 0,
        };
        assert_eq!(t4.to_json().matches("null").count(), 3);
    }
}
