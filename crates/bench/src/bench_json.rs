//! The one JSON writer behind every `BENCH_*.json` document.
//!
//! A document is a head of fields, one per line, followed by named
//! sections of one-line cells — a flat, diff-friendly layout that CI can
//! track across PRs without parsing tables. README's "Reading the
//! `BENCH_*.json` documents" describes each document. The encoder is
//! hand-rolled: the workspace has no serde_json.

use std::fmt::Display;
use std::time::{SystemTime, UNIX_EPOCH};

/// An insertion-ordered JSON object: a document's head, or one cell.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// An object with no fields.
    pub fn new() -> Self {
        Self::default()
    }

    fn field(mut self, key: &'static str, json: String) -> Self {
        self.0.push((key, json));
        self
    }

    /// A string field.
    pub fn str(self, key: &'static str, value: &str) -> Self {
        self.field(key, format!("\"{}\"", escape(value)))
    }

    /// An integer or bool field, written with `Display`.
    pub fn raw(self, key: &'static str, value: impl Display) -> Self {
        self.field(key, value.to_string())
    }

    /// An optional integer or bool field; `None` is `null`.
    pub fn opt(self, key: &'static str, value: Option<impl Display>) -> Self {
        self.field(key, value.map_or_else(|| "null".into(), |v| v.to_string()))
    }

    /// A float field, `{:.6}`; a non-finite value is `null`.
    pub fn f64(self, key: &'static str, value: f64) -> Self {
        self.field(key, float(value))
    }

    /// An optional float field; `None` is `null`.
    pub fn opt_f64(self, key: &'static str, value: Option<f64>) -> Self {
        self.field(key, value.map_or_else(|| "null".into(), float))
    }

    /// An array of floats, each written as by [`Obj::f64`].
    pub fn f64s(self, key: &'static str, values: &[f64]) -> Self {
        let items: Vec<String> = values.iter().map(|&v| float(v)).collect();
        self.field(key, format!("[{}]", items.join(", ")))
    }

    fn fields(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(key, json)| format!("\"{key}\": {json}"))
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn document(bench: &str, head: &Obj, sections: &[(&str, Vec<Obj>)]) -> String {
    let emitted_at = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let mut lines = vec![
        format!("\"bench\": \"{}\"", escape(bench)),
        format!("\"emitted_at_unix\": {emitted_at}"),
    ];
    lines.extend(head.fields());
    for (name, cells) in sections {
        let mut section = format!("\"{name}\": [\n");
        for (i, cell) in cells.iter().enumerate() {
            let sep = if i + 1 == cells.len() { "" } else { "," };
            section.push_str(&format!(
                "    {{{}}}{sep}\n",
                cell.fields().collect::<Vec<_>>().join(", ")
            ));
        }
        section.push_str("  ]");
        lines.push(section);
    }
    format!("{{\n  {}\n}}\n", lines.join(",\n  "))
}

/// Write the document `bench` to `path`: `"bench"` and `"emitted_at_unix"`,
/// then the `head` fields, then each named section of cells.
pub fn write_bench(
    path: &str,
    bench: &str,
    head: &Obj,
    sections: &[(&str, Vec<Obj>)],
) -> std::io::Result<()> {
    std::fs::write(path, document(bench, head, sections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distinct, per_sec};

    /// `document` with its timestamp zeroed, for exact comparisons.
    fn render(head: &Obj, sections: &[(&str, Vec<Obj>)]) -> String {
        let doc = document("t", head, sections);
        let stamp = doc.lines().nth(2).expect("timestamp line").to_string();
        doc.replacen(&stamp, "  \"emitted_at_unix\": 0,", 1)
    }

    fn cell(kernel: &str, rate: f64) -> Obj {
        Obj::new().str("kernel", kernel).f64("requests_per_sec", rate)
    }

    fn json(obj: &Obj) -> String {
        obj.fields().collect::<Vec<_>>().join(", ")
    }

    #[test]
    fn rates_derive_from_wall_clock() {
        assert!((per_sec(15_000, 0.05) - 300_000.0).abs() < 1e-6);
        assert!((per_sec(4 * 2500, 0.05) - 200_000.0).abs() < 1e-6);
    }

    #[test]
    fn document_shape_is_stable() {
        let head = Obj::new().opt_f64("speedup_vs_reference", Some(3.7));
        let cells = vec![cell("workspace", 300_000.0), cell("reference", f64::INFINITY)];
        assert_eq!(
            render(&head, &[("instances", cells)]),
            "{\n  \"bench\": \"t\",\n  \"emitted_at_unix\": 0,\n  \
             \"speedup_vs_reference\": 3.700000,\n  \"instances\": [\n    \
             {\"kernel\": \"workspace\", \"requests_per_sec\": 300000.000000},\n    \
             {\"kernel\": \"reference\", \"requests_per_sec\": null}\n  ]\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let obj = Obj::new().str("network", "a\"b\\c\nd\te\u{1}");
        assert_eq!(json(&obj), r#""network": "a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn scenario_document_counts_families_and_topologies() {
        assert_eq!(distinct(["static-zipf", "static-zipf", "object-churn"]), 2);
        assert_eq!(distinct(["balanced(3,2)", "star(12,b=4)", "balanced(3,2)"]), 2);
    }

    #[test]
    fn scenario_null_ratio_renders_as_null() {
        let obj = Obj::new().opt_f64("mean_competitive_ratio", None).opt_f64("clean", Some(2.4));
        assert_eq!(json(&obj), "\"mean_competitive_ratio\": null, \"clean\": 2.400000");
    }

    #[test]
    fn scenario_cells_are_self_describing() {
        let obj = Obj::new()
            .str("capacity", "uniform")
            .raw("threshold_d", 3u64)
            .raw("epoch_requests", 0usize)
            .f64s("tenant_requests", &[]);
        assert_eq!(
            json(&obj),
            "\"capacity\": \"uniform\", \"threshold_d\": 3, \"epoch_requests\": 0, \
             \"tenant_requests\": []"
        );
    }

    #[test]
    fn scenario_tenant_columns_render_as_arrays() {
        let obj = Obj::new().f64s("tenant_requests", &[40.0, 41.5, f64::NAN]);
        assert_eq!(json(&obj), "\"tenant_requests\": [40.000000, 41.500000, null]");
    }

    #[test]
    fn dynamic_document_shape_is_stable() {
        let obj = Obj::new().f64("a", 2_000_000.0).f64("b", 0.1234567).f64("c", -1.5);
        assert_eq!(json(&obj), "\"a\": 2000000.000000, \"b\": 0.123457, \"c\": -1.500000");
    }

    #[test]
    fn dynamic_null_speedup_renders_as_null() {
        let doc = render(&Obj::new().opt_f64("speedup_workspace_vs_reference", None), &[]);
        assert!(doc.ends_with("  \"speedup_workspace_vs_reference\": null\n}\n"));
    }

    #[test]
    fn strategy_document_counts_strategies_and_families() {
        assert_eq!(distinct(["dynamic", "hybrid(4)", "frozen-static", "dynamic"]), 3);
        assert_eq!(distinct(Vec::<String>::new()), 0);
    }

    #[test]
    fn strategy_null_ratio_renders_as_null() {
        let obj = Obj::new().f64("nan", f64::NAN).f64("neg", f64::NEG_INFINITY);
        assert_eq!(json(&obj), "\"nan\": null, \"neg\": null");
    }

    #[test]
    fn fault_document_shape_is_stable() {
        let obj = Obj::new().opt("recovery_epochs", Some(1u64)).opt("none", None::<u64>);
        assert_eq!(json(&obj), "\"recovery_epochs\": 1, \"none\": null");
    }

    #[test]
    fn crash_recovery_document_shape_is_stable() {
        let obj = Obj::new().raw("restored_equal", true).raw("checkpoint_bytes", 4096u64);
        assert_eq!(json(&obj), "\"restored_equal\": true, \"checkpoint_bytes\": 4096");
    }

    #[test]
    fn replay_document_shape_is_stable() {
        let head = Obj::new().raw("estimator_brackets_validated", true);
        let sections = [("instances", vec![cell("workspace", 1.0)]), ("estimator", vec![])];
        assert_eq!(
            render(&head, &sections),
            "{\n  \"bench\": \"t\",\n  \"emitted_at_unix\": 0,\n  \
             \"estimator_brackets_validated\": true,\n  \"instances\": [\n    \
             {\"kernel\": \"workspace\", \"requests_per_sec\": 1.000000}\n  ],\n  \
             \"estimator\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn session_resume_document_shape_is_stable() {
        let cells = vec![cell("a", 1.0), cell("b", 2.0), cell("c", 3.0)];
        let doc = render(&Obj::new().raw("all_resumes_exact", true), &[("cells", cells)]);
        assert_eq!(doc.matches("},\n").count(), 2);
        // Three head lines, two cell separators, one comma inside each cell.
        assert_eq!(doc.matches(',').count(), 3 + 2 + 3);
    }

    #[test]
    fn server_rates_and_shed_fraction_derive() {
        assert!((per_sec(100, 0.5) - 200.0).abs() < 1e-9);
        assert!(per_sec(0, 0.0).is_infinite());
        assert_eq!(
            json(&Obj::new().f64("sessions_per_sec", per_sec(0, 0.0))),
            "\"sessions_per_sec\": null"
        );
    }

    #[test]
    fn server_document_carries_headline_gates_and_percentiles() {
        let micros = [1_000, 9_000, 2_000];
        let head = Obj::new()
            .raw("graceful_under_overload", true)
            .raw("recovery_p50_micros", hbn_server::percentile(&micros, 50.0))
            .raw("recovery_p99_micros", hbn_server::percentile(&micros, 99.0));
        assert!(render(&head, &[]).contains(
            "  \"graceful_under_overload\": true,\n  \"recovery_p50_micros\": 2000,\n  \
             \"recovery_p99_micros\": 9000\n"
        ));
    }
}
