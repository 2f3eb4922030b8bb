//! Experiment reporting: aligned console tables plus JSON rows under
//! `results/`, which EXPERIMENTS.md references.

use std::fs;
use std::path::Path;

use prompt_engine::trace::{StageKind, TraceEvent, PROCESSING_KINDS};

/// A printable/serialisable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. `fig10a`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row data (stringified values, aligned with `columns`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Start a table with owned column names (for dynamic headers).
    pub fn new_owned(id: &str, title: &str, columns: Vec<String>) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Serialise as pretty-printed JSON (hand-rolled: the build environment
    /// vendors no serde, and the schema is four known fields).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
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
            out
        }
        fn str_array(items: &[String], indent: &str) -> String {
            let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", esc(c))).collect();
            format!("{indent}[{}]", cells.join(", "))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| str_array(r, "    ")).collect();
        format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"columns\":\n{},\n  \"rows\": [\n{}\n  ]\n}}\n",
            esc(&self.id),
            esc(&self.title),
            str_array(&self.columns, "    "),
            rows.join(",\n")
        )
    }

    /// Print to stdout and persist as JSON under `results/<id>.json`
    /// (directory created on demand; IO errors are reported, not fatal).
    pub fn emit(&self, results_dir: &Path) {
        println!("{}", self.render());
        if let Err(e) = fs::create_dir_all(results_dir).and_then(|_| {
            let path = results_dir.join(format!("{}.json", self.id));
            fs::write(path, self.to_json())
        }) {
            eprintln!("warning: could not persist results: {e}");
        }
    }
}

/// Render per-stage breakdowns from trace event streams, one series per
/// labelled run.
///
/// [`TraceEvent::Span`]s carry virtual-time durations; [`TraceEvent::Phase`]s
/// carry measured wall-clock durations. The two aggregate into separate rows
/// (phase rows are suffixed `(wall)`), so a figure can show both the
/// simulated stage makespans and the real heartbeat cost side by side. The
/// `% processing` column relates each processing-kind span total to the sum
/// over [`PROCESSING_KINDS`] for that series — the trace-side view of
/// `BatchRecord::processing`.
pub fn stage_breakdown_table(id: &str, title: &str, runs: &[(String, Vec<TraceEvent>)]) -> Table {
    let mut t = Table::new(
        id,
        title,
        &[
            "series",
            "stage",
            "spans",
            "total ms",
            "mean ms",
            "p50 ms",
            "p95 ms",
            "% processing",
        ],
    );
    for (series, events) in runs {
        let mut spans: Vec<Vec<f64>> = vec![Vec::new(); StageKind::ALL.len()];
        let mut phases: Vec<Vec<f64>> = vec![Vec::new(); StageKind::ALL.len()];
        for e in events {
            match *e {
                TraceEvent::Span { kind, .. } => {
                    let i = StageKind::ALL.iter().position(|&k| k == kind).unwrap();
                    spans[i].push(e.span_us() as f64 / 1e3);
                }
                TraceEvent::Phase { kind, wall_us, .. } => {
                    let i = StageKind::ALL.iter().position(|&k| k == kind).unwrap();
                    phases[i].push(wall_us as f64 / 1e3);
                }
                _ => {}
            }
        }
        let processing_total: f64 = PROCESSING_KINDS
            .iter()
            .map(|k| {
                let i = StageKind::ALL.iter().position(|a| a == k).unwrap();
                spans[i].iter().sum::<f64>()
            })
            .sum();
        let mut push_rows = |buckets: &[Vec<f64>], wall: bool| {
            for (i, kind) in StageKind::ALL.iter().enumerate() {
                if buckets[i].is_empty() {
                    continue;
                }
                let mut ms = buckets[i].clone();
                ms.sort_by(|a, b| a.total_cmp(b));
                let total: f64 = ms.iter().sum();
                let share = if !wall && PROCESSING_KINDS.contains(kind) && processing_total > 0.0 {
                    f1(total / processing_total * 100.0)
                } else {
                    "-".to_string()
                };
                t.row(vec![
                    series.clone(),
                    if wall {
                        format!("{} (wall)", kind.name())
                    } else {
                        kind.name().to_string()
                    },
                    ms.len().to_string(),
                    f3(total),
                    f3(total / ms.len() as f64),
                    f3(prompt_engine::stats::percentile_sorted(&ms, 0.50)),
                    f3(prompt_engine::stats::percentile_sorted(&ms, 0.95)),
                    share,
                ]);
            }
        };
        push_rows(&spans, false);
        push_rows(&phases, true);
    }
    t
}

/// Render a numeric series as a one-line unicode sparkline (8 levels).
/// Empty input renders as an empty string; a constant series renders at the
/// mid level.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            let idx = if span <= 0.0 {
                3
            } else {
                // Floor, not round: the mid of the range must land on the
                // mid level (3 of 0..=7), and only the maximum reaches 7.
                (((v - min) / span) * 7.0).floor() as usize
            };
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// [`sparkline`] over an explicit `[lo, hi]` scale, so several series can be
/// rendered comparably. Values are clamped into the range.
pub fn sparkline_scaled(values: &[f64], lo: f64, hi: f64) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            let idx = if span <= 0.0 {
                3
            } else {
                (((v - lo) / span).clamp(0.0, 1.0) * 7.0).floor() as usize
            };
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// Format a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a rate in ktuples/s.
pub fn krate(v: f64) -> String {
    format!("{:.1}k", v / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t1", "demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let r = t.render();
        assert!(r.contains("t1 — demo"));
        assert!(r.contains("long-name"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("t", "t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn emit_writes_json() {
        let dir = std::env::temp_dir().join("prompt_bench_test_results");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new("unit_emit", "demo", &["x"]);
        t.row(vec!["1".into()]);
        t.emit(&dir);
        let written = std::fs::read_to_string(dir.join("unit_emit.json")).unwrap();
        assert!(written.contains("\"unit_emit\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▄▄▄");
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 7.0]);
        assert_eq!(s.chars().count(), 5);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        // Monotone input → non-decreasing levels.
        let levels: Vec<char> = s.chars().collect();
        assert!(levels.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn scaled_sparkline_shares_a_scale() {
        let a = sparkline_scaled(&[0.0, 5.0], 0.0, 10.0);
        let b = sparkline_scaled(&[0.0, 10.0], 0.0, 10.0);
        assert_eq!(a, "▁▄");
        assert_eq!(b, "▁█");
        // Clamping out-of-range values.
        assert_eq!(sparkline_scaled(&[-5.0, 20.0], 0.0, 10.0), "▁█");
        assert_eq!(sparkline_scaled(&[1.0], 5.0, 5.0), "▄");
    }

    #[test]
    fn stage_breakdown_aggregates_spans_and_phases() {
        let events = vec![
            TraceEvent::Span {
                seq: 0,
                kind: StageKind::MapStage,
                start_us: 0,
                end_us: 10_000,
            },
            TraceEvent::Span {
                seq: 1,
                kind: StageKind::MapStage,
                start_us: 0,
                end_us: 30_000,
            },
            TraceEvent::Span {
                seq: 0,
                kind: StageKind::ReduceStage,
                start_us: 10_000,
                end_us: 20_000,
            },
            TraceEvent::Phase {
                seq: 0,
                kind: StageKind::Seal,
                wall_us: 500,
            },
            TraceEvent::Phase {
                seq: 0,
                kind: StageKind::Order,
                wall_us: 250,
            },
            TraceEvent::Phase {
                seq: 0,
                kind: StageKind::WindowCommit,
                wall_us: 125,
            },
        ];
        let t = stage_breakdown_table("tb", "demo", &[("run".into(), events)]);
        // map_stage, reduce_stage, plus the wall-clock seal, order and
        // window commit phases.
        assert_eq!(t.rows.len(), 5);
        let map = t.rows.iter().find(|r| r[1] == "map_stage").unwrap();
        assert_eq!(map[2], "2"); // spans
        assert_eq!(map[3], "40.000"); // total ms
        assert_eq!(map[7], "80.0"); // 40 of 50 ms processing
        let seal = t.rows.iter().find(|r| r[1] == "seal (wall)").unwrap();
        assert_eq!(seal[3], "0.500");
        assert_eq!(seal[7], "-");
        let order = t.rows.iter().find(|r| r[1] == "order (wall)").unwrap();
        assert_eq!(order[3], "0.250");
        assert_eq!(order[7], "-");
        let commit = (t.rows.iter())
            .find(|r| r[1] == "window_commit (wall)")
            .unwrap();
        assert_eq!(commit[3], "0.125");
        assert_eq!(commit[7], "-");
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(krate(123_456.0), "123.5k");
    }
}
