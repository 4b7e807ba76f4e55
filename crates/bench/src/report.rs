//! The one results writer: fixed-width tables with their CSV, and JSON
//! objects headed by the host facts. Every file lands under
//! `bench_results/`.

use crate::Scale;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple fixed-width table that prints like the paper's Table 2 rows
/// and also lands in `bench_results/<name>.csv`.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Column-aligned rendering.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the table and write `bench_results/<name>.csv`.
    pub fn save(&self) -> std::io::Result<()> {
        println!("\n== {} ==", self.name);
        print!("{}", self.render());
        let p = self.write_csv(&results_dir())?;
        eprintln!("wrote {}", p.display());
        Ok(())
    }

    /// Write `<dir>/<name>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Cores this process may run on: wall-clock cells of a one-core host
/// time-slice their threads, so a JSON file says so in its header.
pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON object built a field at a time, rendered in field order: one
/// field a line, nested objects inline, and arrays of objects one
/// object a line.
#[derive(Default)]
pub(crate) struct Json(Vec<(String, String)>);

impl Json {
    /// The fields every results file starts with: the section, its
    /// scale, the host's cores, and `cpu_wall_clock_advisory` on a
    /// one-core host.
    pub(crate) fn header(section: &str, scale: Scale) -> Self {
        Self::header_on(section, scale, host_cores())
    }

    fn header_on(section: &str, scale: Scale, cores: usize) -> Self {
        let json = Json::default()
            .str("bench", section)
            .str("scale", &format!("{scale:?}"))
            .num("host_cores", cores);
        if cores == 1 {
            json.num("cpu_wall_clock_advisory", true)
        } else {
            json
        }
    }

    /// A field whose value is written as it displays: a number or a
    /// bool, formatted by the caller.
    pub(crate) fn num(mut self, key: &str, value: impl Display) -> Self {
        self.0.push((key.to_string(), value.to_string()));
        self
    }

    /// A string field (the caller's text needs no escaping).
    pub(crate) fn str(self, key: &str, value: &str) -> Self {
        self.num(key, format!("\"{value}\""))
    }

    /// A nested object, written inline.
    pub(crate) fn obj(self, key: &str, value: Json) -> Self {
        let inline = value.inline();
        self.num(key, inline)
    }

    /// An array of objects, one a line. Only a top-level field renders
    /// with matching indentation.
    pub(crate) fn rows(self, key: &str, rows: impl IntoIterator<Item = Json>) -> Self {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {}", r.inline())).collect();
        self.num(key, format!("[\n{}\n  ]", rows.join(",\n")))
    }

    fn inline(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }

    pub(crate) fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Write `bench_results/<name>.json`.
    pub(crate) fn save(&self, name: &str) -> std::io::Result<()> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, self.render())?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

/// Milliseconds with adaptive precision.
pub fn ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// A speedup ratio like the paper's "B/T" columns.
pub fn speedup(baseline_ms: f64, bgpq_ms: f64) -> String {
    if bgpq_ms <= 0.0 {
        return "-".into();
    }
    format!("{:.1}", baseline_ms / bgpq_ms)
}

/// Where every run writes: `bench_results/` under the working
/// directory (gitignored).
pub fn results_dir() -> PathBuf {
    PathBuf::from("bench_results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["queue", "ms"]);
        t.row(vec!["BGPQ".into(), "1.5".into()]);
        t.row(vec!["TBB".into(), "123".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with("1.5"));
        assert!(lines[3].ends_with("123"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("bgpq_bench_test");
        let mut t = Table::new("csv_demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let p = t.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(250.0), "250");
        assert_eq!(ms(2.5), "2.5");
        assert_eq!(ms(0.1234), "0.123");
        assert_eq!(speedup(100.0, 10.0), "10.0");
        assert_eq!(speedup(1.0, 0.0), "-");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    /// The header is a compatibility surface like the CSV columns:
    /// readers of the committed `BENCH_*.json` find the host facts by
    /// these names, before the section's own fields.
    #[test]
    fn json_header_is_pinned() {
        let two = Json::header_on("coalesce", Scale::Medium, 2).num("k", 8);
        assert_eq!(
            two.render(),
            "{\n  \"bench\": \"coalesce\",\n  \"scale\": \"Medium\",\n  \"host_cores\": 2,\n  \
             \"k\": 8\n}\n"
        );
        let one = Json::header_on("recover", Scale::Small, 1);
        assert_eq!(
            one.inline(),
            "{\"bench\": \"recover\", \"scale\": \"Small\", \"host_cores\": 1, \
             \"cpu_wall_clock_advisory\": true}"
        );
    }

    #[test]
    fn json_nests_objects_inline_and_rows_one_a_line() {
        let row = |n: u32| Json::default().num("n", n);
        let j = Json::default().obj("o", row(1)).rows("r", [row(2), row(3)]);
        assert_eq!(
            j.render(),
            "{\n  \"o\": {\"n\": 1},\n  \"r\": [\n    {\"n\": 2},\n    {\"n\": 3}\n  ]\n}\n"
        );
    }
}
