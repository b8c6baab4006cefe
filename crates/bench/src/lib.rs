//! Shared harness utilities: deterministic workloads, wall-clock
//! measurement, CSV tables and quick ASCII charts for the `figures` program
//! (the paper's tables and figures, and the ablations), and the JSON reader
//! and artifact writer that `perfbench` and `polyclip-serve` share.
//!
//! Parallel projections are not made here: `figures` reads them from
//! [`PhaseTimes::projected_wall`].

use polyclip::prelude::*;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

/// Measure one closure invocation.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// Measure the minimum of `reps` invocations (steadier than a single shot).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(reps >= 1);
    let (mut out, mut best) = time(&mut f);
    for _ in 1..reps {
        let (v, d) = time(&mut f);
        if d < best {
            best = d;
            out = v;
        }
    }
    (out, best)
}

/// A results table: header plus rows, printable and CSV-serializable.
#[derive(Debug, Default, Clone)]
pub struct ResultTable {
    /// Table name (file stem for the CSV).
    pub name: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Create an empty table.
    pub fn new(name: &str, header: &[&str]) -> Self {
        ResultTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Write `results/<name>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut s = String::new();
        s.push_str(&self.header.join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        fs::write(dir.join(format!("{}.csv", self.name)), s)
    }
}

/// Quick ASCII bar chart of labelled values (for the per-slab load profile).
pub fn ascii_bars(labels: &[String], values: &[f64], width: usize) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let mut out = String::new();
    for (l, v) in labels.iter().zip(values) {
        let n = ((v / max) * width as f64).round() as usize;
        let _ = writeln!(out, "{l:>10} | {} {v:.4}", "#".repeat(n));
    }
    out
}

/// Format a duration in milliseconds with 3 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// The slab counts swept by the scaling figures.
pub const SLAB_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

/// Hand-rolled JSON emission, validation, and parsing for the
/// machine-readable benchmark artifacts (`perfbench`'s results,
/// `BENCH_serve.json`) and the `polyclip-serve` line protocol. The workspace deliberately carries no
/// serde; the subset here (objects, arrays, strings, finite numbers, bools,
/// null) covers everything those emit, [`json::validate`] gives CI a cheap
/// well-formedness check on written files, and [`json::Value::parse`] is
/// the shared reader for the serve protocol and loadgen's artifact checks.
pub mod json {
    use std::fmt::Write as _;

    /// A JSON value restricted to what the bench artifacts need.
    #[derive(Debug, Clone)]
    pub enum Value {
        /// A finite number (non-finite inputs are emitted as `null`).
        Num(f64),
        /// A string (escaped on write).
        Str(String),
        /// A boolean.
        Bool(bool),
        /// An ordered list.
        Arr(Vec<Value>),
        /// An object with insertion-ordered keys.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Convenience object constructor from `(key, value)` pairs.
        pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
            Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }

        /// Parse one JSON document (the same subset [`validate`] accepts;
        /// `null` parses as a non-finite [`Value::Num`], mirroring how
        /// rendering emits non-finite numbers as `null`). Returns the byte
        /// position of the failure on malformed input.
        pub fn parse(text: &str) -> Result<Value, usize> {
            let b = text.as_bytes();
            let mut i = 0usize;
            skip_ws(b, &mut i);
            let v = parse_into(b, &mut i)?;
            skip_ws(b, &mut i);
            if i == b.len() {
                Ok(v)
            } else {
                Err(i)
            }
        }

        /// Object field lookup (first match); `None` on non-objects.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The finite number carried by a [`Value::Num`].
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x) if x.is_finite() => Some(*x),
                _ => None,
            }
        }

        /// The string carried by a [`Value::Str`].
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean carried by a [`Value::Bool`].
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The elements of a [`Value::Arr`].
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(xs) => Some(xs),
                _ => None,
            }
        }

        /// Serialize onto a single line with no whitespace — the framing
        /// the line-delimited wire protocol in `polyclip-serve` needs
        /// (one document per `\n`-terminated line).
        pub fn render_compact(&self) -> String {
            let mut s = String::new();
            self.write_compact(&mut s);
            s
        }

        fn write_compact(&self, out: &mut String) {
            match self {
                Value::Num(x) if x.is_finite() => {
                    let _ = write!(out, "{x}");
                }
                Value::Num(_) => out.push_str("null"),
                Value::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                Value::Str(s) => {
                    out.push('"');
                    out.push_str(&escape(s));
                    out.push('"');
                }
                Value::Arr(xs) => {
                    out.push('[');
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        x.write_compact(out);
                    }
                    out.push(']');
                }
                Value::Obj(kv) => {
                    out.push('{');
                    for (i, (k, v)) in kv.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{}\":", escape(k));
                        v.write_compact(out);
                    }
                    out.push('}');
                }
            }
        }

        /// Serialize with two-space indentation.
        pub fn render(&self) -> String {
            let mut s = String::new();
            self.write(&mut s, 0);
            s.push('\n');
            s
        }

        fn write(&self, out: &mut String, depth: usize) {
            let pad = "  ".repeat(depth + 1);
            let close = "  ".repeat(depth);
            match self {
                Value::Num(x) if x.is_finite() => {
                    let _ = write!(out, "{x}");
                }
                Value::Num(_) => out.push_str("null"),
                Value::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                Value::Str(s) => {
                    out.push('"');
                    out.push_str(&escape(s));
                    out.push('"');
                }
                Value::Arr(xs) if xs.is_empty() => out.push_str("[]"),
                Value::Arr(xs) => {
                    out.push_str("[\n");
                    for (i, x) in xs.iter().enumerate() {
                        out.push_str(&pad);
                        x.write(out, depth + 1);
                        out.push_str(if i + 1 < xs.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push(']');
                }
                Value::Obj(kv) if kv.is_empty() => out.push_str("{}"),
                Value::Obj(kv) => {
                    out.push_str("{\n");
                    for (i, (k, v)) in kv.iter().enumerate() {
                        let _ = write!(out, "{pad}\"{}\": ", escape(k));
                        v.write(out, depth + 1);
                        out.push_str(if i + 1 < kv.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&close);
                    out.push('}');
                }
            }
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
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Minimal well-formedness check: balanced structure, legal literals,
    /// exactly one top-level value. Returns the parse-failure position on
    /// error. Not a full RFC 8259 validator — just enough for CI to reject
    /// a truncated or garbled artifact. Shares the recursive-descent core
    /// with [`Value::parse`], so the two can never drift.
    pub fn validate(text: &str) -> Result<(), usize> {
        Value::parse(text).map(|_| ())
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn parse_into(b: &[u8], i: &mut usize) -> Result<Value, usize> {
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                let mut kv: Vec<(String, Value)> = Vec::new();
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(kv));
                }
                loop {
                    skip_ws(b, i);
                    let key = parse_string(b, i)?;
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(*i);
                    }
                    *i += 1;
                    skip_ws(b, i);
                    let v = parse_into(b, i)?;
                    kv.push((key, v));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(kv));
                        }
                        _ => return Err(*i),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                let mut xs: Vec<Value> = Vec::new();
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(xs));
                }
                loop {
                    skip_ws(b, i);
                    xs.push(parse_into(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(xs));
                        }
                        _ => return Err(*i),
                    }
                }
            }
            Some(b'"') => parse_string(b, i).map(Value::Str),
            Some(b't') => parse_lit(b, i, b"true").map(|()| Value::Bool(true)),
            Some(b'f') => parse_lit(b, i, b"false").map(|()| Value::Bool(false)),
            Some(b'n') => parse_lit(b, i, b"null").map(|()| Value::Num(f64::NAN)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *i;
                *i += 1;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *i += 1;
                }
                text_slice(b, start, *i)
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| start)
            }
            _ => Err(*i),
        }
    }

    /// Parse and unescape one string literal at `i`.
    fn parse_string(b: &[u8], i: &mut usize) -> Result<String, usize> {
        if b.get(*i) != Some(&b'"') {
            return Err(*i);
        }
        let start = *i;
        *i += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = b.get(*i + 1).ok_or(*i)?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b.get(*i + 2..*i + 6).ok_or(*i)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| *i)?, 16)
                                    .map_err(|_| *i)?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        _ => return Err(*i),
                    }
                    *i += 2;
                }
                _ => {
                    // Re-slice from the raw bytes to keep multi-byte UTF-8
                    // intact: advance to the next escape or quote.
                    let run_start = *i;
                    while *i < b.len() && b[*i] != b'"' && b[*i] != b'\\' {
                        *i += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[run_start..*i]).map_err(|_| run_start)?);
                }
            }
        }
        Err(start)
    }

    fn parse_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
        if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
            *i += lit.len();
            Ok(())
        } else {
            Err(*i)
        }
    }

    fn text_slice(b: &[u8], lo: usize, hi: usize) -> &str {
        std::str::from_utf8(&b[lo..hi]).unwrap_or("")
    }
}

/// Generate a Table III replica layer, caching nothing (generation is
/// deterministic and fast relative to clipping).
pub fn layer(id: usize, scale: f64, seed: u64) -> Layer {
    let spec = polyclip::datagen::table3_spec(id);
    Layer::new(polyclip::datagen::generate_layer(&spec, scale, seed))
}

/// Flatten a generated Table III layer into one multi-contour polygon set —
/// the many-small-contours regime where slab binning beats p full scans.
/// Shared by `perfbench`, `polyclip-serve` and its load generator.
pub fn flatten_layer(id: usize, scale: f64, seed: u64) -> PolygonSet {
    let mut out = PolygonSet::new();
    for feature in
        polyclip::datagen::generate_layer(&polyclip::datagen::table3_spec(id), scale, seed)
    {
        for c in feature.into_contours() {
            out.push(c);
        }
    }
    out
}

/// The shared tail of every JSON artifact writer: render the document, write
/// it, re-read it, and validate the readback so a truncated or garbled
/// artifact fails loudly in CI instead of poisoning downstream analysis.
///
/// Returns `Err` (instead of panicking) on I/O failure or an invalid
/// readback so callers can propagate a non-zero exit status — a smoke job
/// that inspects only the exit code must not be able to pass on a
/// malformed artifact.
#[must_use = "a failed artifact write must fail the bench run"]
pub fn write_artifact(out_path: &str, doc: &json::Value) -> Result<(), String> {
    let text = doc.render();
    fs::write(out_path, &text).map_err(|e| format!("write {out_path}: {e}"))?;
    let readback = fs::read_to_string(out_path).map_err(|e| format!("re-read {out_path}: {e}"))?;
    json::validate(&readback)
        .map_err(|pos| format!("{out_path} is not valid JSON (parse failed at byte {pos})"))?;
    println!("wrote {out_path} ({} bytes, valid JSON)", readback.len());
    Ok(())
}

/// Exit-status adapter for an artifact writer's `main`: report the artifact
/// error on stderr and return the conventional failure code.
pub fn exit_after_artifact(result: Result<(), String>) -> std::process::ExitCode {
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench artifact error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_csv_roundtrip() {
        let mut t = ResultTable::new("demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["30".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("bb"));
        assert!(s.contains("30"));
        let dir = std::env::temp_dir().join("polyclip_bench_test");
        t.write_csv(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,bb"));
    }

    #[test]
    fn time_best_returns_minimum() {
        let mut n = 0u64;
        let (_, d) = time_best(3, || {
            n += 1;
            std::thread::sleep(Duration::from_millis(if n == 2 { 1 } else { 5 }));
        });
        assert!(d < Duration::from_millis(5));
    }

    #[test]
    fn ascii_bars_scale_to_width() {
        let s = ascii_bars(&["a".to_string(), "b".to_string()], &[1.0, 2.0], 10);
        assert!(s.lines().count() == 2);
        assert!(s.contains("##########"));
    }

    #[test]
    fn json_roundtrip_renders_and_validates() {
        let v = json::Value::obj(vec![
            ("name", json::Value::Str("bench \"quoted\"\n".into())),
            ("ok", json::Value::Bool(true)),
            ("nan", json::Value::Num(f64::NAN)),
            (
                "runs",
                json::Value::Arr(vec![
                    json::Value::Num(1.5),
                    json::Value::Num(-2e-3),
                    json::Value::obj(vec![("p", json::Value::Num(8.0))]),
                ]),
            ),
            ("empty", json::Value::Arr(vec![])),
        ]);
        let text = v.render();
        assert!(json::validate(&text).is_ok(), "{text}");
        assert!(text.contains("null"), "NaN must degrade to null");
    }

    #[test]
    fn json_parse_roundtrips_rendered_documents() {
        let v = json::Value::obj(vec![
            ("op", json::Value::Str("intersection".into())),
            ("deadline_ms", json::Value::Num(12.5)),
            ("partial", json::Value::Bool(false)),
            (
                "query",
                json::Value::Arr(vec![json::Value::Num(1.0), json::Value::Num(-2.0)]),
            ),
            ("note", json::Value::Str("line\nbreak \"q\"".into())),
        ]);
        let parsed = json::Value::parse(&v.render()).expect("parse rendered doc");
        assert_eq!(
            parsed.get("op").and_then(|v| v.as_str()),
            Some("intersection")
        );
        assert_eq!(
            parsed.get("deadline_ms").and_then(|v| v.as_f64()),
            Some(12.5)
        );
        assert_eq!(parsed.get("partial").and_then(|v| v.as_bool()), Some(false));
        let q = parsed.get("query").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(q[1].as_f64(), Some(-2.0));
        assert_eq!(
            parsed.get("note").and_then(|v| v.as_str()),
            Some("line\nbreak \"q\"")
        );
        // null parses as a non-finite Num, the mirror of how it renders.
        let n = json::Value::parse("{\"x\": null}").unwrap();
        assert!(matches!(n.get("x"), Some(json::Value::Num(x)) if x.is_nan()));
        assert_eq!(n.get("x").and_then(|v| v.as_f64()), None);
        // The wire framing: compact output is one line and parses back.
        let compact = v.render_compact();
        assert!(!compact.contains('\n'), "compact render must be one line");
        let reparsed = json::Value::parse(&compact).expect("parse compact doc");
        assert_eq!(
            reparsed.get("note").and_then(|v| v.as_str()),
            Some("line\nbreak \"q\"")
        );
    }

    #[test]
    fn json_parse_rejects_malformed_lines() {
        for bad in ["{\"a\": }", "[1, 2,] ", "{\"a\" 1}", "tru", "\"open", "{}}"] {
            assert!(json::Value::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_validate_rejects_garbage() {
        assert!(json::validate("{\"a\": }").is_err());
        assert!(json::validate("{\"a\": 1} trailing").is_err());
        assert!(json::validate("[1, 2,]").is_err());
        assert!(json::validate("").is_err());
        assert!(json::validate("{\"unterminated\": \"st").is_err());
        assert!(json::validate("{\"a\": [1, {\"b\": true}], \"c\": null}").is_ok());
    }
}
