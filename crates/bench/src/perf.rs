//! Measurement primitives shared by the repo benchmark (`benchmark/`)
//! and this crate's allocation tests: a counting global allocator, a
//! peak-RSS reader, and a minimal dependency-free JSON value with a
//! writer and a parser.
//!
//! Nothing here measures anything by itself. The harness that runs
//! worlds, takes the numbers and writes the committed `BENCH_<pr>.json`
//! files is the standalone `benchmark/` package, which installs
//! [`CountingAlloc`] as its global allocator and reads it through
//! [`alloc_snapshot`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Counting global allocator
// ---------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper over [`System`] that counts allocation
/// calls and bytes with relaxed atomics. Installed via
/// `#[global_allocator]` by the `benchmark/` binary and by
/// `tests/sched_alloc.rs`; the counters read zero anywhere it is not
/// installed.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Snapshot of `(allocation calls, allocated bytes)` so far.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`);
/// 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

// ---------------------------------------------------------------------
// Minimal JSON value, writer, parser
// ---------------------------------------------------------------------

/// A minimal JSON value: enough to write, re-read and validate bench
/// files without external dependencies. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialises to JSON text. Fails on non-finite numbers — a NaN in
    /// a bench file is a measurement bug and must never be written.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out, 0)?;
        out.push('\n');
        Ok(out)
    }

    fn write(&self, out: &mut String, indent: usize) -> Result<(), String> {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(format!("non-finite number {n} in bench JSON"));
                }
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, indent)?;
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return Ok(());
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    Json::Str(k.clone()).write(out, 0)?;
                    out.push_str(": ");
                    v.write(out, indent + 1)?;
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses JSON text. Strict enough for bench files: rejects
    /// non-standard tokens (`NaN`, `Infinity`), trailing garbage,
    /// unterminated structures and nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a file of `[[[[…` would
/// overflow the stack instead of returning an error.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    if matches!(c, b'{' | b'[') && depth == MAX_DEPTH {
        return Err(format!(
            "nesting too deep (more than {MAX_DEPTH} levels) at byte {pos}"
        ));
    }
    match c {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos, depth + 1)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                let Some(&c) = b.get(*pos) else {
                    return Err("unterminated string".into());
                };
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(s)),
                    b'\\' => {
                        let Some(&esc) = b.get(*pos) else {
                            return Err("unterminated escape".into());
                        };
                        *pos += 1;
                        match esc {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                *pos += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape '\\{}'", other as char)),
                        }
                    }
                    c => {
                        // Re-attach multi-byte UTF-8 sequences whole.
                        if c < 0x80 {
                            s.push(c as char);
                        } else {
                            let start = *pos - 1;
                            let mut end = *pos;
                            while end < b.len() && b[end] & 0xC0 == 0x80 {
                                end += 1;
                            }
                            s.push_str(
                                std::str::from_utf8(&b[start..end])
                                    .map_err(|_| "invalid UTF-8 in string")?,
                            );
                            *pos = end;
                        }
                    }
                }
            }
        }
        b't' if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        b'f' if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        b'n' if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
            let n: f64 = text.parse().map_err(|_| format!("bad number '{text}'"))?;
            if !n.is_finite() {
                return Err(format!("non-finite number '{text}'"));
            }
            Ok(Json::Num(n))
        }
        other => Err(format!("unexpected byte '{}' at {pos}", other as char)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let d = Json::Obj(vec![
            ("name".into(), Json::Str("q\"\\\n\t\u{8}\u{c}é".into())),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "rows".into(),
                Json::Arr(vec![
                    Json::Num(2.5),
                    Json::Obj(vec![("n".into(), Json::Num(101.0))]),
                    Json::Obj(Vec::new()),
                ]),
            ),
        ]);
        let text = d.render().unwrap();
        assert_eq!(Json::parse(&text).unwrap(), d);
        // The short escapes `\b` and `\f` are valid JSON that the writer
        // never emits (it writes the `\u` form); other writers do.
        let short = Json::parse(r#""\b\f""#).unwrap();
        assert_eq!(short, Json::Str("\u{8}\u{c}".into()));
        assert_eq!(Json::parse(&short.render().unwrap()).unwrap(), short);
    }

    #[test]
    fn nan_is_unwritable_and_unparseable() {
        let d = Json::Obj(vec![("wall_secs".into(), Json::Num(f64::NAN))]);
        assert!(d.render().is_err(), "NaN must not serialise");
        assert!(Json::parse("{\"x\": NaN}").is_err());
        assert!(Json::parse("{\"x\": Infinity}").is_err());
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_tokens() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse(r#""\q""#).is_err());
        assert_eq!(
            Json::parse("[1, -2.5e3, \"s\", true, null]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Str("s".into()),
                Json::Bool(true),
                Json::Null,
            ])
        );
        // Nesting is capped: an unbounded run of openers is an error,
        // not a stack overflow, and the cap itself is still accepted.
        for opener in ["[", "{\"k\":"] {
            let err = Json::parse(&opener.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting too deep"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        assert!(Json::parse(&format!("[{at_cap}]")).is_err());
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // On Linux this must be > 0; elsewhere 0 is the documented gate.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }

    #[test]
    fn numbers_render_integers_without_fraction() {
        assert_eq!(Json::Num(3.0).render().unwrap().trim(), "3");
        assert_eq!(Json::Num(2.5).render().unwrap().trim(), "2.5");
    }
}
