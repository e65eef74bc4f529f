//! Self-check of `BENCHMARK.json` against its schema (exact keys, name
//! and unit syntax, counts, bounds) and against the metric registry: run
//! with `cargo test --manifest-path perfbench/Cargo.toml`.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// A parsed JSON value (objects keep their key order).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return Err(format!("object key expected at byte {}", self.i));
                    };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = *self.s.get(self.i).ok_or("unterminated string")?;
                    self.i += 1;
                    match c {
                        b'"' => return Ok(Json::Str(out)),
                        b'\\' => {
                            let e = *self.s.get(self.i).ok_or("bad escape")?;
                            self.i += 1;
                            out.push(match e {
                                b'"' => '"',
                                b'\\' => '\\',
                                b'/' => '/',
                                b'n' => '\n',
                                b't' => '\t',
                                _ => return Err(format!("unsupported escape \\{}", e as char)),
                            });
                        }
                        _ => {
                            // Copy one UTF-8 sequence whole.
                            let start = self.i - 1;
                            while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i])
                                    .map_err(|e| e.to_string())?,
                            );
                        }
                    }
                }
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|n| n.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

fn obj(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(f) => f,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn arr(v: &Json) -> &[Json] {
    match v {
        Json::Arr(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn string(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    obj(v)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn keys(v: &Json) -> Vec<&str> {
    obj(v).iter().map(|(k, _)| k.as_str()).collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn manifest() -> (String, Json) {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = parse(&text).expect("BENCHMARK.json parses");
    (text, json)
}

#[test]
fn manifest_has_exactly_the_schema_keys_and_limits() {
    let (text, m) = manifest();
    assert!(text.len() <= 64 * 1024, "manifest over 64 KiB");
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = arr(field(&m, "paths")).iter().map(string).collect();
    assert!((1..=16).contains(&paths.len()));
    for p in &paths {
        assert!(p.len() <= 200 && !p.is_empty());
        assert!(
            p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "{p}"
        );
        assert!(
            !p.starts_with('/') && !p.split('/').any(|c| c == ".."),
            "{p}"
        );
        assert!(repo_root().join(p).is_dir(), "{p} is not a directory");
    }

    let command: Vec<&str> = arr(field(&m, "command")).iter().map(string).collect();
    assert!((1..=32).contains(&command.len()));
    for c in &command {
        assert!(c.chars().count() <= 200);
        assert!(
            !c.starts_with('/') && !c.split('/').any(|part| part == ".."),
            "{c}"
        );
        if c.contains('/') {
            assert!(
                paths.iter().any(|p| c.starts_with(&format!("{p}/"))),
                "{c} names a file outside the benchmark's paths"
            );
        }
    }

    match field(&m, "run_seconds") {
        Json::Num(s) => assert!(s.fract() == 0.0 && (1.0..=60.0).contains(s)),
        other => panic!("run_seconds must be a number, got {other:?}"),
    }

    let workloads = arr(field(&m, "workloads"));
    assert!((2..=8).contains(&workloads.len()));
    let e2e = arr(field(&m, "end_to_end"));
    assert!((1..=16).contains(&e2e.len()));
    let layers = arr(field(&m, "per_layer"));
    assert!((1..=128).contains(&layers.len()));

    let mut names = HashSet::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let (name, why) = (string(field(w, "name")), string(field(w, "why")));
        assert!(valid_name(name) && names.insert(name.to_owned()), "{name}");
        assert!(
            !why.trim().is_empty() && why.chars().count() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }
    let mut largest_bound = 0.0f64;
    for e in e2e {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
        let name = string(field(e, "name"));
        assert!(valid_name(name) && names.insert(name.to_owned()), "{name}");
        assert!(valid_unit(string(field(e, "unit"))), "{name}");
        assert!(
            ["higher", "lower"].contains(&string(field(e, "better"))),
            "{name}"
        );
        let Json::Num(bound) = field(e, "bound") else {
            panic!("{name}: bound must be a number");
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        largest_bound = largest_bound.max(*bound);
    }
    let setup = e2e
        .iter()
        .find(|e| string(field(e, "name")) == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(string(field(setup, "unit")), "s");
    assert_eq!(string(field(setup, "better")), "lower");
    assert_eq!(
        field(setup, "bound"),
        &Json::Num(largest_bound),
        "setup_s has the largest bound"
    );
    for l in layers {
        assert_eq!(keys(l), ["name", "unit", "better"]);
        let name = string(field(l, "name"));
        assert!(valid_name(name) && names.insert(name.to_owned()), "{name}");
        assert!(valid_unit(string(field(l, "unit"))), "{name}");
        assert!(
            ["higher", "lower"].contains(&string(field(l, "better"))),
            "{name}"
        );
    }
}

#[test]
fn manifest_matches_what_the_benchmark_prints() {
    let (_, m) = manifest();
    let workloads: Vec<(&str, &str)> = arr(field(&m, "workloads"))
        .iter()
        .map(|w| (string(field(w, "name")), string(field(w, "why"))))
        .collect();
    assert_eq!(workloads, WORKLOADS.to_vec());

    let e2e: Vec<(&str, &str, &str)> = arr(field(&m, "end_to_end"))
        .iter()
        .map(|e| {
            (
                string(field(e, "name")),
                string(field(e, "unit")),
                string(field(e, "better")),
            )
        })
        .collect();
    let printed: Vec<_> = END_TO_END
        .iter()
        .map(|e| (e.name, e.unit, e.better))
        .collect();
    assert_eq!(e2e, printed);

    let layers: Vec<(&str, &str, &str)> = arr(field(&m, "per_layer"))
        .iter()
        .map(|l| {
            (
                string(field(l, "name")),
                string(field(l, "unit")),
                string(field(l, "better")),
            )
        })
        .collect();
    let printed: Vec<_> = PER_LAYER
        .iter()
        .map(|l| (l.name, l.unit, l.better))
        .collect();
    assert_eq!(layers, printed);
}

#[test]
fn every_per_layer_metric_names_an_end_to_end_metric_and_workloads() {
    for l in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == l.moves),
            "{} moves unknown metric {}",
            l.name,
            l.moves
        );
        assert!(!l.on.is_empty(), "{} names no workload", l.name);
        for w in l.on {
            assert!(
                WORKLOADS.iter().any(|(n, _)| n == w),
                "{}: unknown workload {w}",
                l.name
            );
        }
    }
}

#[test]
fn parser_reads_the_json_the_benchmark_prints() {
    let v = parse(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": true, "d": null}}"#).expect("parses");
    assert_eq!(keys(&v), ["a", "b"]);
    assert_eq!(arr(field(&v, "a"))[1], Json::Num(-2500.0));
    assert_eq!(string(&arr(field(&v, "a"))[2]), "x\"y");
    assert!(parse("{\"a\": 1,}").is_err());
    assert!(parse("[1] 2").is_err());
}
