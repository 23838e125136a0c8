//! Self-test of the benchmark in its short mode: every metric that
//! `BENCHMARK.json` names is printed with its unit, every reference check
//! runs, tracing leaves the simulated statistics unchanged, and a
//! deliberately corrupted result is counted as a failure.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Seed used while the benchmark was tuned, and a seed held out from it.
const TUNING_SEED: &str = "1";
const HELD_OUT_SEED: &str = "9001";

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
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

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected `{}` at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        assert!(
                            m.insert(k.clone(), self.value()).is_none(),
                            "duplicate `{k}`"
                        );
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() != b']' {
                    loop {
                        a.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(a)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }
}

fn spec() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct Run {
    ok: bool,
    stdout: String,
    result: Json,
}

impl Run {
    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{}", self.stdout))
    }
}

fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "0"])
        .args(["--trace", trace, "--short"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output").to_string();
    Run {
        ok: out.status.success(),
        result: Json::parse(&last),
        stdout,
    }
}

/// Asserts the run printed exactly `expected` metrics, each with its unit
/// and a finite value.
fn assert_metrics(run: &Run, expected: &[(String, String)]) {
    let printed = run.result.get("metrics").obj();
    let names: Vec<&String> = printed.keys().collect();
    let mut want: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    want.sort();
    assert_eq!(
        names, want,
        "printed metric names differ from BENCHMARK.json"
    );
    for (name, unit) in expected {
        let m = printed[name].obj();
        assert_eq!(m.len(), 2, "{name}: expected exactly value and unit");
        assert_eq!(m["unit"].str(), unit, "{name}: wrong unit");
        assert!(m["value"].num().is_finite(), "{name}: value is not finite");
    }
}

fn workloads() -> Vec<String> {
    spec()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect()
}

/// The reference checks each workload must run at least once; `replay`
/// compares every repeated input with its first run.
fn expected_checks(workload: &str) -> &'static [&'static str] {
    match workload {
        "pipeline" => &["pipeline_stream", "replay"],
        "md5" => &["md5_digest", "replay"],
        "cpu" => &["cpu_sort", "replay"],
        "sweep" => &["sweep_reference", "sweep_memo", "replay"],
        other => panic!("no reference checks known for workload `{other}`"),
    }
}

#[test]
fn every_metric_and_check_is_reported_on_both_seeds() {
    let spec = spec();
    let end_to_end = metrics(&spec, "end_to_end");
    let per_layer = metrics(&spec, "per_layer");
    for workload in workloads() {
        for seed in [TUNING_SEED, HELD_OUT_SEED] {
            let plain = run(&workload, seed, "0", &[]);
            assert!(plain.ok, "{workload} seed {seed} failed:\n{}", plain.stdout);
            assert_eq!(plain.result.get("correct"), &Json::Bool(true));
            assert_eq!(plain.result.get("failed").num(), 0.0);
            assert!(plain.result.get("attempted").num() >= 1.0);
            assert_metrics(&plain, &end_to_end);
            for check in expected_checks(&workload) {
                let line = plain.line("checks ");
                let count = line
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix(&format!("{check}=")))
                    .unwrap_or_else(|| panic!("{workload}: check `{check}` never ran: {line}"));
                assert!(count.parse::<u64>().expect("count") > 0);
            }

            let traced = run(&workload, seed, "1", &[]);
            assert!(traced.ok, "{workload} traced failed:\n{}", traced.stdout);
            assert_metrics(&traced, &per_layer);
            assert_eq!(
                plain.line("digest "),
                traced.line("digest "),
                "{workload}: tracing changed the simulated statistics"
            );
        }
    }
}

#[test]
fn a_corrupted_result_counts_as_a_failure() {
    for workload in workloads() {
        let r = run(&workload, TUNING_SEED, "0", &["--corrupt"]);
        assert!(!r.ok, "{workload}: a corrupted result must fail the run");
        assert_eq!(r.result.get("correct"), &Json::Bool(false));
        assert!(r.result.get("failed").num() >= 1.0);
        let ok_rate = r.result.get("metrics").get("ok_rate").get("value").num();
        assert!(
            ok_rate < 1.0,
            "{workload}: ok_rate {ok_rate} ignores the failure"
        );
        assert!(!r.line("error_rate=").starts_with("error_rate=0 "));
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}
