//! A short run of every workload, untraced and traced: each ends with
//! one JSON result line carrying exactly the metrics `BENCHMARK.json`
//! names for that mode, every value finite and in the unit the file
//! gives it.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value, as much of JSON as the two files use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => {
                map.get(key).unwrap_or_else(|| panic!("no key {key:?} in {self:?}"))
            }
            _ => panic!("{self:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("{self:?} is not a string"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            _ => panic!("{self:?} is not a list"),
        }
    }
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut parser = Parser { text: text.as_bytes(), at: 0 };
        let value = parser.value();
        parser.skip_space();
        assert_eq!(parser.at, parser.text.len(), "trailing text after JSON value");
        value
    }

    fn skip_space(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(
            self.text.get(self.at),
            Some(&byte),
            "expected {:?} at {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.text[self.at] {
            b'{' => {
                self.at += 1;
                let mut map = BTreeMap::new();
                self.skip_space();
                if self.text[self.at] == b'}' {
                    self.at += 1;
                    return Json::Object(map);
                }
                loop {
                    self.skip_space();
                    let Json::Str(key) = self.value() else { panic!("object key is not a string") };
                    self.eat(b':');
                    let value = self.value();
                    assert!(map.insert(key.clone(), value).is_none(), "duplicate key {key}");
                    self.skip_space();
                    self.at += 1;
                    match self.text[self.at - 1] {
                        b',' => continue,
                        b'}' => return Json::Object(map),
                        other => panic!("unexpected {:?} in object", other as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.text[self.at] == b']' {
                    self.at += 1;
                    return Json::List(items);
                }
                loop {
                    items.push(self.value());
                    self.skip_space();
                    self.at += 1;
                    match self.text[self.at - 1] {
                        b',' => continue,
                        b']' => return Json::List(items),
                        other => panic!("unexpected {:?} in list", other as char),
                    }
                }
            }
            b'"' => {
                let start = self.at + 1;
                let end = start
                    + self.text[start..].iter().position(|&b| b == b'"').expect("closed string");
                let s = std::str::from_utf8(&self.text[start..end]).unwrap();
                assert!(!s.contains('\\'), "escapes are not expected: {s}");
                self.at = end + 1;
                Json::Str(s.to_owned())
            }
            _ => {
                let start = self.at;
                while self.text.get(self.at).is_some_and(|b| !b",]} \n".contains(b)) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.text[start..self.at]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Number(
                        number.parse().unwrap_or_else(|_| panic!("bad token {number:?}")),
                    ),
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

/// (name, unit) of every metric `BENCHMARK.json` lists under `key`.
fn declared(benchmark: &Json, key: &str) -> Vec<(String, String)> {
    benchmark
        .get(key)
        .list()
        .iter()
        .map(|m| (m.get("name").str().to_owned(), m.get("unit").str().to_owned()))
        .collect()
}

fn run_short(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", "2", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("servebench runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

fn check(workload: &str, trace: bool, expected: &[(String, String)]) {
    let result = run_short(workload, trace);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}: {result:?}");
    assert_eq!(result.get("failed"), &Json::Number(0.0), "{workload}: {result:?}");
    let Json::Number(attempted) = result.get("attempted") else { panic!("attempted not a number") };
    assert!(*attempted >= 1.0);
    let Json::Object(metrics) = result.get("metrics") else { panic!("metrics not an object") };
    let names: Vec<&String> = metrics.keys().collect();
    let mut wanted: Vec<&String> = expected.iter().map(|(name, _)| name).collect();
    wanted.sort();
    assert_eq!(names, wanted, "{workload} trace={trace}: metric names differ from BENCHMARK.json");
    for (name, unit) in expected {
        let metric = &metrics[name];
        let Json::Number(value) = metric.get("value") else {
            panic!("{workload}: {name} is not a finite number: {metric:?}")
        };
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(metric.get("unit").str(), unit, "{workload}: unit of {name}");
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let benchmark = benchmark_json();
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    for workload in benchmark.get("workloads").list() {
        let name = workload.get("name").str();
        check(name, false, &end_to_end);
        check(name, true, &per_layer);
    }
}

#[test]
fn declared_metrics_match_the_benchmark_code() {
    let benchmark = benchmark_json();
    let as_pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    };
    assert_eq!(declared(&benchmark, "end_to_end"), as_pairs(&starlink_servebench::END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), as_pairs(&starlink_servebench::PER_LAYER));
    let workloads: Vec<&str> =
        benchmark.get("workloads").list().iter().map(|w| w.get("name").str()).collect();
    let known: Vec<&str> =
        starlink_servebench::workload::Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", "open-loop", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("servebench runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
