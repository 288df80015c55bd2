//! Smoke-size self-test: every workload, traced and untraced, prints every
//! metric `BENCHMARK.json` names — present, finite and with its unit — and
//! passes its correctness checks.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough JSON for the benchmark's output).
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
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
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
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(text.parse().expect("a JSON number"))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    p.value()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = spec.get(section) else {
        panic!("BENCHMARK.json has no {section} list")
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_named_metric_is_present_finite_and_has_its_unit() {
    let spec_text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("reading BENCHMARK.json");
    let spec = parse(&spec_text);
    let Json::Arr(workloads) = spec.get("workloads") else {
        panic!("workloads")
    };
    for w in workloads {
        let Json::Str(name) = w.get("name") else {
            panic!("workload name")
        };
        for trace in [false, true] {
            let result = run(name, trace);
            let Json::Obj(top) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name}: incorrect"
            );
            let (Json::Num(attempted), Json::Num(failed)) =
                (result.get("attempted"), result.get("failed"))
            else {
                panic!("{name}: attempted/failed are not numbers")
            };
            assert!(*attempted >= 1.0 && attempted.fract() == 0.0 && failed.fract() == 0.0);
            let section = if trace { "per_layer" } else { "end_to_end" };
            let want = declared(&spec, section);
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics")
            };
            assert_eq!(
                metrics.keys().cloned().collect::<Vec<_>>(),
                {
                    let mut names: Vec<String> = want.iter().map(|(n, _)| n.clone()).collect();
                    names.sort();
                    names
                },
                "{name} (trace {trace}) prints exactly the {section} metrics"
            );
            for (metric, unit) in &want {
                let m = &metrics[metric];
                let Json::Num(v) = m.get("value") else {
                    panic!("{name}: {metric} has no finite value: {m:?}")
                };
                assert!(v.is_finite(), "{name}: {metric} = {v}");
                assert_eq!(
                    m.get("unit"),
                    &Json::Str(unit.clone()),
                    "{name}: unit of {metric}"
                );
            }
        }
    }
}
