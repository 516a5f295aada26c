//! `--compare a.jsonl b.jsonl`: whether two sets of runs agree within the
//! bounds `BENCHMARK.json` fixes. Each line of a set is the JSON object one
//! run printed last.

use crate::workload::quantile;
use std::collections::BTreeMap;

/// A parsed JSON value. Duplicate keys are kept; `get` returns the first.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// The byte offset and what was expected there.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), at: 0 };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("expected {what} at byte {}", self.at))
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return self.fail("`:`");
                    }
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return self.fail("`,` or `}`");
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.fail("`,` or `]`");
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.at;
                while self.s.get(self.at).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.s[start..self.at]).ok().and_then(|t| t.parse().ok())
                {
                    Some(n) => Ok(Json::Num(n)),
                    None => {
                        self.at = start;
                        self.fail("a value")
                    }
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.fail("a string");
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                None => return self.fail("a closing quote"),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).or_else(|_| self.fail("UTF-8"));
                }
                Some(b'\\') => {
                    let c = match self.s.get(self.at + 1) {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.at + 2..self.at + 6)
                                .and_then(|h| std::str::from_utf8(h).ok());
                            let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            match code.and_then(char::from_u32) {
                                Some(c) => {
                                    self.at += 4;
                                    c
                                }
                                None => return self.fail("a \\u escape"),
                            }
                        }
                        _ => return self.fail("an escape"),
                    };
                    self.at += 2;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&c) => {
                    self.at += 1;
                    out.push(c);
                }
            }
        }
    }
}

/// The median and the first and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quantile(&v, 0.5), cut(1), cut(3))
}

/// One set: every metric's values and the unit it was printed with, plus
/// the runs that reported a failure.
struct Set {
    metrics: BTreeMap<String, (String, Vec<f64>)>,
    runs: usize,
    bad_runs: usize,
}

fn load_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set { metrics: BTreeMap::new(), runs: 0, bad_runs: 0 };
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{path}:{}: no `metrics` object", n + 1));
        };
        set.runs += 1;
        let correct = run.get("correct") == Some(&Json::Bool(true));
        if !correct || run.get("failed").and_then(Json::num) != Some(0.0) {
            set.bad_runs += 1;
        }
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or(format!("{path}: `{name}` has no value"))?;
            let unit = m.get("unit").and_then(Json::str).unwrap_or("").to_string();
            set.metrics.entry(name.clone()).or_insert_with(|| (unit, Vec::new())).1.push(value);
        }
    }
    Ok(set)
}

/// Prints the comparison and returns whether the sets agree.
///
/// # Errors
///
/// Unreadable or malformed inputs.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = parse(&spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut bounds = BTreeMap::new();
    if let Some(Json::Arr(metrics)) = spec.get("end_to_end") {
        for m in metrics {
            if let (Some(name), Some(bound)) =
                (m.get("name").and_then(Json::str), m.get("bound").and_then(Json::num))
            {
                bounds.insert(name.to_string(), bound);
            }
        }
    }
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    let mut agree = sa.bad_runs == 0 && sb.bad_runs == 0;
    println!("A = {a} ({} runs, {} with failures)", sa.runs, sa.bad_runs);
    println!("B = {b} ({} runs, {} with failures)", sb.runs, sb.bad_runs);
    println!(
        "{:<32} {:>10}  {:>38}  {:>38}  verdict",
        "metric", "unit", "A median [q1, q3] spread", "B median [q1, q3] spread"
    );
    let names: std::collections::BTreeSet<&String> =
        sa.metrics.keys().chain(sb.metrics.keys()).collect();
    for name in names {
        let (Some((unit, va)), Some((_, vb))) = (sa.metrics.get(name), sb.metrics.get(name)) else {
            println!("{name:<32} missing from one set");
            agree = false;
            continue;
        };
        let (ma, qa1, qa3) = quartiles(va);
        let (mb, qb1, qb3) = quartiles(vb);
        let verdict = if let Some(&bound) = bounds.get(name) {
            let ok = (mb - ma).abs() <= bound * ma.abs();
            agree &= ok;
            format!(
                "{} (|B/A - 1| = {:.4}, bound {bound})",
                if ok { "agree" } else { "DIFFER" },
                (mb / ma - 1.0).abs()
            )
        } else if unit == "count" {
            let (mut xa, mut xb) = (va.clone(), vb.clone());
            xa.sort_by(f64::total_cmp);
            xb.sort_by(f64::total_cmp);
            let ok = xa == xb;
            agree &= ok;
            (if ok { "identical" } else { "COUNTS DIFFER" }).to_string()
        } else {
            "-".to_string()
        };
        let fmt = |m: f64, q1: f64, q3: f64| {
            let spread = if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
            format!("{m:.6} [{q1:.6}, {q3:.6}] {spread:.4}")
        };
        println!(
            "{name:<32} {unit:>10}  {:>38}  {:>38}  {verdict}",
            fmt(ma, qa1, qa3),
            fmt(mb, qb1, qb3)
        );
    }
    println!("{}", if agree { "sets agree" } else { "sets DIFFER" });
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_result_lines() {
        let v = parse(r#"{"correct": true, "attempted": 3, "metrics": {"a.b": {"value": -1.5e2, "unit": "m\"s"}}, "x": [null, false]}"#)
            .unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").and_then(|m| m.get("a.b")).unwrap();
        assert_eq!(m.get("value"), Some(&Json::Num(-150.0)));
        assert_eq!(m.get("unit"), Some(&Json::Str("m\"s".into())));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1] 2").is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (5.5, 2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
    }
}
