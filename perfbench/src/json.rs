//! A minimal JSON object writer (the workspace is std-only).

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

/// A finite number in shortest round-trip form; non-finite values, which
/// JSON cannot carry, become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// `{"key": <inner>}`.
    pub fn wrap(key: &str, inner: Obj) -> String {
        let mut o = Obj::new();
        o.obj(key, inner);
        o.render()
    }

    /// Adds `"key": number`.
    pub fn num(&mut self, key: &str, v: f64) {
        self.fields.push((key.to_string(), number(v)));
    }

    /// Adds `"key": integer`, exact at any `u64`.
    pub fn int(&mut self, key: &str, v: u64) {
        self.fields.push((key.to_string(), v.to_string()));
    }

    /// Adds `"key": "string"`.
    pub fn str(&mut self, key: &str, v: &str) {
        self.fields.push((key.to_string(), string(v)));
    }

    /// Adds `"key": true|false`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.fields.push((key.to_string(), v.to_string()));
    }

    /// Adds `"key": [numbers]`.
    pub fn list(&mut self, key: &str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|&v| number(v)).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(", "))));
    }

    /// Adds `"key": {"value": v, "unit": "unit"}`.
    pub fn metric(&mut self, key: &str, v: f64, unit: &str) {
        let mut m = Obj::new();
        m.num("value", v);
        m.str("unit", unit);
        self.obj(key, m);
    }

    /// Adds `"key": {nested}`.
    pub fn obj(&mut self, key: &str, inner: Obj) {
        self.fields.push((key.to_string(), inner.render()));
    }

    /// The object as one line of JSON.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}
