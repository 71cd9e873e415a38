//! A minimal JSON writer for the pretty, golden-pinned metrics schema.
//!
//! The workspace has no serde (no crates.io access), and the metrics
//! schema is small and fixed, so a push-style writer is all the
//! exporters need. Emission order is exactly call order — which is what
//! makes the output golden-pinnable byte for byte. Strings are escaped
//! by the same routine as the compact wire-protocol writer,
//! [`resim_toml::json::render_json_string`].

use resim_toml::json::render_json_string;
use std::fmt::Write as _;

/// Formats an `f64` deterministically for the metrics schema: six
/// decimal places, non-finite values clamped to `0.0`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_string()
    }
}

/// A push-style JSON object/array builder producing pretty-printed,
/// deterministic output.
#[derive(Debug)]
pub struct JsonObject {
    out: String,
    /// Whether the current container already holds a member (needs a
    /// comma), one level per open container.
    needs_comma: Vec<bool>,
    indent: usize,
}

impl JsonObject {
    /// Starts a fresh top-level object (`{`).
    pub fn new() -> Self {
        Self {
            out: String::from("{"),
            needs_comma: vec![false],
            indent: 1,
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn member(&mut self, key: Option<&str>) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
        self.newline();
        if let Some(key) = key {
            render_json_string(key, &mut self.out);
            self.out.push_str(": ");
        }
    }

    /// Adds `"key": "value"`.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.member(Some(key));
        render_json_string(value, &mut self.out);
        self
    }

    /// Adds `"key": <integer>`.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.member(Some(key));
        let _ = write!(self.out, "{value}");
        self
    }

    /// Adds `"key": <float>` (six decimals, deterministic).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.member(Some(key));
        self.out.push_str(&json_f64(value));
        self
    }

    /// Adds `"key": true|false`.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.member(Some(key));
        let _ = write!(self.out, "{value}");
        self
    }

    /// Opens `"key": {`.
    pub fn open_object(&mut self, key: &str) -> &mut Self {
        self.member(Some(key));
        self.out.push('{');
        self.needs_comma.push(false);
        self.indent += 1;
        self
    }

    /// Opens `"key": [`.
    pub fn open_array(&mut self, key: &str) -> &mut Self {
        self.member(Some(key));
        self.out.push('[');
        self.needs_comma.push(false);
        self.indent += 1;
        self
    }

    /// Opens `{` as an array element.
    pub fn open_element(&mut self) -> &mut Self {
        self.member(None);
        self.out.push('{');
        self.needs_comma.push(false);
        self.indent += 1;
        self
    }

    /// Adds a bare integer array element.
    pub fn element_u64(&mut self, value: u64) -> &mut Self {
        self.member(None);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Closes the innermost `{`.
    pub fn close_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Closes the innermost `[`.
    pub fn close_array(&mut self) -> &mut Self {
        self.close(']')
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        let had_members = self.needs_comma.pop().unwrap_or(false);
        self.indent = self.indent.saturating_sub(1);
        if had_members {
            self.newline();
        }
        self.out.push(bracket);
        self
    }

    /// Closes the top level and returns the document (trailing newline
    /// included).
    pub fn finish(mut self) -> String {
        while self.needs_comma.len() > 1 {
            self.close('}');
        }
        self.needs_comma.pop();
        self.indent = 0;
        self.out.push_str("\n}");
        self.out.push('\n');
        self.out
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_renders_deterministically() {
        let mut j = JsonObject::new();
        j.string("schema", "demo/1").u64("n", 3).f64("rate", 0.5);
        j.open_object("inner").u64("x", 1).close_object();
        j.open_array("items");
        j.open_element().string("name", "a").close_object();
        j.element_u64(9);
        j.close_array();
        let text = j.finish();
        assert_eq!(
            text,
            "{\n  \"schema\": \"demo/1\",\n  \"n\": 3,\n  \"rate\": 0.500000,\n  \"inner\": {\n    \"x\": 1\n  },\n  \"items\": [\n    {\n      \"name\": \"a\"\n    },\n    9\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers_close_tight() {
        let mut j = JsonObject::new();
        j.open_object("empty").close_object();
        j.open_array("none").close_array();
        assert_eq!(j.finish(), "{\n  \"empty\": {},\n  \"none\": []\n}\n");
    }

    #[test]
    fn non_finite_floats_are_clamped() {
        assert_eq!(json_f64(f64::NAN), "0.000000");
        assert_eq!(json_f64(f64::INFINITY), "0.000000");
        assert_eq!(json_f64(1.25), "1.250000");
    }
}
