//! Tiny JSON writer.
//!
//! Responses are built with a two-type builder ([`Obj`]/[`Arr`]) instead of
//! a `Value` tree: numbers are formatted into the buffer itself (no `String`
//! per integer), and a large array — the vertex lists of `/query?members=1`
//! — is rendered in place by [`Obj::with`] instead of being built aside and
//! copied in. String escaping, and the strict reader the `/batch` body goes
//! through, are `et_obs::json` — the workspace's one JSON module.

pub use et_obs::json::escape_into;
use et_obs::json::quote_into;
use std::fmt::Write;

fn push_u64(out: &mut String, v: u64) {
    write!(out, "{v}").expect("writing to a String cannot fail");
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Appends a JSON array to `out`, each element written by `render`.
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut render: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render(out, item);
    }
    out.push(']');
}

/// Appends a slice of integers to `out` as a JSON array.
pub fn push_u32_array(out: &mut String, values: &[u32]) {
    push_array(out, values, |out, &v| push_u64(out, u64::from(v)));
}

/// Builds a JSON object field by field.
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        quote_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// A field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, raw_json: &str) -> Self {
        self.key(key);
        self.buf.push_str(raw_json);
        self
    }

    /// A field whose value `render` writes straight into the object's
    /// buffer; it must append exactly one JSON value.
    pub fn with(mut self, key: &str, render: impl FnOnce(&mut String)) -> Self {
        self.key(key);
        render(&mut self.buf);
        self
    }

    /// An unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        push_u64(&mut self.buf, v);
        self
    }

    /// A float field (`null` when non-finite).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        push_f64(&mut self.buf, v);
        self
    }

    /// A boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// A string field (escaped).
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        quote_into(&mut self.buf, v);
        self
    }

    /// An optional unsigned integer field (`null` when absent).
    pub fn u64_opt(mut self, key: &str, v: Option<u64>) -> Self {
        self.key(key);
        match v {
            Some(v) => push_u64(&mut self.buf, v),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Closes the object and returns the rendered JSON.
    pub fn end(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Builds a JSON array element by element.
#[derive(Debug)]
pub struct Arr {
    buf: String,
    first: bool,
}

impl Default for Arr {
    fn default() -> Self {
        Arr::new()
    }
}

impl Arr {
    /// Starts an empty array.
    pub fn new() -> Self {
        Arr {
            buf: String::from("["),
            first: true,
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
    }

    /// Appends already-rendered JSON.
    pub fn raw(&mut self, raw_json: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(raw_json);
        self
    }

    /// Appends an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_u64(&mut self.buf, v);
        self
    }

    /// Closes the array and returns the rendered JSON.
    pub fn end(self) -> String {
        let mut buf = self.buf;
        buf.push(']');
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_and_arrays_render() {
        let inner = Obj::new().u64("a", 1).bool("b", true).end();
        assert_eq!(inner, r#"{"a":1,"b":true}"#);
        let mut arr = Arr::new();
        arr.u64(1).u64(2).raw(&inner);
        let doc = Obj::new()
            .str("name", "x")
            .raw("items", &arr.end())
            .u64_opt("none", None)
            .f64("f", 1.5)
            .end();
        assert_eq!(
            doc,
            r#"{"name":"x","items":[1,2,{"a":1,"b":true}],"none":null,"f":1.5}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let doc = Obj::new().str("m", "a\"b\\c\nd\u{1}").end();
        assert_eq!(doc, "{\"m\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Obj::new().f64("x", f64::NAN).end(), r#"{"x":null}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Obj::new().end(), "{}");
        assert_eq!(Arr::new().end(), "[]");
        let mut out = String::new();
        push_u32_array(&mut out, &[]);
        push_u32_array(&mut out, &[3, 1]);
        assert_eq!(out, "[][3,1]");
    }
}
