//! Tiny JSON writer.
//!
//! Responses are built with a two-type builder ([`Obj`]/[`Arr`]) instead of
//! a `Value` tree: the hot `/query` path renders straight into one `String`
//! with no intermediate allocations. String escaping, and the strict reader
//! the `/batch` body goes through, are `et_obs::json` — the workspace's one
//! JSON module.

pub use et_obs::json::escape_into;
use et_obs::json::quote_into;

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
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

    /// An unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
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
            Some(v) => self.buf.push_str(&v.to_string()),
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
        self.buf.push_str(&v.to_string());
        self
    }

    /// Closes the array and returns the rendered JSON.
    pub fn end(self) -> String {
        let mut buf = self.buf;
        buf.push(']');
        buf
    }
}

/// Renders a slice of integers as a JSON array.
pub fn u32_array(values: &[u32]) -> String {
    let mut arr = Arr::new();
    for &v in values {
        arr.u64(u64::from(v));
    }
    arr.end()
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
        assert_eq!(u32_array(&[]), "[]");
        assert_eq!(u32_array(&[3, 1]), "[3,1]");
    }
}
