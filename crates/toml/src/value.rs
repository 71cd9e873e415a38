//! The parsed document model: spanned values and tables with typed,
//! line-diagnosing accessors.

use crate::error::Error;

/// A value plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<T> {
    /// The wrapped value.
    pub value: T,
    /// 1-based source line of the value (its key's line for pairs).
    pub line: u32,
}

impl<T> Spanned<T> {
    /// Wraps `value` with its source line.
    pub fn new(value: T, line: u32) -> Self {
        Self { value, line }
    }

    /// An [`Error`] pinned to this value's line.
    pub fn error(&self, message: impl Into<String>) -> Error {
        Error::new(self.line, message)
    }
}

/// A TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic or literal string.
    Str(String),
    /// An integer (decimal, `0x`, `0o` or `0b`).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array; also the representation of an `[[array.of.tables]]`.
    Array(Vec<Spanned<Value>>),
    /// A nested table.
    Table(Table),
}

impl Value {
    /// The value's type name as used in diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// A TOML table: ordered `key = value` entries plus nested tables.
///
/// All typed accessors come in two flavours — `opt_*` returns
/// `Ok(None)` for an absent key, `req_*` turns absence into an
/// [`Error`] — and every type mismatch is reported with the offending
/// line:
///
/// ```
/// let t = resim_toml::parse("width = 4\nname = \"a\"").unwrap();
/// assert_eq!(t.opt_usize("width").unwrap(), Some(4));
/// assert_eq!(t.opt_usize("absent").unwrap(), None);
/// let err = t.req_usize("name").unwrap_err();
/// assert_eq!(err.line(), 2);
/// assert!(err.to_string().contains("expected integer"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    entries: Vec<(Spanned<String>, Spanned<Value>)>,
    /// Line of the `[header]` that opened this table (0 for the root).
    line: u32,
}

impl Table {
    /// Creates an empty table opened at `line` (0 for the root).
    pub fn new(line: u32) -> Self {
        Self {
            entries: Vec::new(),
            line,
        }
    }

    /// The line of this table's `[header]` (0 for the root table).
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Number of direct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The keys in document order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.value.as_str())
    }

    /// Looks up a direct entry.
    pub fn get(&self, key: &str) -> Option<&Spanned<Value>> {
        self.entries
            .iter()
            .find(|(k, _)| k.value == key)
            .map(|(_, v)| v)
    }

    /// Inserts an entry; used by the parser.
    ///
    /// # Errors
    ///
    /// Rejects duplicate keys with the line of the second definition.
    pub(crate) fn insert(
        &mut self,
        key: Spanned<String>,
        value: Spanned<Value>,
    ) -> Result<(), Error> {
        if self.get(&key.value).is_some() {
            return Err(key.error(format!("duplicate key {:?}", key.value)));
        }
        self.entries.push((key, value));
        Ok(())
    }

    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut Spanned<Value>> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k.value == key)
            .map(|(_, v)| v)
    }

    /// Errors on any key outside `allowed` — the typo guard every
    /// `from_table` constructor runs before reading its keys.
    pub fn ensure_only(&self, allowed: &[&str]) -> Result<(), Error> {
        for (k, _) in &self.entries {
            if !allowed.contains(&k.value.as_str()) {
                return Err(k.error(format!(
                    "unknown key {:?} (expected one of: {})",
                    k.value,
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// An [`Error`] pinned to this table's header line.
    pub fn error(&self, message: impl Into<String>) -> Error {
        Error::new(self.line, message)
    }

    fn missing(&self, key: &str, what: &str) -> Error {
        self.error(format!("missing required {what} key {key:?}"))
    }

    // --- typed accessors -------------------------------------------------

    /// Optional string.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, Error> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match &v.value {
                Value::Str(s) => Ok(Some(s)),
                other => Err(v.error(format!(
                    "key {key:?}: expected string, found {}",
                    other.type_name()
                ))),
            },
        }
    }

    /// Required string.
    pub fn req_str(&self, key: &str) -> Result<&str, Error> {
        self.opt_str(key)?
            .ok_or_else(|| self.missing(key, "string"))
    }

    /// Optional integer.
    pub fn opt_i64(&self, key: &str) -> Result<Option<i64>, Error> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.value {
                Value::Int(i) => Ok(Some(i)),
                ref other => Err(v.error(format!(
                    "key {key:?}: expected integer, found {}",
                    other.type_name()
                ))),
            },
        }
    }

    /// Optional non-negative integer as `u64`.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, Error> {
        match self.opt_i64(key)? {
            None => Ok(None),
            Some(i) => u64::try_from(i).map(Some).map_err(|_| {
                self.value_error(key, format!("key {key:?} must be non-negative, got {i}"))
            }),
        }
    }

    /// Required non-negative integer as `u64`.
    pub fn req_u64(&self, key: &str) -> Result<u64, Error> {
        self.opt_u64(key)?
            .ok_or_else(|| self.missing(key, "integer"))
    }

    /// Optional non-negative integer as `usize` (range-checked, so
    /// 32-bit targets diagnose rather than truncate).
    pub fn opt_usize(&self, key: &str) -> Result<Option<usize>, Error> {
        match self.opt_u64(key)? {
            None => Ok(None),
            Some(v) => usize::try_from(v).map(Some).map_err(|_| {
                self.value_error(
                    key,
                    format!("key {key:?}: {v} does not fit in this platform's usize"),
                )
            }),
        }
    }

    /// Required non-negative integer as `usize`.
    pub fn req_usize(&self, key: &str) -> Result<usize, Error> {
        self.opt_usize(key)?
            .ok_or_else(|| self.missing(key, "integer"))
    }

    /// Optional non-negative integer as `u32`.
    pub fn opt_u32(&self, key: &str) -> Result<Option<u32>, Error> {
        match self.opt_u64(key)? {
            None => Ok(None),
            Some(v) => u32::try_from(v).map(Some).map_err(|_| {
                self.value_error(key, format!("key {key:?}: {v} does not fit in 32 bits"))
            }),
        }
    }

    /// Optional float (integers are accepted and widened).
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, Error> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.value {
                Value::Float(f) => Ok(Some(f)),
                Value::Int(i) => Ok(Some(i as f64)),
                ref other => Err(v.error(format!(
                    "key {key:?}: expected float, found {}",
                    other.type_name()
                ))),
            },
        }
    }

    /// Optional boolean.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, Error> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.value {
                Value::Bool(b) => Ok(Some(b)),
                ref other => Err(v.error(format!(
                    "key {key:?}: expected boolean, found {}",
                    other.type_name()
                ))),
            },
        }
    }

    /// Optional raw array.
    pub fn opt_array(&self, key: &str) -> Result<Option<&[Spanned<Value>]>, Error> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match &v.value {
                Value::Array(items) => Ok(Some(items)),
                other => Err(v.error(format!(
                    "key {key:?}: expected array, found {}",
                    other.type_name()
                ))),
            },
        }
    }

    /// Optional array of strings, each with its source line.
    pub fn opt_str_array(&self, key: &str) -> Result<Option<Vec<Spanned<String>>>, Error> {
        let Some(items) = self.opt_array(key)? else {
            return Ok(None);
        };
        items
            .iter()
            .map(|it| match &it.value {
                Value::Str(s) => Ok(Spanned::new(s.clone(), it.line)),
                other => Err(it.error(format!(
                    "key {key:?}: expected an array of strings, found {} element",
                    other.type_name()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
    }

    /// Optional array of non-negative integers.
    pub fn opt_u64_array(&self, key: &str) -> Result<Option<Vec<u64>>, Error> {
        let Some(items) = self.opt_array(key)? else {
            return Ok(None);
        };
        items
            .iter()
            .map(|it| match it.value {
                Value::Int(i) => u64::try_from(i).map_err(|_| {
                    it.error(format!("key {key:?}: array element must be non-negative"))
                }),
                ref other => Err(it.error(format!(
                    "key {key:?}: expected an array of integers, found {} element",
                    other.type_name()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
    }

    /// Optional array of non-negative integers as `usize`
    /// (range-checked like [`Table::opt_usize`]).
    pub fn opt_usize_array(&self, key: &str) -> Result<Option<Vec<usize>>, Error> {
        match self.opt_u64_array(key)? {
            None => Ok(None),
            Some(values) => values
                .into_iter()
                .map(|v| {
                    usize::try_from(v).map_err(|_| {
                        self.value_error(
                            key,
                            format!("key {key:?}: {v} does not fit in this platform's usize"),
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    }

    /// Optional nested table.
    pub fn opt_table(&self, key: &str) -> Result<Option<&Table>, Error> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match &v.value {
                Value::Table(t) => Ok(Some(t)),
                other => Err(v.error(format!(
                    "key {key:?}: expected table, found {}",
                    other.type_name()
                ))),
            },
        }
    }

    /// The tables of an `[[array.of.tables]]` entry, empty when absent.
    ///
    /// A plain (non-table) array under `key` is an error.
    pub fn table_array(&self, key: &str) -> Result<Vec<&Table>, Error> {
        let Some(items) = self.opt_array(key)? else {
            return Ok(Vec::new());
        };
        items
            .iter()
            .map(|it| match &it.value {
                Value::Table(t) => Ok(t),
                other => Err(it.error(format!(
                    "key {key:?}: expected an array of tables, found {} element",
                    other.type_name()
                ))),
            })
            .collect()
    }

    /// Line of the value stored under `key` (the table's line if absent).
    pub fn key_line(&self, key: &str) -> u32 {
        self.get(key).map_or(self.line, |v| v.line)
    }

    fn value_error(&self, key: &str, message: String) -> Error {
        Error::new(self.key_line(key), message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        crate::parse(
            r#"name = "gzip"
width = 4
neg = -3
frac = 0.5
flag = true
seeds = [1, 2, 3]
names = ["a", "b"]
[sub]
x = 1
"#,
        )
        .unwrap()
    }

    #[test]
    fn typed_accessors() {
        let t = table();
        assert_eq!(t.req_str("name").unwrap(), "gzip");
        assert_eq!(t.req_usize("width").unwrap(), 4);
        assert_eq!(t.opt_i64("neg").unwrap(), Some(-3));
        assert_eq!(t.opt_f64("frac").unwrap(), Some(0.5));
        assert_eq!(t.opt_f64("width").unwrap(), Some(4.0), "ints widen");
        assert_eq!(t.opt_bool("flag").unwrap(), Some(true));
        assert_eq!(t.opt_u64_array("seeds").unwrap().unwrap(), vec![1, 2, 3]);
        let names = t.opt_str_array("names").unwrap().unwrap();
        assert_eq!(names[1].value, "b");
        assert_eq!(
            t.opt_table("sub").unwrap().unwrap().req_usize("x").unwrap(),
            1
        );
    }

    #[test]
    fn absent_keys_are_none_or_missing() {
        let t = table();
        assert_eq!(t.opt_str("absent").unwrap(), None);
        assert_eq!(t.opt_table("absent").unwrap(), None);
        assert!(t.table_array("absent").unwrap().is_empty());
        let err = t.req_str("absent").unwrap_err();
        assert!(err.to_string().contains("missing required"));
    }

    #[test]
    fn type_mismatches_carry_lines() {
        let t = table();
        assert_eq!(t.req_usize("name").unwrap_err().line(), 1);
        assert_eq!(t.req_str("width").unwrap_err().line(), 2);
        assert_eq!(t.opt_u64("neg").unwrap_err().line(), 3);
        assert_eq!(t.opt_bool("frac").unwrap_err().line(), 4);
        assert_eq!(t.opt_array("flag").unwrap_err().line(), 5);
        assert!(t
            .opt_str_array("seeds")
            .unwrap_err()
            .to_string()
            .contains("array of strings"));
    }

    #[test]
    fn ensure_only_flags_typos() {
        let t = table();
        let err = t
            .ensure_only(&["name", "width", "neg", "frac", "flag", "seeds", "sub"])
            .unwrap_err();
        assert_eq!(err.line(), 7);
        assert!(err.to_string().contains("unknown key \"names\""), "{err}");
        assert!(t
            .ensure_only(&["name", "width", "neg", "frac", "flag", "seeds", "names", "sub"])
            .is_ok());
    }

    #[test]
    fn u32_range_is_checked() {
        let t = crate::parse("big = 4294967296").unwrap();
        assert!(t
            .opt_u32("big")
            .unwrap_err()
            .to_string()
            .contains("32 bits"));
        let t = crate::parse("ok = 4294967295").unwrap();
        assert_eq!(t.opt_u32("ok").unwrap(), Some(u32::MAX));
    }
}
