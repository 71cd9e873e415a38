//! Key tables: the keys a section may carry, each with the kind of
//! value it takes and its parse-time range, checked in one pass by
//! [`Table::check`].
//!
//! Every scenario section declares one such table (`ENGINE_KEYS`,
//! `CACHE_KEYS`, …) next to its `from_table` constructor, so a key's
//! name, type and limit are written down once.

use crate::error::Error;
use crate::value::{Spanned, Table, Value};

/// One key a table may carry: its name and the kind of value it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(pub &'static str, pub Kind);

/// The kind of value a [`Key`] takes, with its parse-time limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A string.
    Str,
    /// A boolean.
    Bool,
    /// A non-negative integer in `min..=max`.
    Int(u64, u64),
    /// A power of two in `min..=max`.
    Pow2(u64, u64),
    /// An array of non-negative integers, each at most `max`.
    Ints(u64),
    /// An array of strings.
    Strs,
    /// A nested table.
    Table,
    /// An `[[array.of.tables]]`.
    Tables,
    /// Any value: a key with a union type, which its parser checks.
    Any,
}

impl Kind {
    /// Any non-negative integer.
    pub const U64: Kind = Kind::Int(0, u64::MAX);
}

impl Key {
    /// Checks one value against this key's kind and range, with the
    /// messages of the typed [`Table`] accessors.
    fn check(self, v: &Spanned<Value>) -> Result<(), Error> {
        let Key(name, kind) = self;
        let (expected, items) = match (kind, &v.value) {
            (Kind::Int(min, max) | Kind::Pow2(min, max), &Value::Int(i)) => {
                let message = match u64::try_from(i) {
                    Err(_) => format!("key {name:?} must be non-negative, got {i}"),
                    Ok(u) if matches!(kind, Kind::Pow2(..)) && !u.is_power_of_two() => {
                        format!("key {name:?}: {u} must be a power of two")
                    }
                    Ok(u) if u < min => format!("key {name:?} must be at least {min}, got {u}"),
                    Ok(u) if u > max => format!("key {name:?}: {u} exceeds the maximum of {max}"),
                    Ok(_) => return Ok(()),
                };
                return Err(v.error(message));
            }
            (Kind::Ints(_), Value::Array(items)) => ("integers", items),
            (Kind::Strs, Value::Array(items)) => ("strings", items),
            (Kind::Tables, Value::Array(items)) => ("tables", items),
            (Kind::Any, _)
            | (Kind::Str, Value::Str(_))
            | (Kind::Bool, Value::Bool(_))
            | (Kind::Table, Value::Table(_)) => return Ok(()),
            (_, other) => {
                let expected = match kind {
                    Kind::Str => "string",
                    Kind::Bool => "boolean",
                    Kind::Int(..) | Kind::Pow2(..) => "integer",
                    Kind::Table => "table",
                    _ => "array",
                };
                let found = other.type_name();
                return Err(v.error(format!("key {name:?}: expected {expected}, found {found}")));
            }
        };
        for it in items {
            let message = match (kind, &it.value) {
                (Kind::Ints(_), &Value::Int(i)) if i < 0 => {
                    format!("key {name:?}: array element must be non-negative")
                }
                (Kind::Ints(max), &Value::Int(i)) if i.unsigned_abs() > max => {
                    let message = format!("key {name:?}: {i} exceeds the maximum of {max}");
                    return Err(v.error(message));
                }
                (Kind::Ints(_), Value::Int(_))
                | (Kind::Strs, Value::Str(_))
                | (Kind::Tables, Value::Table(_)) => continue,
                (_, other) => format!(
                    "key {name:?}: expected an array of {expected}, found {} element",
                    other.type_name()
                ),
            };
            return Err(it.error(message));
        }
        Ok(())
    }
}

impl Table {
    /// Checks every entry against `keys`: an unknown key first (the
    /// typo guard), then each value's type and parse-time range, each
    /// reported at its line. Absent keys are not checked; required
    /// keys and cross-field rules stay with the section's parser.
    ///
    /// ```
    /// use resim_toml::{Key, Kind};
    ///
    /// const KEYS: &[Key] = &[Key("name", Kind::Str), Key("ways", Kind::Int(1, 16))];
    /// let t = resim_toml::parse("name = \"a\"\nways = 32").unwrap();
    /// let err = t.check(KEYS).unwrap_err();
    /// assert_eq!(err.line(), 2);
    /// assert_eq!(err.message(), "key \"ways\": 32 exceeds the maximum of 16");
    /// let t = resim_toml::parse("name = \"a\"\nwyas = 4").unwrap();
    /// let err = t.check(KEYS).unwrap_err();
    /// assert_eq!(err.message(), "unknown key \"wyas\" (expected one of: name, ways)");
    /// ```
    ///
    /// # Errors
    ///
    /// A line-numbered [`Error`] for the first unknown key, else the
    /// first value of the wrong type or out of range.
    pub fn check(&self, keys: &[Key]) -> Result<(), Error> {
        let find = |k: &Spanned<String>| keys.iter().find(|key| key.0 == k.value);
        if let Some((k, _)) = self.entries().find(|(k, _)| find(k).is_none()) {
            let names: Vec<&str> = keys.iter().map(|key| key.0).collect();
            let (key, names) = (&k.value, names.join(", "));
            return Err(k.error(format!("unknown key {key:?} (expected one of: {names})")));
        }
        self.entries()
            .try_for_each(|(k, v)| find(k).map_or(Ok(()), |key| key.check(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[Key] = &[
        Key("name", Kind::Str),
        Key("flag", Kind::Bool),
        Key("ways", Kind::Int(1, 16)),
        Key("size", Kind::Pow2(4, 1024)),
        Key("budgets", Kind::Ints(100)),
        Key("names", Kind::Strs),
        Key("sub", Kind::Table),
        Key("rows", Kind::Tables),
        Key("slots", Kind::Any),
    ];

    fn check(s: &str) -> Result<(), Error> {
        crate::parse(s).unwrap().check(KEYS)
    }

    fn message(s: &str) -> String {
        check(s).unwrap_err().message().to_string()
    }

    #[test]
    fn well_formed_tables_pass() {
        check(
            "name = \"a\"\nflag = true\nways = 16\nsize = 4\nbudgets = [0, 100]\n\
             names = [\"x\"]\nslots = [0, \"i\"]\n[sub]\nz = 1\n[[rows]]\n[[rows]]",
        )
        .unwrap();
        check("").unwrap();
    }

    #[test]
    fn unknown_keys_come_first_and_list_the_table() {
        let err = check("ways = 0\nwyas = 4").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(
            err.message(),
            "unknown key \"wyas\" (expected one of: name, flag, ways, size, budgets, \
             names, sub, rows, slots)"
        );
    }

    #[test]
    fn type_mismatches_match_the_typed_accessors() {
        type Accessor = fn(&Table) -> Error;
        let cases: [(&str, Accessor); 10] = [
            ("name = 1", |t| t.opt_str("name").unwrap_err()),
            ("flag = 1", |t| t.opt_bool("flag").unwrap_err()),
            ("ways = \"x\"", |t| t.opt_i64("ways").unwrap_err()),
            ("ways = -3", |t| t.opt_u64("ways").unwrap_err()),
            ("sub = 1", |t| t.opt_table("sub").unwrap_err()),
            ("names = 1", |t| t.opt_array("names").unwrap_err()),
            ("budgets = [1, \"a\"]", |t| {
                t.opt_u64_array("budgets").unwrap_err()
            }),
            ("budgets = [-1]", |t| {
                t.opt_u64_array("budgets").unwrap_err()
            }),
            ("names = [\"a\", 2]", |t| {
                t.opt_str_array("names").unwrap_err()
            }),
            ("rows = [1]", |t| t.table_array("rows").unwrap_err()),
        ];
        for (doc, accessor) in cases {
            let t = crate::parse(&format!("\n{doc}")).unwrap();
            assert_eq!(t.check(KEYS).unwrap_err(), accessor(&t), "{doc}");
        }
    }

    #[test]
    fn ranges_are_checked_at_the_key_line() {
        assert_eq!(
            message("ways = 0"),
            "key \"ways\" must be at least 1, got 0"
        );
        assert_eq!(
            message("ways = 17"),
            "key \"ways\": 17 exceeds the maximum of 16"
        );
        assert_eq!(
            message("size = 6"),
            "key \"size\": 6 must be a power of two"
        );
        assert_eq!(
            message("size = 0"),
            "key \"size\": 0 must be a power of two"
        );
        assert_eq!(
            message("size = 2"),
            "key \"size\" must be at least 4, got 2"
        );
        assert_eq!(
            message("size = 2048"),
            "key \"size\": 2048 exceeds the maximum of 1024"
        );
        let err = check("name = \"a\"\nbudgets = [1,\n  101]").unwrap_err();
        assert_eq!(err.line(), 2, "array ranges point at the key");
        assert_eq!(
            err.message(),
            "key \"budgets\": 101 exceeds the maximum of 100"
        );
    }
}
