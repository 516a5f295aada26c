//! The one tokenizer behind every `key=value` spec grammar; DESIGN.md §11
//! lists the grammars and the rules [`Fields`] enforces for all of them.
//! Errors are built by the calling grammar's own constructor, and fields
//! borrow from the input, so tokenizing allocates nothing.

use std::fmt::Display;
use std::str::FromStr;

/// The `key=value` fields of one spec string, already split on its
/// grammar's separator, checked against the keys the grammar declares. The
/// readers (`parse`, `bounded`, `seed`) read the field returned last.
#[derive(Debug)]
pub struct Fields<'a, I, F> {
    raw: I,
    keys: &'static [&'static str],
    repeatable: &'static [&'static str],
    /// Bit `i` is set once `keys[i]` has been read.
    seen: u64,
    key: &'a str,
    value: &'a str,
    error: F,
}

impl<'a, I: Iterator<Item = &'a str>, E, F: Fn(String) -> E> Fields<'a, I, F> {
    /// Tokenizes `raw` against the declared `keys` (at most 64); `error`
    /// builds the grammar's own error from a reason.
    pub fn new(raw: I, keys: &'static [&'static str], error: F) -> Self {
        Fields { raw, keys, repeatable: &[], seen: 0, key: "", value: "", error }
    }

    /// Declares the keys that may appear more than once.
    pub fn repeatable(self, repeatable: &'static [&'static str]) -> Self {
        Fields { repeatable, ..self }
    }

    /// Advances to the next non-empty field and returns its trimmed key
    /// (always a declared one) and value, or `None` at the end. Fails on a
    /// field that is not `key=value`, or on an undeclared or repeated key.
    pub fn next_field(&mut self) -> Result<Option<(&'a str, &'a str)>, E> {
        let Some(field) = self.raw.by_ref().map(str::trim).find(|f| !f.is_empty()) else {
            return Ok(None);
        };
        let Some((key, value)) = field.split_once('=') else {
            return Err(self.error(format!("expected key=value, got `{field}`")));
        };
        (self.key, self.value) = (key.trim(), value.trim());
        let Some(bit) = self.keys.iter().position(|k| *k == self.key).map(|i| 1 << i) else {
            return Err(self.error(format!("unknown key `{}`", self.key)));
        };
        if self.seen & bit != 0 && !self.repeatable.contains(&self.key) {
            return Err(self.error(format!("duplicate key `{}`", self.key)));
        }
        self.seen |= bit;
        Ok(Some((self.key, self.value)))
    }

    /// Fails, naming the first declared key that was never read.
    pub fn require_all(&self) -> Result<(), E> {
        match (0..self.keys.len()).find(|i| self.seen & (1 << i) == 0) {
            Some(i) => Err(self.error(format!("missing required field `{}`", self.keys[i]))),
            None => Ok(()),
        }
    }

    /// Builds the grammar's error from `reason`.
    pub fn error(&self, reason: String) -> E {
        (self.error)(reason)
    }

    /// Parses the value with [`FromStr`].
    pub fn parse<T: FromStr>(&self) -> Result<T, E> {
        self.value.parse().map_err(|_| self.invalid(String::new()))
    }

    /// Reads the value as a decimal number no larger than `max`.
    pub fn bounded<T: FromStr + PartialOrd + Display + Copy>(&self, max: T) -> Result<T, E> {
        bounded(self.value, max).ok_or_else(|| self.invalid(format!(" (max {max})")))
    }

    /// Reads the value as a seed: decimal, or hex after `0x`.
    pub fn seed(&self) -> Result<u64, E> {
        seed(self.value).ok_or_else(|| self.invalid(String::new()))
    }

    fn invalid(&self, detail: String) -> E {
        self.error(format!("invalid `{}` value `{}`{detail}", self.key, self.value))
    }
}

/// Reads a decimal number no larger than `max`.
pub fn bounded<T: FromStr + PartialOrd>(value: &str, max: T) -> Option<T> {
    value.parse().ok().filter(|n| *n <= max)
}

/// Splits `value` into two numbers around `sep`, as in `0-1` or `32x4`.
pub fn pair<T: FromStr>(value: &str, sep: char) -> Option<(T, T)> {
    let (a, b) = value.split_once(sep)?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

/// Reads a seed: decimal, or hex after a `0x`/`0X` prefix.
pub fn seed(value: &str) -> Option<u64> {
    match value.strip_prefix("0x").or_else(|| value.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

/// Looks `label` up in a table of `|`-separated spellings, ignoring
/// surrounding whitespace and ASCII case.
pub fn lookup<T: Copy>(label: &str, table: &[(&str, T)]) -> Option<T> {
    let label = label.trim();
    table.iter().find(|(s, _)| s.split('|').any(|s| s.eq_ignore_ascii_case(label))).map(|&(_, v)| v)
}
