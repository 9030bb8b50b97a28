//! A small flag parser — enough for this CLI without an extra dependency.
//!
//! Supports `--flag value` and `--flag=value`; everything else positional.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: positionals in order, flags by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// A flag whose value failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// Flag name (without dashes).
    pub flag: String,
    /// The offending value.
    pub value: String,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid value {:?} for --{} (expected {})",
            self.value, self.flag, self.expected
        )
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I, S>(raw: I) -> Args
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    flags.insert(key.to_owned(), value.to_owned());
                } else if iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false)
                {
                    let value = iter.next().expect("peeked");
                    flags.insert(name.to_owned(), value);
                } else {
                    // Bare flag: boolean true.
                    flags.insert(name.to_owned(), "true".to_owned());
                }
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    /// Positional argument by index.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// Raw flag value.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Whether a boolean flag is set.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// The alphabetically first flag given that is not in `accepted`.
    pub fn unknown_flag(&self, accepted: &[&str]) -> Option<&str> {
        self.flags
            .keys()
            .map(String::as_str)
            .filter(|flag| !accepted.contains(flag))
            .min()
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError {
                flag: name.to_owned(),
                value: raw.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_positionals_and_flags() {
        let args = Args::parse(["study", "--seed", "42", "--days=7", "--verbose"]);
        assert_eq!(args.positional(0), Some("study"));
        assert_eq!(args.flag("seed"), Some("42"));
        assert_eq!(args.flag("days"), Some("7"));
        assert!(args.has("verbose"));
        assert!(!args.has("quiet"));
    }

    #[test]
    fn typed_access_with_defaults() {
        let args = Args::parse(["--seed", "42"]);
        assert_eq!(args.get("seed", 0u64).unwrap(), 42);
        assert_eq!(args.get("days", 14u64).unwrap(), 14);
        let err = Args::parse(["--seed", "forty"])
            .get("seed", 0u64)
            .unwrap_err();
        assert_eq!(err.flag, "seed");
        assert!(err.to_string().contains("forty"));
    }

    #[test]
    fn bare_flag_before_positional() {
        // A bare flag followed by a positional consumes it as a value; the
        // `=` form avoids the ambiguity.
        let args = Args::parse(["--verbose=true", "study"]);
        assert!(args.has("verbose"));
        assert_eq!(args.positional(0), Some("study"));
    }

    #[test]
    fn unknown_flag_is_the_first_not_accepted() {
        let args = Args::parse(["study", "--zeta", "1", "--days", "2", "--alpha"]);
        assert_eq!(args.unknown_flag(&["days", "zeta", "alpha"]), None);
        assert_eq!(args.unknown_flag(&["days"]), Some("alpha"));
    }

    #[test]
    fn empty_input() {
        let args = Args::parse(Vec::<String>::new());
        assert_eq!(args.positional(0), None);
        assert_eq!(args.get("x", 3u32).unwrap(), 3);
    }
}
