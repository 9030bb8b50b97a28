//! The one command-line parser of the workspace: the bench binaries and
//! the `pmware` CLI both read their flags through [`Args`], without
//! pulling in an argument-parsing crate.
//!
//! Supports `--flag value` and `--flag=value`; everything else is
//! positional. A bench binary names the flags it accepts in
//! [`Args::for_binary`], which refuses anything else before the binary
//! does any work, so a typo never runs a default-sized study in silence.

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

/// Prints `message` as an error and exits with status 2, the bench
/// binaries' code for a bad invocation.
fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

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
                    // Bare flag: a switch, with no value.
                    flags.insert(name.to_owned(), String::new());
                }
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    /// Parses this process's own command line.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// Parses the command line of a binary that takes exactly the flags
    /// `accepted` and no positionals.
    ///
    /// Exits the process with status 2 and a message naming the first
    /// unknown flag (or the stray positional) before the binary does any
    /// work.
    pub fn for_binary(accepted: &[&str]) -> Args {
        let args = Args::from_env();
        if let Err(message) = args.check(accepted) {
            exit_usage(&message);
        }
        args
    }

    /// Checks that every flag given is in `accepted` and has a value (no
    /// bench binary takes a switch), and that there are no positionals;
    /// the error names the first offender.
    fn check(&self, accepted: &[&str]) -> Result<(), String> {
        let takes = if accepted.is_empty() {
            "this binary takes no flags".to_owned()
        } else {
            let names: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
            format!("accepted: {}", names.join(" "))
        };
        if let Some(flag) = self.unknown_flag(accepted) {
            return Err(format!("unknown flag --{flag} ({takes})"));
        }
        let bare = self.flags.iter().filter(|(_, value)| value.is_empty());
        if let Some(flag) = bare.map(|(flag, _)| flag).min() {
            return Err(format!("--{flag} requires a value"));
        }
        if let Some(stray) = self.positional(0) {
            return Err(format!("unexpected argument {stray:?} ({takes})"));
        }
        Ok(())
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

    /// Typed flag with a default, for a bench binary: exits the process
    /// with status 2 naming the flag when the value does not parse — a
    /// bad benchmark invocation fails loudly instead of running with a
    /// silently substituted default.
    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name, default)
            .unwrap_or_else(|e| exit_usage(&e.to_string()))
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
        let args = Args::parse(["--seed", "42", "--failover-at-day", "-1"]);
        assert_eq!(args.get("seed", 0u64).unwrap(), 42);
        assert_eq!(args.get("days", 14u64).unwrap(), 14);
        assert_eq!(args.value("failover-at-day", 1.12f64), -1.0);
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
    fn check_names_the_offender_and_what_is_accepted() {
        let ok = Args::parse(["--days", "2"]);
        assert_eq!(ok.check(&["days", "seed"]), Ok(()));
        let typo = Args::parse(["--dayz", "2"]).check(&["days", "seed"]);
        assert_eq!(
            typo,
            Err("unknown flag --dayz (accepted: --days --seed)".to_owned())
        );
        let flagless = Args::parse(["--seed", "1"]).check(&[]);
        assert_eq!(
            flagless,
            Err("unknown flag --seed (this binary takes no flags)".to_owned())
        );
        let bare = Args::parse(["--days", "--seed", "1"]).check(&["days", "seed"]);
        assert_eq!(bare, Err("--days requires a value".to_owned()));
        let stray = Args::parse(["7"]).check(&["days"]);
        assert!(stray.unwrap_err().starts_with("unexpected argument \"7\""));
    }

    #[test]
    fn empty_input() {
        let args = Args::parse(Vec::<String>::new());
        assert_eq!(args.positional(0), None);
        assert_eq!(args.get("x", 3u32).unwrap(), 3);
        assert_eq!(args.check(&[]), Ok(()));
    }
}
