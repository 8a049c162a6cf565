//! Command-line flag parsing shared by every `hetmem-*` binary and the
//! figure binaries' [`opts_from_args`](crate::opts_from_args).
//!
//! Each binary matches on flag names; the [`Args`] cursor supplies a
//! flag's value and words every usage error the same way, naming the
//! flag (`--mem-ops: expected an integer, got 'abc'`). A usage error
//! ends the process through [`usage_exit`] with the exit code the
//! binary documents.

use std::fmt::Display;
use std::str::FromStr;

/// The most threads or child processes one flag may ask for
/// (`--shards`, `--workers`, `--backends`).
const MAX_SPAWN: usize = 64;

/// A cursor over command-line tokens that remembers the last one it
/// yielded, so a flag's value and its errors can name that flag.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// A cursor over `args` (the command line without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        let rest: Vec<String> = args.into_iter().collect();
        Self {
            rest: rest.into_iter(),
            flag: String::new(),
        }
    }

    /// A cursor over this process's arguments, program name skipped.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// The value of the flag just read, or `<flag> needs a value`.
    pub fn value(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The flag's value split on commas.
    pub fn list(&mut self) -> Result<Vec<String>, String> {
        Ok(self.value()?.split(',').map(str::to_string).collect())
    }

    /// The flag's value parsed with [`FromStr`], or `<flag>: expected an
    /// integer, got '<text>'` (`a number` for floats).
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String> {
        let text = self.value()?;
        text.parse().map_err(|_| {
            let expected = match std::any::type_name::<T>() {
                "f32" | "f64" => "a number",
                _ => "an integer",
            };
            format!("{}: expected {expected}, got '{text}'", self.flag)
        })
    }

    /// As [`parse`](Self::parse), refusing zero with `<flag>: must be
    /// positive`.
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self) -> Result<T, String> {
        let n: T = self.parse()?;
        if n == T::default() {
            return Err(format!("{}: must be positive", self.flag));
        }
        Ok(n)
    }

    /// A thread or process count in `1..=64`, checked before anything is
    /// spawned; a refusal reads `<flag>: must be in 1..=64`.
    pub fn spawn_count(&mut self) -> Result<usize, String> {
        let n: usize = self.parse()?;
        if !(1..=MAX_SPAWN).contains(&n) {
            return Err(format!("{}: must be in 1..={MAX_SPAWN}", self.flag));
        }
        Ok(n)
    }

    /// The flag's value run through `check`, for values with their own
    /// syntax; a refusal reads `<flag> '<text>': <reason>`.
    pub fn parse_with<T, E: Display>(
        &mut self,
        check: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let text = self.value()?;
        check(&text).map_err(|e| format!("{} '{text}': {e}", self.flag))
    }

    /// The error for a token that is no flag this binary knows.
    pub fn unknown(&self) -> String {
        format!("unknown flag {}", self.flag)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

/// Hands each token of `args`, with the cursor for its value, to
/// `flag`; the first error is a usage error (see [`usage_exit`]).
pub fn parse_or_exit(
    bin: &str,
    code: u8,
    mut args: Args,
    mut flag: impl FnMut(String, &mut Args) -> Result<(), String>,
) {
    while let Some(arg) = args.next() {
        if let Err(e) = flag(arg, &mut args) {
            usage_exit(bin, code, &e);
        }
    }
}

/// Prints `<bin>: <msg>` on stderr and exits with `code`, the usage
/// exit code `bin` documents.
pub fn usage_exit(bin: &str, code: u8, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(code.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_and_errors_name_the_flag_just_read() {
        let mut a = args(&["--n", "7", "--x", "1.5", "--list", "a,b", "--bogus"]);
        assert_eq!(a.next().as_deref(), Some("--n"));
        assert_eq!(a.parse::<u64>(), Ok(7));
        a.next();
        assert_eq!(a.parse::<f64>(), Ok(1.5));
        a.next();
        assert_eq!(a.list(), Ok(vec!["a".to_string(), "b".to_string()]));
        a.next();
        assert_eq!(a.unknown(), "unknown flag --bogus");
        assert_eq!(a.value(), Err("--bogus needs a value".to_string()));
        assert_eq!(a.next(), None);
    }

    #[test]
    fn bad_values_are_errors() {
        let mut a = args(&["--mem-ops", "abc", "--rate", "fast", "--batch", "0"]);
        a.next();
        assert_eq!(
            a.parse::<u64>(),
            Err("--mem-ops: expected an integer, got 'abc'".to_string())
        );
        a.next();
        assert_eq!(
            a.parse::<f64>(),
            Err("--rate: expected a number, got 'fast'".to_string())
        );
        a.next();
        assert_eq!(
            a.positive::<usize>(),
            Err("--batch: must be positive".to_string())
        );
        let mut a = args(&["--shards", "65", "--shards", "0", "--shards", "64"]);
        for _ in 0..2 {
            a.next();
            assert_eq!(
                a.spawn_count(),
                Err("--shards: must be in 1..=64".to_string())
            );
        }
        a.next();
        assert_eq!(a.spawn_count(), Ok(64));
        let mut a = args(&["--faults", "x"]);
        a.next();
        assert_eq!(
            a.parse_with(|_| Err::<(), _>("bad key")),
            Err("--faults 'x': bad key".to_string())
        );
    }
}
