//! One flag parser and exit-code contract for the workspace's tools.
//!
//! A tool declares its flags as a `(name, Kind)` table and parses its
//! arguments in one pass with [`Flags::parse`]. `--help`/`-h` prints the
//! usage to stdout and exits 0; a usage error prints a message naming
//! the flag, then the usage, to stderr and exits 2; a failed `--check`
//! exits 1 ([`verdict`]). A flag given twice keeps its last value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::process::{exit, ExitCode};
use std::str::FromStr;

/// How a spec-table entry consumes arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A presence flag such as `--check`.
    Switch,
    /// Takes the next argument as its value, even one starting with `-`.
    Value,
    /// Names the positional operands, which are otherwise an error.
    Operands,
}

pub use Kind::{Operands, Switch, Value};

/// Prints `prog: msg` and the usage to stderr, then exits 2.
pub fn fail(prog: &str, usage: &str, msg: impl Display) -> ! {
    eprintln!("{prog}: {msg}\n{usage}");
    exit(2)
}

/// Ends a run under the `--check` contract: with `check` set, prints
/// `failure` to stderr and exits 1, or prints `check PASSED`; `json`
/// output carries neither line. Without `check` the run exits 0.
pub fn verdict(check: bool, json: bool, failure: Option<String>) -> ExitCode {
    if check && !json {
        match &failure {
            Some(msg) => eprintln!("{msg}"),
            None => println!("check PASSED"),
        }
    }
    ExitCode::from(u8::from(check && failure.is_some()))
}

/// One parsed command line: every flag occurrence in order, and the
/// operands.
#[derive(Debug)]
pub struct Flags<'a> {
    prog: &'a str,
    usage: &'a str,
    seen: Vec<(&'a str, Option<String>)>,
    operands: Vec<String>,
}

impl<'a> Flags<'a> {
    /// Parses `args` (without the program name) against `spec`. Exits 0
    /// after printing the usage on `--help`, and 2 on a usage error.
    pub fn parse(
        prog: &'a str,
        usage: &'a str,
        spec: &[(&'a str, Kind)],
        args: impl IntoIterator<Item = String>,
    ) -> Self {
        Self::read(prog, usage, spec, args).unwrap_or_else(|stop| match stop {
            Some(msg) => fail(prog, usage, msg),
            None => {
                println!("{usage}");
                exit(0)
            }
        })
    }

    /// The one pass; `Err(None)` asks for help, `Err(Some)` carries a
    /// usage error.
    fn read(
        prog: &'a str,
        usage: &'a str,
        spec: &[(&'a str, Kind)],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, Option<String>> {
        let (mut seen, mut operands) = (Vec::new(), Vec::new());
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(None);
            }
            if !arg.starts_with('-') && spec.iter().any(|&(_, kind)| kind == Operands) {
                operands.push(arg);
                continue;
            }
            match spec.iter().find(|&&(name, _)| name == arg) {
                Some(&(name, Switch)) => seen.push((name, None)),
                Some(&(name, _)) => match args.next() {
                    Some(value) => seen.push((name, Some(value))),
                    None => return Err(Some(format!("{name} needs a value"))),
                },
                None => return Err(Some(format!("unknown argument `{arg}`"))),
            }
        }
        Ok(Flags {
            prog,
            usage,
            seen,
            operands,
        })
    }

    /// Prints `msg` and the usage to stderr, then exits 2: for the rules
    /// a tool checks across flags.
    pub fn fail(&self, msg: impl Display) -> ! {
        fail(self.prog, self.usage, msg)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.seen.iter().any(|(name, _)| *name == flag)
    }

    /// The positional operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Every value of a repeatable `flag`, parsed, in order.
    pub fn all<T: FromStr>(&self, flag: &str) -> Vec<T> {
        self.values(flag)
            .map(|raw| self.ok(check(flag, raw, |_| true, "")))
            .collect()
    }

    /// The last value of `flag`, parsed; `None` when it was not given.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.last(flag, |_| true, "")
    }

    /// The last value of `flag`, parsed, or `default`.
    pub fn or<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.get(flag).unwrap_or(default)
    }

    /// [`or`](Self::or) for a value that must be a finite number above
    /// zero (at least 1 for integers).
    pub fn positive<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.last(flag, positive, "positive").unwrap_or(default)
    }

    /// [`or`](Self::or) for a value that must be a finite number.
    pub fn finite<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.last(flag, finite, "finite").unwrap_or(default)
    }

    /// The last value of `flag` as a comma-separated list of finite
    /// numbers, or `default`.
    pub fn finite_list(&self, flag: &str, default: Vec<f64>) -> Vec<f64> {
        self.values(flag).last().map_or(default, |list| {
            list.split(',')
                .map(|item| self.ok(check(flag, item.trim(), finite, "finite")))
                .collect()
        })
    }

    fn last<T: FromStr>(&self, flag: &str, ok: fn(&str) -> bool, what: &str) -> Option<T> {
        let raw = self.values(flag).last()?;
        Some(self.ok(check(flag, raw, ok, what)))
    }

    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'s str> {
        self.seen
            .iter()
            .filter(move |(name, _)| *name == flag)
            .filter_map(|(_, value)| value.as_deref())
    }

    fn ok<T>(&self, result: Result<T, String>) -> T {
        result.unwrap_or_else(|msg| self.fail(msg))
    }
}

// The range rules read a value as a real number, so one rule serves
// integer and float flags alike.

fn positive(raw: &str) -> bool {
    raw.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0)
}

fn finite(raw: &str) -> bool {
    raw.parse::<f64>().is_ok_and(f64::is_finite)
}

/// Parses `raw` as `flag`'s value, which must also pass `ok`.
fn check<T: FromStr>(flag: &str, raw: &str, ok: fn(&str) -> bool, what: &str) -> Result<T, String> {
    match raw.parse() {
        Ok(value) if ok(raw) => Ok(value),
        Ok(_) => Err(format!("{flag} must be {what}, got `{raw}`")),
        Err(_) => Err(format!("bad value `{raw}` for {flag}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &[(&str, Kind)] = &[
        ("--temps", Value),
        ("--addr", Value),
        ("--count", Value),
        ("--check", Switch),
        ("FILE", Operands),
    ];

    fn read(
        spec: &[(&'static str, Kind)],
        args: &[&str],
    ) -> Result<Flags<'static>, Option<String>> {
        Flags::read("t", "usage", spec, args.iter().map(|a| a.to_string()))
    }

    fn flags(args: &[&str]) -> Flags<'static> {
        read(SPEC, args).expect("valid command line")
    }

    #[test]
    fn a_value_may_start_with_a_dash() {
        let f = flags(&["--temps", "-50,27,150", "--count", "-h"]);
        assert_eq!(f.finite_list("--temps", vec![0.0]), [-50.0, 27.0, 150.0]);
        assert_eq!(f.get::<String>("--count").as_deref(), Some("-h"));
    }

    #[test]
    fn the_last_occurrence_wins() {
        let f = flags(&["--count", "1", "--check", "--count", "7"]);
        assert_eq!(f.or("--count", 0u64), 7);
        assert!(f.has("--check"));
        assert_eq!(f.get::<u64>("--temps"), None);
        assert_eq!(f.or("--temps", 2.5), 2.5);
    }

    #[test]
    fn all_returns_every_occurrence_of_a_repeatable_flag() {
        let f = flags(&["--addr", "a:1", "x.toml", "--addr", "b:2"]);
        assert_eq!(f.all::<String>("--addr"), ["a:1", "b:2"]);
        assert_eq!(f.operands(), ["x.toml"]);
        assert!(f.all::<String>("--temps").is_empty());
    }

    #[test]
    fn a_missing_value_is_a_usage_error_naming_the_flag() {
        let err = read(SPEC, &["--check", "--count"]).unwrap_err();
        assert_eq!(err.as_deref(), Some("--count needs a value"));
    }

    #[test]
    fn an_unknown_flag_or_operand_is_a_usage_error_naming_it() {
        let err = read(SPEC, &["--check", "--bogus", "1"]).unwrap_err();
        assert_eq!(err.as_deref(), Some("unknown argument `--bogus`"));
        let err = read(&[("--check", Switch)], &["x.toml"]).unwrap_err();
        assert_eq!(err.as_deref(), Some("unknown argument `x.toml`"));
        // The operands entry names no flag.
        let err = read(SPEC, &["--FILE"]).unwrap_err();
        assert_eq!(err.as_deref(), Some("unknown argument `--FILE`"));
    }

    #[test]
    fn help_after_other_arguments_stops_the_parse() {
        for args in [
            &["--check", "--count", "x", "--help"][..],
            &["a.toml", "-h"],
        ] {
            assert_eq!(read(SPEC, args).unwrap_err(), None, "{args:?}");
        }
    }

    #[test]
    fn positive_rejects_zero_nan_and_infinity() {
        for raw in ["0", "-1e-9", "nan", "inf", "-inf", "1e400"] {
            let err = check::<f64>("--rate", raw, positive, "positive").unwrap_err();
            assert_eq!(err, format!("--rate must be positive, got `{raw}`"));
        }
        assert!(check::<u64>("--count", "0", positive, "positive").is_err());
        assert_eq!(check::<u64>("--count", "3", positive, "positive"), Ok(3));
        assert_eq!(
            check::<f64>("--rate", "1e-9", positive, "positive"),
            Ok(1e-9)
        );
    }

    #[test]
    fn finite_rejects_nan_and_infinity() {
        for raw in ["nan", "NaN", "inf", "-infinity"] {
            assert!(
                check::<f64>("--junction", raw, finite, "finite").is_err(),
                "{raw}"
            );
        }
        assert_eq!(
            check::<f64>("--junction", "-40", finite, "finite"),
            Ok(-40.0)
        );
    }

    #[test]
    fn an_unparsable_value_names_the_flag() {
        let err = check::<u64>("--count", "many", |_| true, "").unwrap_err();
        assert_eq!(err, "bad value `many` for --count");
        // A number out of the type's range is unparsable, not clamped.
        assert!(check::<u64>("--count", "-1", positive, "positive").is_err());
    }
}
