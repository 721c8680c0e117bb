//! The flag grammar `simulate` and `experiment` share: `--flag VALUE`
//! pairs and bare switches, each binary declaring its own once — the usage
//! line is rendered from the declaration, so the two cannot drift apart.
//!
//! An unknown argument, a value flag at the end of the line, a flag given
//! twice and `--flag=value` are usage errors, so a typo cannot silently run
//! the default experiment: `error: …`, the usage line, exit code 2.

use std::str::FromStr;

/// A command line checked against one binary's declared flags.
pub struct Cli {
    /// Every flag given, in order, with the value of a value flag; no flag
    /// twice.
    given: Vec<(String, Option<String>)>,
    usage: String,
}

impl Cli {
    /// Checks `args` against the declared `value_flags` — each a flag and
    /// the placeholder the usage line shows for its value — and `switches`.
    ///
    /// # Errors
    ///
    /// One line naming the first argument that fits neither list, the value
    /// flag that ends the line, or the first flag given a second time, then
    /// the usage line.
    pub fn parse(
        binary: &str,
        value_flags: &[(&str, &str)],
        switches: &[&str],
        args: Vec<String>,
    ) -> Result<Cli, String> {
        let mut usage = format!("usage: {binary}");
        for (flag, value) in value_flags {
            usage += &format!(" [{flag} {value}]");
        }
        for switch in switches {
            usage += &format!(" [{switch}]");
        }
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut rest = args.into_iter();
        while let Some(arg) = rest.next() {
            let value = if value_flags.iter().any(|(flag, _)| *flag == arg) {
                match rest.next() {
                    Some(value) => Some(value),
                    None => return Err(format!("{arg} expects a value\n{usage}")),
                }
            } else if switches.contains(&arg.as_str()) {
                None
            } else {
                return Err(format!("unknown argument `{arg}`\n{usage}"));
            };
            if given.iter().any(|(flag, _)| *flag == arg) {
                return Err(format!("{arg} given twice\n{usage}"));
            }
            given.push((arg, value));
        }
        Ok(Cli { given, usage })
    }

    /// [`parse`](Cli::parse) over the process's own arguments; a grammar
    /// error is printed and ends the process with exit code 2.
    pub fn from_env(binary: &str, value_flags: &[(&str, &str)], switches: &[&str]) -> Cli {
        let args = std::env::args().skip(1).collect();
        Cli::parse(binary, value_flags, switches, args).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    }

    /// `error: message`, the usage line, exit code 2 — for a value of the
    /// wrong type or a missing mandatory flag.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("error: {message}\n{}", self.usage);
        std::process::exit(2);
    }

    /// The value following `flag`, if the flag was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(given, _)| given == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(given, _)| given == flag)
    }

    /// The integer following `flag`, if the flag was given; a value that
    /// does not parse as `T` is a usage error.
    pub fn integer<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                self.usage_error(&format!("{flag} expects an integer, got `{v}`"))
            })
        })
    }

    /// The integer following `flag`, or `default` when the flag is absent.
    pub fn u64_or(&self, flag: &str, default: u64) -> u64 {
        self.integer(flag).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Cli, String> {
        Cli::parse(
            "demo",
            &[("--seed", "N"), ("--out", "PATH")],
            &["--json"],
            line.iter().map(|a| a.to_string()).collect(),
        )
    }

    #[test]
    fn declared_flags_are_read_back() {
        let cli = parse(&["--seed", "7", "--json", "--out", "x.json"]).expect("in the grammar");
        assert_eq!(cli.value("--out"), Some("x.json"));
        assert_eq!(cli.u64_or("--seed", 1), 7);
        assert_eq!(cli.integer::<u32>("--seed"), Some(7));
        assert!(cli.has("--json"));
        let bare = parse(&[]).expect("an empty line is valid");
        assert_eq!(bare.u64_or("--seed", 1), 1);
        assert_eq!(bare.value("--out"), None);
        assert!(!bare.has("--json"));
    }

    #[test]
    fn typos_missing_values_and_equals_syntax_are_refused() {
        for (line, offender) in [
            (&["--sede", "7"][..], "unknown argument `--sede`"),
            (&["--seed=7"][..], "unknown argument `--seed=7`"),
            (&["7"][..], "unknown argument `7`"),
            (&["--json", "--seed"][..], "--seed expects a value"),
            (&["--seed", "1", "--seed", "2"][..], "--seed given twice"),
            (
                &["--json", "--seed", "1", "--json"][..],
                "--json given twice",
            ),
        ] {
            let usage = "usage: demo [--seed N] [--out PATH] [--json]";
            assert_eq!(parse(line).err(), Some(format!("{offender}\n{usage}")));
        }
        // A value flag swallows whatever follows it, even a flag name.
        let cli = parse(&["--out", "--json"]).expect("`--json` is the path here");
        assert_eq!(cli.value("--out"), Some("--json"));
        assert!(!cli.has("--json"), "a value is not a switch");
    }
}
