//! Minimal dependency-free argument parsing for `chopper-cli`.
//!
//! Grammar: `chopper-cli <command> [--flag [value]]...`. Flags may appear
//! in any order; a flag the command does not accept is an error (to catch
//! typos and retired flags early).

use std::collections::HashMap;

/// A parsed command line: the command word plus its flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The first positional token ("run", "tune", ...).
    pub command: String,
    flags: HashMap<String, String>,
}

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["copartition", "gantt"];

/// Engine flags, read by every command that runs a workload.
const ENGINE_FLAGS: &[&str] = &[
    "partitions",
    "copartition",
    "executor-mem",
    "adaptive",
    "cluster",
    "topology",
    "fault-plan",
    "fault-seed",
];

/// Test-grid flags of the commands that build an autotuner.
const TUNER_FLAGS: &[&str] = &["scales", "test-partitions", "test-parallelism"];

/// The flags `command` accepts, or `None` for an unknown command (which
/// the caller reports).
fn command_flags(command: &str) -> Option<&'static [&'static [&'static str]]> {
    Some(match command {
        "run" => &[&["workload", "conf", "scale", "gantt"], ENGINE_FLAGS],
        "trace" => &[
            &["workload", "conf", "scale", "clock", "out", "summary-out"],
            ENGINE_FLAGS,
        ],
        "tune" | "plan" => &[&["workload", "db", "out-conf"], ENGINE_FLAGS, TUNER_FLAGS],
        "compare" => &[&["workload"], ENGINE_FLAGS, TUNER_FLAGS],
        "inspect" => &[&["db"]],
        "conf" => &[&["file"]],
        // `serve` names `--fault-plan`, `--fault-seed` and `--executor-mem`
        // only to reject them with a message saying what to use instead.
        "serve" => &[&[
            "trace",
            "policy",
            "slots",
            "queue-cap",
            "mem-shared",
            "mem-tenant",
            "workers",
            "partitions",
            "cluster",
            "topology",
            "results-out",
            "tables-out",
            "trace-out",
            "fault-plan",
            "fault-seed",
            "executor-mem",
        ]],
        "loadgen" => &[&["out", "tenants", "jobs", "seed"]],
        "help" => &[],
        _ => return None,
    })
}

impl Args {
    /// Parses raw arguments (without the binary name).
    pub fn parse<I, S>(raw: I) -> Result<Args, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = raw.into_iter().map(Into::into).peekable();
        let command = iter
            .next()
            .ok_or_else(|| ParseError("missing command (try `chopper-cli help`)".into()))?;
        if command.starts_with("--") {
            return Err(ParseError(format!(
                "expected a command, got flag {command}"
            )));
        }
        let accepted = command_flags(&command);
        let mut flags = HashMap::new();
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ParseError(format!(
                    "unexpected positional argument '{tok}'"
                )));
            };
            if name.is_empty() {
                return Err(ParseError("empty flag name".into()));
            }
            if accepted.is_some_and(|groups| !groups.iter().any(|g| g.contains(&name))) {
                return Err(ParseError(format!("unknown flag --{name} for `{command}`")));
            }
            let value = if BOOLEAN_FLAGS.contains(&name) {
                "true".to_string()
            } else {
                iter.next()
                    .ok_or_else(|| ParseError(format!("flag --{name} requires a value")))?
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(ParseError(format!("flag --{name} given twice")));
            }
        }
        Ok(Args { command, flags })
    }

    /// A string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, ParseError> {
        self.get(name)
            .ok_or_else(|| ParseError(format!("missing required flag --{name}")))
    }

    /// A boolean flag (present = true).
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ParseError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("flag --{name}: cannot parse '{v}'"))),
        }
    }

    /// A comma-separated list of numbers.
    pub fn num_list<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, ParseError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| ParseError(format!("flag --{name}: bad entry '{part}'")))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ParseError> {
        Args::parse(tokens.iter().copied())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["run", "--workload", "kmeans", "--scale", "0.5"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("workload"), Some("kmeans"));
        assert_eq!(a.num::<f64>("scale", 1.0).unwrap(), 0.5);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = parse(&["run", "--copartition", "--workload", "sql"]).unwrap();
        assert!(a.has("copartition"));
        assert_eq!(a.get("workload"), Some("sql"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "x"]).is_err());
    }

    #[test]
    fn value_flag_without_value_is_an_error() {
        assert!(parse(&["run", "--workload"]).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(parse(&["run", "--scale", "1", "--scale", "2"]).is_err());
    }

    #[test]
    fn unknown_and_retired_flags_are_errors_naming_the_flag() {
        for (tokens, flag) in [
            (&["run", "--batch", "off"][..], "--batch"),
            (&["run", "--pipeline", "off"], "--pipeline"),
            (&["run", "--workload", "sql", "--sacle", "0.5"], "--sacle"),
            (&["serve", "--batch", "on"], "--batch"),
            (&["serve", "--trace", "t", "--serial"], "--serial"),
            (&["inspect", "--workload", "sql"], "--workload"),
        ] {
            let err = parse(tokens).unwrap_err();
            assert!(err.0.contains(flag), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn every_command_accepts_its_own_flags() {
        assert!(parse(&["tune", "--workload", "sql", "--test-partitions", "60,150"]).is_ok());
        assert!(parse(&["compare", "--workload", "pca", "--executor-mem", "64m"]).is_ok());
        assert!(parse(&["serve", "--trace", "t", "--fault-plan", "p"]).is_ok());
        assert!(parse(&["loadgen", "--out", "o", "--seed", "3"]).is_ok());
    }

    #[test]
    fn stray_positional_is_an_error() {
        assert!(parse(&["run", "kmeans"]).is_err());
    }

    #[test]
    fn defaults_and_requires() {
        let a = parse(&["tune", "--workload", "pca"]).unwrap();
        assert_eq!(a.num::<usize>("partitions", 300).unwrap(), 300);
        assert!(a.require("workload").is_ok());
        assert!(a.require("db").is_err());
    }

    #[test]
    fn num_list_parses_csv() {
        let a = parse(&["tune", "--scales", "0.1, 0.3,0.6"]).unwrap();
        assert_eq!(
            a.num_list("scales", vec![1.0]).unwrap(),
            vec![0.1, 0.3, 0.6]
        );
        let bad = parse(&["tune", "--scales", "0.1,zebra"]).unwrap();
        assert!(bad.num_list::<f64>("scales", vec![]).is_err());
    }

    #[test]
    fn bad_number_reports_flag_name() {
        let a = parse(&["run", "--scale", "woof"]).unwrap();
        let err = a.num::<f64>("scale", 1.0).unwrap_err();
        assert!(err.0.contains("--scale"));
    }
}
