//! Minimal subcommand + `--key value` option parsing for the `noisemine`
//! binary. Dependency-free on purpose (the workspace's allowed dependency
//! set has no CLI crate); errors are returned, not panicked, so `main` can
//! print usage after a mistake in the command line.

use std::collections::HashMap;

/// Parsed invocation: a subcommand plus flat options.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// The subcommand (`gen`, `mine`, `stats`, `match`, `convert`).
    pub command: String,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

/// A user-facing CLI error (exit code 2). Errors converted from a message
/// are runtime failures; [`CliError::usage`] marks a mistake in the command
/// line itself, the only kind `main` follows with the usage text.
#[derive(Debug)]
pub struct CliError {
    message: String,
    /// Whether the command line itself is at fault.
    pub usage: bool,
}

impl CliError {
    /// An error in the command line itself (printed with usage).
    pub fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            usage: true,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self {
            message,
            usage: false,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

/// Result alias for CLI operations.
pub type CliResult<T> = Result<T, CliError>;

impl Opts {
    /// Parses a token stream: first token is the subcommand (`--help`
    /// counts as one), the rest are `--key value`, `--key=value`, or bare
    /// `--flag`.
    pub fn parse<I, S>(tokens: I) -> CliResult<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = tokens.into_iter().map(Into::into).collect();
        let command = tokens
            .first()
            .filter(|t| *t == "--help" || !t.starts_with("--"))
            .cloned()
            .ok_or_else(|| CliError::usage("missing subcommand"))?;
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 1;
        while i < tokens.len() {
            let tok = &tokens[i];
            let stripped = tok.strip_prefix("--").ok_or_else(|| {
                CliError::usage(format!("unexpected positional argument {tok:?}"))
            })?;
            if let Some((k, v)) = stripped.split_once('=') {
                values.insert(k.to_string(), v.to_string());
            } else if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                values.insert(stripped.to_string(), tokens[i + 1].clone());
                i += 1;
            } else {
                flags.push(stripped.to_string());
            }
            i += 1;
        }
        Ok(Self {
            command,
            values,
            flags,
        })
    }

    /// Rejects any option not in `known`.
    pub fn deny_unknown(&self, known: &[&str]) -> CliResult<()> {
        for key in self.values.keys().chain(self.flags.iter()) {
            if !known.contains(&key.as_str()) {
                return Err(CliError::usage(format!(
                    "unrecognized option --{key} for `{}`; known options: {}",
                    self.command,
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Whether a bare `--flag` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> CliResult<&str> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::usage(format!("`{}` requires --{name}", self.command)))
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An optional string option with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// Typed numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> CliResult<T> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("--{name} got unparsable value {v:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_options() {
        let o = Opts::parse(["mine", "--db", "x.txt", "--min-match=0.1", "--normalize"]).unwrap();
        assert_eq!(o.command, "mine");
        assert_eq!(o.required("db").unwrap(), "x.txt");
        assert_eq!(o.num::<f64>("min-match", 0.0).unwrap(), 0.1);
        assert!(o.flag("normalize"));
        assert!(o.deny_unknown(&["db", "min-match", "normalize"]).is_ok());
    }

    #[test]
    fn missing_subcommand() {
        assert!(Opts::parse(Vec::<String>::new()).unwrap_err().usage);
        assert!(Opts::parse(["--db", "x"]).is_err());
    }

    #[test]
    fn rejects_positional_after_command() {
        assert!(Opts::parse(["mine", "stray"]).unwrap_err().usage);
    }

    #[test]
    fn deny_unknown_rejects() {
        let o = Opts::parse(["gen", "--bogus", "1"]).unwrap();
        let err = o.deny_unknown(&["out"]).unwrap_err();
        assert!(err.usage);
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn required_missing_names_option() {
        let o = Opts::parse(["match"]).unwrap();
        let err = o.required("pattern").unwrap_err();
        assert!(err.usage);
        assert!(err.to_string().contains("--pattern"));
    }

    #[test]
    fn bad_number() {
        let o = Opts::parse(["gen", "--sequences", "lots"]).unwrap();
        assert!(o.num::<usize>("sequences", 5).unwrap_err().usage);
    }
}
