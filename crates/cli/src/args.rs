//! A small dependency-free argument parser: `--key value` pairs and
//! positional arguments, with typed accessors.

use std::collections::BTreeMap;
use std::fmt;

/// Every `--option` some command reads. Anything else is rejected at
/// parse time, so a misspelled flag (`--trcae`, `--shed-target 250`)
/// fails loudly instead of leaving a feature silently off.
pub const KNOWN_OPTIONS: &[&str] = &[
    "addr",
    "batch",
    "cache-capacity",
    "cache-shards",
    "deadline-ms",
    "fault-seed",
    "fault-spec",
    "fused",
    "gpu",
    "hedge",
    "input",
    "max-batch",
    "metrics",
    "metrics-out",
    "microbatches",
    "model",
    "models-dir",
    "no-golden",
    "op",
    "out",
    "parent",
    "perturb",
    "port",
    "predictor",
    "queue-depth",
    // Accepted and ignored: `serve` and `router` always run the reactor
    // front end, and existing scripts still pass the old flag.
    "reactor",
    "replicas",
    "restart-budget",
    "runs",
    "scale",
    "serve",
    "server",
    "shed-target-ms",
    "strategy",
    "tokens",
    "trace",
    "trace-jsonl",
    "train",
    "upstream",
    "version",
    "warm-gossip",
    "workers",
];

/// Parse error with a user-facing message.
#[derive(Debug)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command-line arguments: positionals plus `--key value` options
/// (`--flag` with no value stores an empty string).
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a dangling `--` or an option outside
    /// [`KNOWN_OPTIONS`].
    pub fn parse(raw: impl Iterator<Item = String>) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut raw = raw.peekable();
        while let Some(token) = raw.next() {
            if let Some(key) = token.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("dangling `--`".to_owned()));
                }
                if !KNOWN_OPTIONS.contains(&key) {
                    return Err(ArgError(format!("unknown option `--{key}`")));
                }
                let value = match raw.peek() {
                    Some(next) if !next.starts_with("--") => raw.next().unwrap_or_default(),
                    _ => String::new(),
                };
                args.options.insert(key.to_owned(), value);
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Positional argument by index.
    #[must_use]
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// Option value by key.
    #[must_use]
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a flag/option is present.
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when absent.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.option(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.option(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| ArgError(format!("invalid value `{text}` for --{key}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()))
    }

    fn parse(tokens: &[&str]) -> Args {
        try_parse(tokens).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let args = parse(&[
            "predict",
            "--model",
            "gpt2-large",
            "--batch",
            "4",
            "--train",
        ]);
        assert_eq!(args.positional(0), Some("predict"));
        assert_eq!(args.option("model"), Some("gpt2-large"));
        assert_eq!(args.get_or("batch", 1u64).unwrap(), 4);
        assert!(args.has("train"));
        assert!(!args.has("gpu"));
    }

    #[test]
    fn typed_defaults_and_errors() {
        let args = parse(&["--batch", "oops"]);
        assert!(args.get_or("batch", 1u64).is_err());
        assert_eq!(args.get_or("missing", 7u64).unwrap(), 7);
        assert!(args.require("gpu").is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = try_parse(&["serve", "--trcae", "spans.json"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option `--trcae`");
        assert!(try_parse(&["router", "--shed-target", "250"]).is_err());
        // The retired `--reactor` still parses, as a no-op.
        assert!(parse(&["serve", "--reactor", "--port", "0"]).has("reactor"));
    }

    /// The option keys `main.rs` reads, found by scanning its source for
    /// string-literal arguments of the accessors that take a key.
    fn keys_read_by_main() -> Vec<String> {
        let source = include_str!("main.rs");
        let mut keys = Vec::new();
        for call in [
            ".option(\"",
            ".has(\"",
            ".get_or(\"",
            ".require(\"",
            "owned(\"",
            "file_arg(\"",
        ] {
            for (at, _) in source.match_indices(call) {
                let rest = &source[at + call.len()..];
                let key = &rest[..rest.find('"').expect("closing quote")];
                keys.push(key.to_owned());
            }
        }
        keys.sort();
        keys.dedup();
        keys
    }

    #[test]
    fn every_key_main_reads_is_known() {
        let keys = keys_read_by_main();
        assert!(keys.len() >= 40, "scan found only {keys:?}");
        for key in &keys {
            assert!(
                KNOWN_OPTIONS.contains(&key.as_str()),
                "main.rs reads --{key}, which KNOWN_OPTIONS lacks"
            );
        }
        // And the list names nothing that no command reads.
        for known in KNOWN_OPTIONS.iter().filter(|&&k| k != "reactor") {
            assert!(keys.iter().any(|k| k == known), "--{known} is read nowhere");
        }
    }

    #[test]
    fn flag_followed_by_option() {
        let args = parse(&["--fused", "--gpu", "H100"]);
        assert!(args.has("fused"));
        assert_eq!(args.option("fused"), Some(""));
        assert_eq!(args.option("gpu"), Some("H100"));
    }
}
