//! Argument parser over the flag table: operands plus `--flag value` /
//! `--flag=value` / `--switch` options, each checked against the
//! command's row in [`crate::flags::FLAGS`], with typed values read
//! through [`Args::value`].

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use crate::flags::{self, Command};

/// CLI failure: either a usage problem (caller prints help) or an
/// execution error.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the message explains the correct form.
    Usage(String),
    /// The command ran and failed.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Run(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<xstream_core::Error> for CliError {
    fn from(e: xstream_core::Error) -> Self {
        CliError::Run(e.to_string())
    }
}

/// Parsed arguments of one command: its operands in order plus the
/// flags its table row accepts.
#[derive(Debug, Clone)]
pub struct Args {
    command: &'static Command,
    operands: Vec<String>,
    /// Every flag given, by long name: an option with its value, a
    /// switch with `None`.
    flags: HashMap<&'static str, Option<String>>,
}

/// Consumes the value of option `flag`, refusing to swallow a
/// following option: `--store --verbose` must be a usage error, not a
/// directory literally named `--verbose`. Values that genuinely start
/// with `--` can be passed with the `--flag=value` form.
fn take_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    match it.next() {
        Some(v) if v.starts_with("--") => Err(CliError::Usage(format!(
            "option {flag} needs a value, but the next argument is the option `{v}` \
             (use {flag}=VALUE for a value that starts with --)"
        ))),
        Some(v) => Ok(v.clone()),
        None => Err(CliError::Usage(format!("option {flag} needs a value"))),
    }
}

impl Args {
    /// Parses `argv` (the arguments after the command name) for
    /// command `cmd`. A flag outside the command's row, a switch given
    /// a value, an option without one, or a wrong operand count is a
    /// [`CliError::Usage`].
    pub fn parse(cmd: &str, argv: &[String]) -> Result<Self, CliError> {
        let command = flags::command(cmd).ok_or_else(|| {
            CliError::Usage(format!("unknown command `{cmd}`\n\n{}", flags::usage()))
        })?;
        let mut args = Args {
            command,
            operands: Vec::new(),
            flags: HashMap::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let (spelled, inline) = match a.split_once('=') {
                Some((name, value)) if a.starts_with("--") => (name, Some(value)),
                _ => (a.as_str(), None),
            };
            let flag = match spelled.strip_prefix('-') {
                Some(long) if long.starts_with('-') => flags::flag(&long[1..]),
                Some(short) if short.chars().count() == 1 => flags::short_flag(short),
                _ => {
                    args.operands.push(a.clone());
                    continue;
                }
            };
            let flag = flag
                .filter(|f| f.commands.contains(&command.name))
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "`xstream {cmd}` does not take {spelled} (see `xstream help`)"
                    ))
                })?;
            let value = match (flag.metavar, inline) {
                // A switch spelled with a value must error, not be
                // silently read as set or unset (`--undirected=false`
                // generating an undirected graph would be a nasty
                // quiet failure).
                (None, Some(value)) => {
                    return Err(CliError::Usage(format!(
                        "switch {spelled} takes no value (got `{value}`)"
                    )))
                }
                (None, None) => None,
                (Some(_), Some(value)) => Some(value.to_string()),
                (Some(_), None) => Some(take_value(&mut it, spelled)?),
            };
            args.flags.insert(flag.long, value);
        }
        if args.operands.len() != command.operands.len() {
            return Err(CliError::Usage(format!(
                "usage: {} [options], got operands `{}`",
                command.synopsis(),
                args.operands.join(" ")
            )));
        }
        Ok(args)
    }

    /// The command these arguments were parsed for.
    pub(crate) fn command(&self) -> &'static Command {
        self.command
    }

    /// Operand `i`; [`Args::parse`] guarantees one per name in the
    /// command's row.
    pub fn operand(&self, i: usize) -> &str {
        &self.operands[i]
    }

    /// Whether the command's row declares `--name`, as a switch or as
    /// an option. Reading an undeclared name is a bug: it could never
    /// be set.
    fn declares(&self, name: &str, switch: bool) -> bool {
        flags::flag(name).is_some_and(|f| {
            f.metavar.is_none() == switch && f.commands.contains(&self.command.name)
        })
    }

    /// Named option as a raw string.
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(self.declares(name, false), "undeclared option --{name}");
        self.flags.get(name)?.as_deref()
    }

    /// Named option parsed as a `T`; a value `T` rejects is a usage
    /// error carrying `T`'s own explanation.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| CliError::Usage(format!("--{name}: {e}")))
            })
            .transpose()
    }

    /// Whether `--name` was passed as a switch.
    pub fn switch(&self, name: &str) -> bool {
        debug_assert!(self.declares(name, true), "undeclared switch --{name}");
        self.flags.contains_key(name)
    }
}

/// A byte size written `16M`-style (see [`parse_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bytes(pub usize);

impl FromStr for Bytes {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        parse_bytes(s)
            .map(Bytes)
            .ok_or_else(|| format!("expected a size like 64K/16M/2G, got `{s}`"))
    }
}

/// Parses `16M`-style byte sizes (K/M/G suffixes, powers of two).
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1usize << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1usize << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1usize),
    };
    let v: f64 = digits.parse().ok()?;
    if v < 0.0 {
        return None;
    }
    Some((v * mult as f64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_options_and_switches() {
        let a = Args::parse(
            "generate",
            &sv(&["rmat", "--scale", "20", "-o", "out.edges", "--undirected"]),
        )
        .unwrap();
        assert_eq!(a.operand(0), "rmat");
        assert_eq!(a.get("scale"), Some("20"));
        assert_eq!(a.get("output"), Some("out.edges"));
        assert!(a.switch("undirected"));
        assert!(!a.switch("weighted"));
    }

    #[test]
    fn equals_form_parses_like_spaced_form() {
        let a = Args::parse(
            "run",
            &sv(&["wcc", "g", "--pin-workers=cores", "--threads=4"]),
        )
        .unwrap();
        assert_eq!(a.get("pin-workers"), Some("cores"));
        assert_eq!(a.value::<usize>("threads").unwrap(), Some(4));
        // Values may themselves contain `=` (device maps).
        let a = Args::parse("run", &sv(&["wcc", "g", "--device-map=edges=0,updates=1"])).unwrap();
        assert_eq!(a.get("device-map"), Some("edges=0,updates=1"));
        // A switch given a value is a usage error, not a silent no-op.
        let err = Args::parse("generate", &sv(&["rmat", "--undirected=true"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        let err = Args::parse("generate", &sv(&["rmat", "--scale"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn option_cannot_swallow_a_following_option() {
        // `--store --verbose` must not create a directory named
        // `--verbose`.
        let err = Args::parse("run", &sv(&["--store", "--verbose"])).unwrap_err();
        match err {
            CliError::Usage(msg) => {
                assert!(msg.contains("--store"), "{msg}");
                assert!(msg.contains("--verbose"), "{msg}");
            }
            other => panic!("expected usage error, got {other:?}"),
        }
        let err = Args::parse("generate", &sv(&["-o", "--threads", "4"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        // The `=` form remains the escape hatch for literal `--` values.
        let a = Args::parse("run", &sv(&["wcc", "g", "--store=--weird-dir"])).unwrap();
        assert_eq!(a.get("store"), Some("--weird-dir"));
        // A single-dash value (e.g. a negative number or stdin `-`)
        // still passes positionally through options.
        let a = Args::parse("generate", &sv(&["rmat", "--output", "-"])).unwrap();
        assert_eq!(a.get("output"), Some("-"));
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("64K"), Some(64 << 10));
        assert_eq!(parse_bytes("16M"), Some(16 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("1.5M"), Some(3 << 19));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes("-1M"), None);
    }

    #[test]
    fn typed_getters_validate() {
        let a = Args::parse("run", &sv(&["wcc", "g", "--threads", "abc"])).unwrap();
        let err = a.value::<usize>("threads").unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
        let a = Args::parse("run", &sv(&["wcc", "g", "--memory-budget", "64M"])).unwrap();
        assert_eq!(a.value("memory-budget").unwrap(), Some(Bytes(64 << 20)));
        let a = Args::parse("run", &sv(&["wcc", "g", "--io-unit", "lots"])).unwrap();
        let err = a.value::<Bytes>("io-unit").unwrap_err();
        assert!(err.to_string().contains("64K/16M/2G"), "{err}");
    }
}
