//! Implementation of the `xstream` command-line tool.
//!
//! The binary wires X-Stream's pieces into a shell workflow:
//!
//! ```text
//! xstream generate rmat --scale 20 -o twitter.edges
//! xstream import soc-LiveJournal1.txt lj.edges --undirected
//! xstream info twitter.edges
//! xstream run wcc twitter.edges --engine disk --memory-budget 256M
//! xstream components twitter.edges --model wstream --capacity 4096
//! ```
//!
//! The `--engine disk` path is genuinely out-of-core end to end: the
//! edge file is streamed into the partition shuffle (undirected /
//! bidirectional expansion applied chunk-by-chunk, degrees scanned in
//! one pass) and the full edge list is never held in memory.
//!
//! Argument parsing is hand-rolled (the project's dependency policy
//! admits no CLI crates): one table of commands and flags
//! ([`flags`]) drives parsing, validation and `xstream help`, and
//! [`args`] reads typed values through `FromStr`.

pub mod args;
pub mod commands;
pub mod flags;

pub use args::{parse_bytes, Args, Bytes, CliError};
pub use flags::usage;

/// Entry point shared by the binary and the tests: dispatches a full
/// argument vector (excluding `argv[0]`) through the command table and
/// returns the rendered output or an error message.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    let command = match command.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let args = Args::parse(command, rest)?;
    (args.command().exec)(&args)
}
