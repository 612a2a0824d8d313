//! The one declaration of the CLI: every command with its operands,
//! every flag with the commands that take it. Parsing
//! ([`crate::Args::parse`]), dispatch and `xstream help` ([`usage`])
//! all read these two tables, so a flag exists for a command exactly
//! when its row says so.

use std::fmt::Write as _;

use crate::args::{Args, CliError};
use crate::commands;

/// One subcommand.
#[derive(Debug)]
pub struct Command {
    /// Name on the command line.
    pub name: &'static str,
    /// Operand names, in order; the command takes exactly these.
    pub operands: &'static [&'static str],
    /// One paragraph for `xstream help`.
    pub summary: &'static str,
    /// The command body.
    pub exec: fn(&Args) -> Result<String, CliError>,
}

/// One flag, declared once for every command that takes it.
#[derive(Debug)]
pub struct Flag {
    /// Long name, spelled `--long`.
    pub long: &'static str,
    /// Single-letter alias, spelled `-s`.
    pub short: Option<&'static str>,
    /// Value placeholder in the help text; `None` marks a switch.
    pub metavar: Option<&'static str>,
    /// The commands that accept the flag.
    pub commands: &'static [&'static str],
    /// One paragraph for `xstream help`.
    pub help: &'static str,
}

impl Command {
    /// `xstream run <ALGO> <FILE>`.
    pub(crate) fn synopsis(&self) -> String {
        let operands: String = self.operands.iter().map(|op| format!(" <{op}>")).collect();
        format!("xstream {}{operands}", self.name)
    }
}

impl Flag {
    /// The flag column of `xstream help`: `-o, --output FILE`.
    pub(crate) fn label(&self) -> String {
        let short = self.short.map(|s| format!("-{s}, ")).unwrap_or_default();
        let value = self.metavar.map(|m| format!(" {m}")).unwrap_or_default();
        format!("{short}--{}{value}", self.long)
    }
}

/// A flag that takes no value.
const fn switch(long: &'static str, commands: &'static [&'static str], help: &'static str) -> Flag {
    Flag {
        long,
        short: None,
        metavar: None,
        commands,
        help,
    }
}

/// A flag that takes a value, shown as `metavar` in the help text.
const fn opt(
    long: &'static str,
    metavar: &'static str,
    commands: &'static [&'static str],
    help: &'static str,
) -> Flag {
    Flag {
        metavar: Some(metavar),
        ..switch(long, commands, help)
    }
}

/// Every command, in `xstream help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "generate", operands: &["KIND"], exec: commands::generate,
        summary: "Write a synthetic binary edge file. KIND is one of rmat, erdos-renyi, \
                  pref-attach, grid, web, bipartite." },
    Command { name: "info", operands: &["FILE"], exec: commands::info,
        summary: "Print header and degree statistics of a binary edge file (computed in one \
                  streaming pass; the edge list is never loaded)." },
    Command { name: "import", operands: &["SRC", "DST"], exec: commands::import,
        summary: "Convert an external edge list into the binary .xse format, streaming: \
                  bounded memory, text chunks parsed in parallel." },
    Command { name: "run", operands: &["ALGO", "FILE"], exec: commands::run,
        summary: "Run an algorithm over an edge file on either engine. ALGO is one of wcc, \
                  bfs, sssp, pagerank, pagerank-delta, spmv, mis, scc, mcst, conductance." },
    Command { name: "scrub", operands: &["STORE"], exec: commands::scrub,
        summary: "Verify every durable stream of a partition store (written by `run --engine \
                  disk --store DIR`) against its MANIFEST: sidecar authenticity, one CRC per \
                  I/O-unit chunk, and checkpoint frame structure. Detecting damage exits \
                  nonzero." },
    Command { name: "serve", operands: &["FILE"], exec: commands::serve,
        summary: "Serve the graph as a long-lived query process: ingest once, answer \
                  concurrent queries over a line-delimited JSON protocol on a TCP socket (one \
                  request object per line, one response line each; ops: bfs, sssp, reach, \
                  same-component, components, pagerank, stats, ping). Queued BFS/SSSP \
                  queries are batched into one multi-source frontier pass — one edge stream \
                  serves the whole batch — and results are cached by (query, store manifest \
                  generation), so a re-ingest or scrub --repair invalidates stale entries. \
                  SIGTERM/SIGINT drains the queue and exits 0." },
    Command { name: "components", operands: &["FILE"], exec: commands::components,
        summary: "Connected components in the alternative streaming models. The edge file is \
                  streamed (with on-the-fly undirected mirroring) — never loaded into memory." },
    Command { name: "help", operands: &[], exec: |_| Ok(usage()), summary: "Print this text." },
];

/// The commands that build an engine.
const ENGINES: &[&str] = &["run", "serve"];

/// Every flag, in `xstream help` order within each command.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    opt("scale", "N", &["generate"], "rmat only: 2^N vertices (the paper's graph sizing)"),
    opt("vertices", "N", &["generate"], "vertex count (all kinds except rmat)"),
    opt("edges", "N", &["generate"],
        "edge count (erdos-renyi, bipartite; default derives from --degree)"),
    opt("degree", "N", &["generate"],
        "average/out degree knob (rmat edge factor, pref-attach/web attachment degree; \
         default 8/16)"),
    opt("seed", "N", &["generate"], "RNG seed (default 42)"),
    switch("weighted", &["generate"], "assign uniform random weights in [0, 1)"),
    switch("undirected", &["generate", "import"], "also write the reverse of every edge"),
    Flag { short: Some("o"), ..opt("output", "FILE", &["generate"], "output path (required)") },
    opt("format", "F", &["import"],
        "snap: whitespace text `src dst [weight]` with # / % comments and blank lines \
         (default); pairs32 / pairs64: raw little-endian id pairs, 8/16 bytes per edge"),
    opt("num-vertices", "N", &["import"],
        "declare the vertex count instead of discovering max id + 1"),
    opt("threads", "N", &["import", "run", "serve"],
        "worker threads (default: all cores): import's parsers, or the engine's pool; the \
         disk engine gathers partitions on min(N, K) lanes while their update files fit its \
         memory, so 1 is the paper's serial gather"),
    opt("engine", "mem|disk", ENGINES,
        "in-memory (§4) or out-of-core (§3) engine (memory is an alias for mem; default \
         mem). The disk engine streams the file straight into its partition shuffle — \
         undirected/bidirectional expansion and degree scans included — and never holds the \
         edge list in memory (§3.2); serve keeps one sub-store per query family under the \
         store directory"),
    opt("partitions", "K", ENGINES,
        "force the streaming partition count instead of the automatic §3.4 / §4 sizing"),
    opt("memory-budget", "SIZE", ENGINES, "out-of-core fast-storage budget M (default 1G)"),
    opt("io-unit", "SIZE", ENGINES, "preferred I/O unit S (default 16M, §3.4)"),
    opt("device-map", "MAP", ENGINES,
        "edges=N,updates=M[,vertices=P]: place the out-of-core stream families on separate \
         devices (Fig. 15); one reader and one writer thread are striped per device"),
    opt("iterations", "N", ENGINES,
        "PageRank rounds: the cap of pagerank and pagerank-delta runs, and serve's default \
         when a query names none (default 5)"),
    opt("epsilon", "X", &["run"],
        "pagerank-delta: activation tolerance — a vertex re-scatters only when its damped \
         incoming delta exceeds X (default 1e-7; 0 = propagate every nonzero delta)"),
    opt("frontier-threshold", "D", ENGINES,
        "frontier-tracked algorithms (bfs, sssp, wcc, mis, pagerank-delta) on the disk \
         engine: dense/sparse hybrid-switch divisor — a partition scatters through its \
         vertex->edge index when active_edges * D < |E_p| (Ligra's rule; default 20; 0 \
         forces sparse, a huge D forces dense)"),
    switch("no-frontier-skip", ENGINES,
        "disable frontier-aware scatter entirely: stream every partition densely even for \
         frontier-tracked programs (the paper's baseline behaviour; useful for A/B timing)"),
    opt("root", "V", &["run"],
        "source vertex for bfs/sssp (default 0; must be below the graph's vertex count)"),
    opt("store", "DIR", ENGINES,
        "disk engine: directory for partition streams (default: a fresh unique temp \
         directory, removed afterwards). An existing DIR is wiped only if it is empty or \
         carries the .xstream-store marker from a previous run; anything else is refused"),
    opt("max-retries", "N", ENGINES,
        "disk engine: re-run a superstep up to N extra times after a transient I/O error \
         (EINTR, EIO, EAGAIN, timeouts), with exponential backoff; permanent errors \
         (ENOSPC, permissions) always fail fast (default 2)"),
    opt("checkpoint-every", "N", ENGINES,
        "disk engine: after every N completed supersteps, persist vertex state as a \
         CRC-checksummed checkpoint frame in the store directory (crash-atomic two-slot \
         write; 0 = off, the default). Use with an explicit --store so the checkpoint \
         survives the process"),
    switch("resume", &["run"],
        "disk engine: restore the newest valid checkpoint from --store (torn or foreign \
         frames are rejected by CRC/fingerprint) and skip the already-completed supersteps; \
         requires --engine disk and --store, keeps the store directory's checkpoint files \
         instead of wiping them. Resuming under changed layout flags (--partitions, \
         --io-unit, ...) fails naming the flag"),
    switch("no-verify-reads", ENGINES,
        "disk engine: trust mode — skip per-chunk checksum verification on durable-stream \
         reads (verification is on by default; the write-side checksums are maintained \
         either way, so a later scrub still works)"),
    opt("port", "N", &["serve"],
        "TCP port on 127.0.0.1 (default 0 = pick an ephemeral port; the chosen address is \
         printed on startup)"),
    opt("max-inflight", "N", &["serve"],
        "queued-plus-running query bound; admission beyond it answers an overload error \
         (default 32)"),
    opt("query-timeout", "MS", &["serve"],
        "per-query deadline in milliseconds; a slower answer becomes a clean timeout error \
         (default 30000)"),
    opt("cache-entries", "N", &["serve"],
        "LRU result-cache capacity in entries (0 disables; default 256)"),
    opt("model", "semi|wstream", &["components"],
        "semi-streaming (1 pass, O(V) memory) or W-Stream (bounded passes; default semi)"),
    opt("capacity", "N", &["components"], "wstream only: per-pass edge memory (default 65536)"),
    switch("repair", &["scrub"],
        "rewrite rotted checksum sidecars over intact streams and quarantine stale or rotted \
         checkpoints and leftover streams (*.quarantined, never deleted); re-seals the \
         manifest"),
];

/// The command named `name`.
pub(crate) fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The flag spelled `--long`.
pub(crate) fn flag(long: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.long == long)
}

/// The flag spelled `-short`.
pub(crate) fn short_flag(short: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.short == Some(short))
}

/// Text width of `xstream help`.
const WIDTH: usize = 76;
/// Indent of a summary and of the flag column.
const INDENT: usize = 6;
/// Indent of a flag's help text.
const HELP_INDENT: usize = 27;

/// Appends `text` word-wrapped at [`WIDTH`], every line indented by
/// `indent`; the first line continues from `col` when it already holds
/// text up to there.
fn wrap(out: &mut String, text: &str, indent: usize, mut col: usize) {
    for word in text.split_whitespace() {
        if col > indent && col + 1 + word.chars().count() > WIDTH {
            out.push('\n');
            col = 0;
        }
        if col < indent {
            let _ = write!(out, "{:1$}", "", indent - col);
            col = indent;
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.chars().count();
    }
    out.push('\n');
}

/// The `xstream help` section of one command: its synopsis, summary
/// and every flag its row accepts.
pub(crate) fn section(command: &Command) -> String {
    let mut s = format!("  {}", command.synopsis());
    let flags: Vec<&Flag> = FLAGS
        .iter()
        .filter(|f| f.commands.contains(&command.name))
        .collect();
    if !flags.is_empty() {
        s.push_str(" [options]");
    }
    s.push('\n');
    wrap(&mut s, command.summary, INDENT, 0);
    for f in flags {
        let left = f.label();
        let _ = write!(s, "{:INDENT$}{left}", "");
        let mut col = INDENT + left.chars().count();
        if col >= HELP_INDENT {
            s.push('\n');
            col = 0;
        }
        wrap(&mut s, f.help, HELP_INDENT, col);
    }
    s
}

/// Top-level usage text, generated from [`COMMANDS`] and [`FLAGS`]:
/// every flag of every command is documented here — this is the
/// reference the README points at.
pub fn usage() -> String {
    let sections: Vec<String> = COMMANDS.iter().map(section).collect();
    format!(
        "xstream - edge-centric graph processing (X-Stream, SOSP'13)\n\n\
         Options take `--flag VALUE` or `--flag=VALUE`; sizes accept K/M/G\n\
         suffixes (powers of two, e.g. 64K, 16M, 2G). A flag a command does\n\
         not list below is a usage error.\n\nUSAGE:\n{}",
        sections.join("\n")
    )
}
