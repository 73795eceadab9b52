//! Buffered TSV persistence for action logs and edge lists.
//!
//! Format: one record per line, `user \t action \t time` (and `src \t dst`
//! for graphs). Plain text keeps the datasets inspectable with shell tools
//! and avoids a serialization dependency; readers and writers are buffered
//! per the workspace I/O guidance.

use crate::log::{ActionLog, ActionLogBuilder};
use cdim_graph::{DirectedGraph, GraphBuilder, NodeId};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors raised by the TSV codecs.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line, with its 1-based line number and description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Characters of a rejected field echoed in its diagnostic: a garbage
/// line must not make an error message as large as itself.
const ECHO_CHARS: usize = 32;

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, StorageError> {
    let raw = field
        .ok_or_else(|| StorageError::Parse { line, message: format!("missing {what} field") })?;
    raw.parse().map_err(|_| {
        let end = raw.char_indices().nth(ECHO_CHARS).map_or(raw.len(), |(i, _)| i);
        let more = if end < raw.len() { "…" } else { "" };
        StorageError::Parse { line, message: format!("invalid {what}: {:?}{more}", &raw[..end]) }
    })
}

/// One raw `(user, action, time)` line as parsed from the TSV grammar —
/// syntactically valid, but not yet admitted into any log (user-universe
/// and finiteness validation belong to [`ActionLogBuilder`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawTuple {
    /// Acting user.
    pub user: u32,
    /// External action id.
    pub action: u32,
    /// Event time, exactly as written (may be non-finite — the builder
    /// rejects it with a typed error).
    pub time: f64,
}

/// Incremental line→tuple decoder: the action-log TSV grammar in exactly
/// one place.
///
/// Both consumers drive the same decoder: [`read_action_log`] feeds it
/// every line of a complete file, and the live-ingest follower feeds it
/// complete `\n`-terminated lines as they appear at the end of a growing
/// file. The decoder tracks the 1-based line number itself, so
/// [`StorageError::Parse`] diagnostics stay line-addressed no matter how
/// the lines arrive — and a restarted follower can resume the numbering
/// from a checkpoint via [`TupleDecoder::resume`].
#[derive(Clone, Debug, Default)]
pub struct TupleDecoder {
    line_no: usize,
}

impl TupleDecoder {
    /// A decoder starting at line 1.
    pub fn new() -> Self {
        TupleDecoder { line_no: 0 }
    }

    /// A decoder that has already consumed `lines` lines (checkpoint
    /// resume: diagnostics keep pointing at true file lines).
    pub fn resume(lines: usize) -> Self {
        TupleDecoder { line_no: lines }
    }

    /// Lines consumed so far (= the line number of the last decoded line).
    pub fn lines_consumed(&self) -> usize {
        self.line_no
    }

    /// Decodes one complete line (with or without its trailing newline).
    /// Returns `Ok(None)` for blank lines and `#` comments.
    pub fn decode_line(&mut self, line: &str) -> Result<Option<RawTuple>, StorageError> {
        self.line_no += 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut fields = line.split('\t');
        let user: u32 = parse_field(fields.next(), self.line_no, "user")?;
        let action: u32 = parse_field(fields.next(), self.line_no, "action")?;
        let time: f64 = parse_field(fields.next(), self.line_no, "time")?;
        Ok(Some(RawTuple { user, action, time }))
    }
}

/// Writes `log` as TSV (`user \t external_action_id \t time`).
pub fn write_action_log<W: Write>(log: &ActionLog, out: W) -> Result<(), StorageError> {
    let mut w = BufWriter::new(out);
    for t in log.tuples() {
        writeln!(w, "{}\t{}\t{}", t.user, log.external_id(t.action), t.time)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a TSV action log. `num_users` fixes the user-id universe.
pub fn read_action_log<R: io::Read>(input: R, num_users: usize) -> Result<ActionLog, StorageError> {
    let mut builder = ActionLogBuilder::new(num_users);
    let mut reader = BufReader::new(input);
    let mut decoder = TupleDecoder::new();
    let mut line_buf = String::new();
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        let Some(raw) = decoder.decode_line(&line_buf)? else {
            continue;
        };
        // `"NaN"`/`"inf"` parse fine via `f64::from_str`; the builder's
        // typed validation is what keeps them out of the log (they would
        // silently corrupt the chronological-order invariant the scan
        // relies on). Same for out-of-range users.
        builder.try_push(raw.user, raw.action, raw.time).map_err(|e| StorageError::Parse {
            line: decoder.lines_consumed(),
            message: e.to_string(),
        })?;
    }
    Ok(builder.build())
}

/// Writes a graph edge list as TSV (`src \t dst`), preceded by a header
/// comment recording the node count.
pub fn write_graph<W: Write>(graph: &DirectedGraph, out: W) -> Result<(), StorageError> {
    let mut w = BufWriter::new(out);
    writeln!(w, "# nodes\t{}", graph.num_nodes())?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a TSV edge list written by [`write_graph`].
pub fn read_graph<R: io::Read>(input: R) -> Result<DirectedGraph, StorageError> {
    let mut reader = BufReader::new(input);
    let mut line_buf = String::new();
    let mut line_no = 0usize;
    let mut num_nodes: Option<usize> = None;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = line_buf.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# nodes\t") {
            num_nodes = Some(parse_field(Some(rest), line_no, "node count")?);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let u: u32 = parse_field(fields.next(), line_no, "src")?;
        let v: u32 = parse_field(fields.next(), line_no, "dst")?;
        edges.push((u, v));
    }
    let n = num_nodes
        .unwrap_or_else(|| edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0));
    Ok(GraphBuilder::new(n).edges(edges).build())
}

/// Convenience: writes `log` to a file path.
pub fn save_action_log(log: &ActionLog, path: &Path) -> Result<(), StorageError> {
    write_action_log(log, File::create(path)?)
}

/// Convenience: reads a log from a file path.
pub fn load_action_log(path: &Path, num_users: usize) -> Result<ActionLog, StorageError> {
    read_action_log(File::open(path)?, num_users)
}

/// Convenience: writes `graph` to a file path.
pub fn save_graph(graph: &DirectedGraph, path: &Path) -> Result<(), StorageError> {
    write_graph(graph, File::create(path)?)
}

/// Convenience: reads a graph from a file path.
pub fn load_graph(path: &Path) -> Result<DirectedGraph, StorageError> {
    read_graph(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ActionLogBuilder;

    fn sample_log() -> ActionLog {
        let mut b = ActionLogBuilder::new(4);
        b.push(0, 7, 1.5);
        b.push(1, 7, 2.0);
        b.push(2, 9, 0.5);
        b.build()
    }

    #[test]
    fn log_round_trip() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_action_log(&log, &mut buf).unwrap();
        let restored = read_action_log(&buf[..], 4).unwrap();
        assert_eq!(restored, log);
    }

    #[test]
    fn graph_round_trip() {
        let g = GraphBuilder::new(5).edges([(0, 1), (3, 2), (4, 0)]).build();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let restored = read_graph(&buf[..]).unwrap();
        assert_eq!(restored, g);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let data = "# a comment\n\n0\t3\t1.0\n";
        let log = read_action_log(data.as_bytes(), 2).unwrap();
        assert_eq!(log.num_tuples(), 1);
    }

    #[test]
    fn reports_malformed_line_numbers() {
        let data = "0\t1\t1.0\nbogus line\n";
        let err = read_action_log(data.as_bytes(), 2).unwrap_err();
        match err {
            StorageError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_out_of_range_user() {
        let data = "9\t1\t1.0\n";
        assert!(read_action_log(data.as_bytes(), 2).is_err());
    }

    #[test]
    fn rejects_non_finite_time() {
        // `f64::from_str` happily parses every one of these spellings, so
        // the reader must reject them itself — with the line number and a
        // message naming the problem.
        for (raw, line) in [("0\t1\tinf\n", 1), ("0\t1\t1.0\n0\t2\tNaN\n", 2)] {
            let err = read_action_log(raw.as_bytes(), 2).unwrap_err();
            match err {
                StorageError::Parse { line: l, message } => {
                    assert_eq!(l, line, "{raw:?}");
                    assert!(message.contains("non-finite"), "{message}");
                }
                other => panic!("expected parse error, got {other}"),
            }
        }
        assert!(read_action_log("0\t1\t-inf\n".as_bytes(), 2).is_err());
    }

    #[test]
    fn decoder_is_incremental_and_line_addressed() {
        let mut d = TupleDecoder::new();
        assert_eq!(d.decode_line("# header\n").unwrap(), None);
        assert_eq!(
            d.decode_line("3\t9\t1.5").unwrap(),
            Some(RawTuple { user: 3, action: 9, time: 1.5 })
        );
        assert_eq!(d.decode_line("").unwrap(), None);
        let err = d.decode_line("3\tnope\t1.0\n").unwrap_err();
        match err {
            StorageError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("action"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        assert_eq!(d.lines_consumed(), 4);
        // Resuming from a checkpointed line count keeps diagnostics true.
        let mut resumed = TupleDecoder::resume(10);
        let err = resumed.decode_line("bogus").unwrap_err();
        assert!(matches!(err, StorageError::Parse { line: 11, .. }));
    }

    #[test]
    fn graph_without_header_infers_node_count() {
        let data = "0\t4\n2\t1\n";
        let g = read_graph(data.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert!(g.has_edge(0, 4));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cdim_storage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("log.tsv");
        let graph_path = dir.join("graph.tsv");

        let log = sample_log();
        save_action_log(&log, &log_path).unwrap();
        assert_eq!(load_action_log(&log_path, 4).unwrap(), log);

        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        save_graph(&g, &graph_path).unwrap();
        assert_eq!(load_graph(&graph_path).unwrap(), g);

        std::fs::remove_dir_all(&dir).ok();
    }
}
