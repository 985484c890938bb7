//! Trace serialization: JSON-lines files.
//!
//! Format: one header object on the first line (`name`, `seed`,
//! `query_count`, `format_version`), then one [`TraceQuery`] per line.
//! Line-delimited JSON keeps huge traces streamable and lets externally
//! collected traces be converted with ordinary text tooling.
//!
//! Query lines never become [`Value`] trees. The writer streams the nine
//! fields straight into the file as canonical compact JSON, and the
//! reader pulls them off a [`Cursor`] straight into reused
//! [`TraceQuery`] buffers: keys in any order, unknown keys skipped, the
//! first of duplicate keys wins. Integer fields take integer literals
//! only (`5`, never `5.0` or `1e3`).

use crate::trace::{Trace, TraceQuery};
use byc_types::json::{self, Cursor, Value};
use byc_types::{Bytes, ColumnId, Error, QueryId, Result, TableId};
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Current file-format version.
pub const FORMAT_VERSION: u32 = 1;

#[derive(Clone, Debug)]
struct Header {
    format_version: u32,
    name: String,
    seed: u64,
    query_count: usize,
}

impl Header {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "format_version".into(),
                Value::u64(self.format_version.into()),
            ),
            ("name".into(), Value::str(&self.name)),
            ("seed".into(), Value::u64(self.seed)),
            ("query_count".into(), Value::u64(self.query_count as u64)),
        ])
    }

    fn from_json(v: &Value) -> Result<Header> {
        if !v.is_object() {
            return Err(Error::TraceFormat("header is not an object".into()));
        }
        let query_count = field_u64(v, "query_count")?;
        Ok(Header {
            format_version: field_u32(v, "format_version")?,
            name: field_str(v, "name")?.to_string(),
            seed: field_u64(v, "seed")?,
            query_count: usize::try_from(query_count).map_err(|_| {
                Error::TraceFormat(format!(
                    "field \"query_count\" ({query_count}) does not fit this platform's usize"
                ))
            })?,
        })
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key)
        .ok_or_else(|| Error::TraceFormat(format!("missing field {key:?}")))
}

fn field_u64(v: &Value, key: &str) -> Result<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a u64")))
}

fn field_u32(v: &Value, key: &str) -> Result<u32> {
    field(v, key)?
        .as_u32()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a u32")))
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<&'v str> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not a string")))
}

/// The nine fields of a query line, in the order the writer emits them.
const FIELDS: [&str; 9] = [
    "id",
    "sql",
    "template",
    "data_keys",
    "tables",
    "columns",
    "total_yield",
    "table_yields",
    "column_yields",
];

/// Append `items` to `out` as a JSON array, each rendered by `each`.
fn write_list<T>(
    out: &mut String,
    items: &[T],
    mut each: impl FnMut(&mut String, &T) -> fmt::Result,
) -> fmt::Result {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item)?;
    }
    out.push(']');
    Ok(())
}

/// Append `q` to `out` as one compact JSON object with the keys in
/// [`FIELDS`] order: byte for byte what `Value`'s `Display` renders.
fn encode_query(out: &mut String, q: &TraceQuery) -> fmt::Result {
    write!(out, "{{\"id\":{},\"sql\":", q.id.raw())?;
    json::write_escaped(out, &q.sql)?;
    write!(out, ",\"template\":{},\"data_keys\":", q.template)?;
    write_list(out, &q.data_keys, |out, k| write!(out, "{k}"))?;
    out.push_str(",\"tables\":");
    write_list(out, &q.tables, |out, t| write!(out, "{}", t.raw()))?;
    out.push_str(",\"columns\":");
    write_list(out, &q.columns, |out, c| write!(out, "{}", c.raw()))?;
    write!(
        out,
        ",\"total_yield\":{},\"table_yields\":",
        q.total_yield.raw()
    )?;
    write_list(out, &q.table_yields, |out, (t, b)| {
        write!(out, "[{},{}]", t.raw(), b.raw())
    })?;
    out.push_str(",\"column_yields\":");
    write_list(out, &q.column_yields, |out, (c, b)| {
        write!(out, "[{},{}]", c.raw(), b.raw())
    })?;
    out.push('}');
    Ok(())
}

/// An integer literal that fits `u32`.
fn u32_literal(cur: &mut Cursor<'_>) -> std::result::Result<u32, String> {
    let at = cur.pos();
    let v = cur.u64_literal()?;
    u32::try_from(v).map_err(|_| format!("{v} at byte {at} does not fit u32"))
}

/// Replace `out`'s elements (keeping its capacity) with the array at
/// the cursor, each element read by `item`.
fn read_list<'a, T>(
    cur: &mut Cursor<'a>,
    out: &mut Vec<T>,
    mut item: impl FnMut(&mut Cursor<'a>) -> std::result::Result<T, String>,
) -> std::result::Result<(), String> {
    out.clear();
    let mut more = cur.begin_array()?;
    while more {
        out.push(item(cur)?);
        more = cur.next_element()?;
    }
    Ok(())
}

/// One `[id, bytes]` entry of a yield decomposition.
fn read_pair(cur: &mut Cursor<'_>) -> std::result::Result<(u32, Bytes), String> {
    let at = cur.pos();
    let pair = || format!("expected an [id, bytes] pair at byte {at}");
    if !cur.begin_array()? {
        return Err(pair());
    }
    let id = u32_literal(cur)?;
    if !cur.next_element()? {
        return Err(pair());
    }
    let bytes = cur.u64_literal()?;
    if cur.next_element()? {
        return Err(pair());
    }
    Ok((id, Bytes::new(bytes)))
}

/// Read the value of query field `FIELDS[field]` into `q`.
fn read_field(
    cur: &mut Cursor<'_>,
    field: usize,
    q: &mut TraceQuery,
) -> std::result::Result<(), String> {
    match field {
        0 => q.id = QueryId::new(u32_literal(cur)?),
        1 => cur.string_into(&mut q.sql)?,
        2 => q.template = u32_literal(cur)?,
        3 => read_list(cur, &mut q.data_keys, Cursor::u64_literal)?,
        4 => read_list(cur, &mut q.tables, |c| u32_literal(c).map(TableId::new))?,
        5 => read_list(cur, &mut q.columns, |c| u32_literal(c).map(ColumnId::new))?,
        6 => q.total_yield = Bytes::new(cur.u64_literal()?),
        7 => read_list(cur, &mut q.table_yields, |c| {
            read_pair(c).map(|(id, b)| (TableId::new(id), b))
        })?,
        8 => read_list(cur, &mut q.column_yields, |c| {
            read_pair(c).map(|(id, b)| (ColumnId::new(id), b))
        })?,
        _ => cur.skip_value()?,
    }
    Ok(())
}

/// Decode one query line into `q`, reusing its buffers. `key` is
/// scratch space for member keys. On error `q` holds a partial query.
fn decode_query(
    line: &[u8],
    key: &mut String,
    q: &mut TraceQuery,
) -> std::result::Result<(), String> {
    let mut cur = Cursor::new(line);
    // Bit i set: FIELDS[i] has been read (a repeat is skipped).
    let mut seen = 0u16;
    let mut more = cur.begin_object()?;
    while more {
        cur.key_into(key)?;
        match FIELDS.iter().position(|f| *f == key.as_str()) {
            Some(i) if seen & (1 << i) == 0 => {
                seen |= 1 << i;
                read_field(&mut cur, i, q).map_err(|e| format!("field {key:?}: {e}"))?;
            }
            _ => cur.skip_value()?,
        }
        more = cur.next_member()?;
    }
    cur.end()?;
    match FIELDS
        .iter()
        .enumerate()
        .find(|&(i, _)| seen & (1 << i) == 0)
    {
        Some((_, missing)) => Err(format!("missing field {missing:?}")),
        None => Ok(()),
    }
}

/// A query with every field empty: a buffer for [`decode_query`].
fn empty_query() -> TraceQuery {
    TraceQuery {
        id: QueryId::new(0),
        sql: String::new(),
        template: 0,
        data_keys: Vec::new(),
        tables: Vec::new(),
        columns: Vec::new(),
        total_yield: Bytes::ZERO,
        table_yields: Vec::new(),
        column_yields: Vec::new(),
    }
}

/// True for a line `str::trim` leaves empty; a query line starts with
/// `{`, so only lines that do not are checked.
fn is_blank(line: &[u8]) -> bool {
    line.first() != Some(&b'{') && std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

/// A streaming trace writer: the header (with the final query count)
/// goes out first, then one query per [`TraceWriter::write`] call.
/// Nothing is buffered beyond the `BufWriter` block, so
/// `gen-trace --queries 100000000` writes in constant memory.
///
/// The query count is part of the header, so it must be known up front;
/// [`TraceWriter::finish`] refuses a short file and [`TraceWriter::write`]
/// refuses an over-long one, keeping every produced file readable by
/// [`TraceReader`].
pub struct TraceWriter {
    w: BufWriter<File>,
    /// The line being encoded, reused across queries.
    line: String,
    promised: usize,
    written: usize,
}

impl TraceWriter {
    /// Open `path` for writing and emit the header line.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn create(path: &Path, name: &str, seed: u64, query_count: usize) -> Result<Self> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        let header = Header {
            format_version: FORMAT_VERSION,
            name: name.to_string(),
            seed,
            query_count,
        };
        writeln!(w, "{}", header.to_json())?;
        Ok(Self {
            w,
            line: String::new(),
            promised: query_count,
            written: 0,
        })
    }

    /// Number of queries written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Append one query line.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] when more queries arrive than
    /// the header promised.
    pub fn write(&mut self, q: &TraceQuery) -> Result<()> {
        if self.written >= self.promised {
            return Err(Error::TraceFormat(format!(
                "header promises {} queries; refusing to write more",
                self.promised
            )));
        }
        self.line.clear();
        // fmt::Write into a String cannot fail.
        let _ = encode_query(&mut self.line, q);
        self.line.push('\n');
        self.w.write_all(self.line.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Flush and close the file, checking the header's promise.
    ///
    /// # Errors
    ///
    /// [`Error::TraceFormat`] when fewer queries were written than the
    /// header promised; I/O errors from the final flush.
    pub fn finish(mut self) -> Result<()> {
        if self.written != self.promised {
            return Err(Error::TraceFormat(format!(
                "header promises {} queries, wrote {}",
                self.promised, self.written
            )));
        }
        self.w.flush()?;
        Ok(())
    }
}

/// A chunked trace reader: parses the header eagerly, then streams
/// queries on demand via [`TraceReader::next_chunk_into`] without ever
/// materializing the whole trace. The replay engine's streaming path
/// feeds on this to keep 100M-query replays in constant memory.
pub struct TraceReader {
    input: BufReader<File>,
    /// The current line, without its line ending; reused across lines.
    line: Vec<u8>,
    /// Scratch for member keys while decoding.
    key: String,
    name: String,
    seed: u64,
    query_count: usize,
    delivered: usize,
    line_no: usize,
    finished: bool,
}

impl TraceReader {
    /// Open `path` and parse the header line.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on a missing or malformed
    /// header or a format-version mismatch.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let mut reader = Self {
            input: BufReader::new(file),
            line: Vec::new(),
            key: String::new(),
            name: String::new(),
            seed: 0,
            query_count: 0,
            delivered: 0,
            line_no: 0,
            finished: false,
        };
        if !reader.read_line()? {
            return Err(Error::TraceFormat("empty trace file".into()));
        }
        let header = std::str::from_utf8(&reader.line)
            .map_err(|e| e.to_string())
            .and_then(Value::parse)
            .map_err(|e| Error::TraceFormat(format!("bad header: {e}")))?;
        let header = Header::from_json(&header)
            .map_err(|e| Error::TraceFormat(format!("bad header: {e}")))?;
        if header.format_version != FORMAT_VERSION {
            return Err(Error::TraceFormat(format!(
                "unsupported format version {} (expected {FORMAT_VERSION})",
                header.format_version
            )));
        }
        reader.name = header.name;
        reader.seed = header.seed;
        reader.query_count = header.query_count;
        Ok(reader)
    }

    /// Read the next line into `self.line`, stripping `\n` or `\r\n`.
    /// `false` at end of file.
    fn read_line(&mut self) -> Result<bool> {
        self.line.clear();
        if self.input.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(false);
        }
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
            if self.line.last() == Some(&b'\r') {
                self.line.pop();
            }
        }
        self.line_no += 1;
        Ok(true)
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generator seed from the header.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total query count promised by the header.
    pub fn query_count(&self) -> usize {
        self.query_count
    }

    /// Queries handed out so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Refill `out` in place with up to `max` queries (at least 1 is
    /// attempted). Queries already in `out` are overwritten, reusing the
    /// capacity of their `sql` and vectors; `out` is then truncated to
    /// what was read. An empty `out` means end of file; at that point
    /// the header's query count has been verified against what the file
    /// actually held. On error, `out`'s contents are unspecified.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::TraceFormat`] on malformed lines or a final
    /// count that disagrees with the header.
    pub fn next_chunk_into(&mut self, out: &mut Vec<TraceQuery>, max: usize) -> Result<()> {
        let mut filled = 0;
        let max = max.max(1);
        while !self.finished && filled < max {
            if !self.read_line()? {
                self.finished = true;
                let total = self.delivered + filled;
                if total != self.query_count {
                    return Err(Error::TraceFormat(format!(
                        "header promises {} queries, file has {}",
                        self.query_count, total
                    )));
                }
                break;
            }
            if is_blank(&self.line) {
                continue;
            }
            let decoded = match out.get_mut(filled) {
                Some(q) => decode_query(&self.line, &mut self.key, q),
                None => {
                    let mut q = empty_query();
                    let decoded = decode_query(&self.line, &mut self.key, &mut q);
                    out.push(q);
                    decoded
                }
            };
            decoded.map_err(|e| {
                Error::TraceFormat(format!("bad query on line {}: {e}", self.line_no))
            })?;
            filled += 1;
        }
        out.truncate(filled);
        self.delivered += filled;
        Ok(())
    }

    /// Read up to `max` queries (at least 1 is attempted) into a new
    /// vector: [`TraceReader::next_chunk_into`] without buffer reuse. An
    /// empty vector means end of file.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::next_chunk_into`].
    pub fn next_chunk(&mut self, max: usize) -> Result<Vec<TraceQuery>> {
        let mut out = Vec::new();
        self.next_chunk_into(&mut out, max)?;
        Ok(out)
    }
}

/// Write `trace` to `path` in JSON-lines format.
///
/// # Errors
///
/// I/O errors and serialization failures as [`Error::TraceFormat`].
pub fn write_trace(trace: &Trace, path: &Path) -> Result<()> {
    let mut w = TraceWriter::create(path, &trace.name, trace.seed, trace.queries.len())?;
    for q in &trace.queries {
        w.write(q)?;
    }
    w.finish()
}

/// Read a trace previously written by [`write_trace`].
///
/// # Errors
///
/// [`Error::TraceFormat`] on version mismatch, malformed lines, or a
/// query count that disagrees with the header.
pub fn read_trace(path: &Path) -> Result<Trace> {
    let mut r = TraceReader::open(path)?;
    let mut queries = Vec::with_capacity(r.query_count().min(1 << 20));
    loop {
        let chunk = r.next_chunk(8192)?;
        if chunk.is_empty() {
            break;
        }
        queries.extend(chunk);
    }
    Ok(Trace {
        name: r.name().to_string(),
        seed: r.seed(),
        queries,
    })
}

/// The `Value`-tree codec the direct encoder and field decoder replaced,
/// kept as their oracle.
#[cfg(test)]
mod oracle {
    use super::*;

    fn field_array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value]> {
        field(v, key)?
            .as_array()
            .ok_or_else(|| Error::TraceFormat(format!("field {key:?} is not an array")))
    }

    fn yield_pairs(pairs: &[(u32, Bytes)]) -> Value {
        Value::Array(
            pairs
                .iter()
                .map(|&(id, b)| Value::Array(vec![Value::u64(id.into()), Value::u64(b.raw())]))
                .collect(),
        )
    }

    fn parse_yield_pairs(v: &Value, key: &str) -> Result<Vec<(u32, Bytes)>> {
        field_array(v, key)?
            .iter()
            .map(|pair| {
                let (id_v, bytes_v) = match pair.as_array() {
                    Some([id, bytes]) => (id, bytes),
                    _ => {
                        return Err(Error::TraceFormat(format!(
                            "field {key:?} entries must be [id, bytes] pairs"
                        )))
                    }
                };
                let id = id_v
                    .as_u32()
                    .ok_or_else(|| Error::TraceFormat(format!("bad id in {key:?}")))?;
                let bytes = bytes_v
                    .as_u64()
                    .ok_or_else(|| Error::TraceFormat(format!("bad byte count in {key:?}")))?;
                Ok((id, Bytes::new(bytes)))
            })
            .collect()
    }

    pub(super) fn query_to_json(q: &TraceQuery) -> Value {
        Value::Object(vec![
            ("id".into(), Value::u64(q.id.raw().into())),
            ("sql".into(), Value::str(&q.sql)),
            ("template".into(), Value::u64(q.template.into())),
            (
                "data_keys".into(),
                Value::Array(q.data_keys.iter().map(|&k| Value::u64(k)).collect()),
            ),
            (
                "tables".into(),
                Value::Array(
                    q.tables
                        .iter()
                        .map(|t| Value::u64(t.raw().into()))
                        .collect(),
                ),
            ),
            (
                "columns".into(),
                Value::Array(
                    q.columns
                        .iter()
                        .map(|c| Value::u64(c.raw().into()))
                        .collect(),
                ),
            ),
            ("total_yield".into(), Value::u64(q.total_yield.raw())),
            (
                "table_yields".into(),
                yield_pairs(
                    &q.table_yields
                        .iter()
                        .map(|&(t, b)| (t.raw(), b))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "column_yields".into(),
                yield_pairs(
                    &q.column_yields
                        .iter()
                        .map(|&(c, b)| (c.raw(), b))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    pub(super) fn query_from_json(v: &Value) -> Result<TraceQuery> {
        if !v.is_object() {
            return Err(Error::TraceFormat("query is not an object".into()));
        }
        let u64_list = |key: &str| -> Result<Vec<u64>> {
            field_array(v, key)?
                .iter()
                .map(|item| {
                    item.as_u64()
                        .ok_or_else(|| Error::TraceFormat(format!("bad entry in {key:?}")))
                })
                .collect()
        };
        let id_list = |key: &str| -> Result<Vec<u32>> {
            field_array(v, key)?
                .iter()
                .map(|item| {
                    item.as_u32()
                        .ok_or_else(|| Error::TraceFormat(format!("bad id in {key:?}")))
                })
                .collect()
        };
        Ok(TraceQuery {
            id: QueryId::new(field_u32(v, "id")?),
            sql: field_str(v, "sql")?.to_string(),
            template: field_u32(v, "template")?,
            data_keys: u64_list("data_keys")?,
            tables: id_list("tables")?.into_iter().map(TableId::new).collect(),
            columns: id_list("columns")?.into_iter().map(ColumnId::new).collect(),
            total_yield: Bytes::new(field_u64(v, "total_yield")?),
            table_yields: parse_yield_pairs(v, "table_yields")?
                .into_iter()
                .map(|(id, b)| (TableId::new(id), b))
                .collect(),
            column_yields: parse_yield_pairs(v, "column_yields")?
                .into_iter()
                .map(|(id, b)| (ColumnId::new(id), b))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{query_from_json, query_to_json};
    use super::*;
    use crate::generator::{generate, WorkloadConfig};
    use byc_catalog::sdss::{build, SdssRelease};
    use byc_types::json::Num;
    use byc_types::SplitMix64;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("byc-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(29, 200)).unwrap();
        let path = tmp("roundtrip.jsonl");
        write_trace(&trace, &path).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_rejected() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(matches!(err, Error::TraceFormat(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_rejected() {
        let path = tmp("version.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":99,\"name\":\"x\",\"seed\":0,\"query_count\":0}\n",
        )
        .unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("version"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn count_mismatch_rejected() {
        let path = tmp("count.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":3}\n",
        )
        .unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("promises 3"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_query_line_rejected() {
        let path = tmp("malformed.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":1}\nnot-json\n",
        )
        .unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_trace(Path::new("/nonexistent/nope.jsonl")).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }

    #[test]
    fn streamed_write_then_chunked_read_roundtrips() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(31, 150)).unwrap();
        let path = tmp("stream-roundtrip.jsonl");
        let mut w = TraceWriter::create(&path, &trace.name, trace.seed, trace.len()).unwrap();
        for q in &trace.queries {
            w.write(q).unwrap();
        }
        assert_eq!(w.written(), 150);
        w.finish().unwrap();

        // Chunk sizes around the edges: 1, a non-divisor, and larger
        // than the whole trace must all reassemble the same queries.
        for chunk in [1usize, 7, 1000] {
            let mut r = TraceReader::open(&path).unwrap();
            assert_eq!(r.name(), trace.name);
            assert_eq!(r.seed(), trace.seed);
            assert_eq!(r.query_count(), 150);
            let mut back = Vec::new();
            loop {
                let got = r.next_chunk(chunk).unwrap();
                if got.is_empty() {
                    break;
                }
                assert!(got.len() <= chunk);
                back.extend(got);
            }
            assert_eq!(back, trace.queries, "chunk size {chunk}");
            assert_eq!(r.delivered(), 150);
            // EOF is sticky.
            assert!(r.next_chunk(chunk).unwrap().is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_streams_cleanly() {
        let path = tmp("stream-empty.jsonl");
        let w = TraceWriter::create(&path, "empty", 9, 0).unwrap();
        w.finish().unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.query_count(), 0);
        assert!(r.next_chunk(64).unwrap().is_empty());
        let back = read_trace(&path).unwrap();
        assert!(back.queries.is_empty());
        assert_eq!(back.name, "empty");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_enforces_promised_count() {
        let cat = build(SdssRelease::Edr, 1e-3, 1);
        let trace = generate(&cat, &WorkloadConfig::smoke(37, 3)).unwrap();
        let path = tmp("promise-short.jsonl");
        let mut w = TraceWriter::create(&path, "t", 0, 3).unwrap();
        w.write(&trace.queries[0]).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("wrote 1"));

        let mut w = TraceWriter::create(&path, "t", 0, 1).unwrap();
        w.write(&trace.queries[0]).unwrap();
        let err = w.write(&trace.queries[1]).unwrap_err();
        assert!(err.to_string().contains("refusing to write more"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_detects_short_file_at_eof() {
        let path = tmp("stream-short.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":3}\n",
        )
        .unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let err = r.next_chunk(16).unwrap_err();
        assert!(err.to_string().contains("promises 3"));
        std::fs::remove_file(&path).ok();
    }

    /// Small generated traces of both releases.
    fn sample_traces() -> Vec<Trace> {
        [(SdssRelease::Edr, "EDR"), (SdssRelease::Dr1, "DR1")]
            .into_iter()
            .map(|(release, name)| {
                let cat = build(release, 1e-3, 1);
                let config = WorkloadConfig {
                    name: name.into(),
                    ..WorkloadConfig::smoke(41, 300)
                };
                generate(&cat, &config).unwrap()
            })
            .collect()
    }

    fn encode(q: &TraceQuery) -> String {
        let mut line = String::new();
        encode_query(&mut line, q).unwrap();
        line
    }

    /// Decode one line on a fresh buffer.
    fn decode(line: &[u8]) -> std::result::Result<TraceQuery, String> {
        let mut q = empty_query();
        decode_query(line, &mut String::new(), &mut q).map(|()| q)
    }

    /// A hand-made query whose SQL needs every kind of escaping.
    fn awkward_query() -> TraceQuery {
        TraceQuery {
            id: QueryId::new(u32::MAX),
            sql: "select \"a\\b\" from T where s = 'x\n\r\t\u{1}\u{1f}\u{7f}' -- é 😀 \u{2028}"
                .into(),
            template: 3,
            data_keys: vec![0, u64::MAX],
            tables: vec![TableId::new(0)],
            columns: Vec::new(),
            total_yield: Bytes::new(u64::MAX),
            table_yields: vec![(TableId::new(0), Bytes::new(u64::MAX))],
            column_yields: Vec::new(),
        }
    }

    #[test]
    fn direct_encoder_matches_value_tree_bytes() {
        let traces = sample_traces();
        let awkward = awkward_query();
        let queries = traces
            .iter()
            .flat_map(|t| &t.queries)
            .chain(std::iter::once(&awkward));
        for q in queries {
            assert_eq!(encode(q), query_to_json(q).to_string());
        }
        let line = encode(&awkward_query());
        assert!(line.contains(r#"\"a\\b\""#) && line.contains(r"\u0001\u001f"));
        assert!(line.contains('\u{7f}') && line.contains("é 😀 \u{2028}"));
    }

    #[test]
    fn decoder_matches_value_tree_oracle_on_generated_traces() {
        for trace in sample_traces() {
            for q in trace
                .queries
                .iter()
                .chain(std::iter::once(&awkward_query()))
            {
                let line = encode(q);
                let oracle = query_from_json(&Value::parse(&line).unwrap()).unwrap();
                assert_eq!(&oracle, q);
                assert_eq!(decode(line.as_bytes()).unwrap(), oracle);
            }
        }
    }

    /// The integer query fields, as the oracle reads them.
    const INTEGER_FIELDS: [&str; 8] = [
        "id",
        "template",
        "data_keys",
        "tables",
        "columns",
        "total_yield",
        "table_yields",
        "column_yields",
    ];

    fn has_float(v: &Value) -> bool {
        match v {
            Value::Number(Num::F(_)) => true,
            Value::Array(items) => items.iter().any(has_float),
            _ => false,
        }
    }

    /// Decode `line` and hold the result against the oracle: never a
    /// panic, and `Ok(q)` exactly when the oracle returns `Ok(q)`, but
    /// for the integer-literal narrowing.
    fn check_against_oracle(line: &[u8]) {
        let got = decode(line);
        let tree = std::str::from_utf8(line)
            .ok()
            .and_then(|s| Value::parse(s).ok());
        let want = tree.as_ref().map(query_from_json);
        match (got, want) {
            (Ok(q), Some(Ok(o))) => assert_eq!(q, o, "line {:?}", String::from_utf8_lossy(line)),
            (Err(_), None | Some(Err(_))) => {}
            (Err(e), Some(Ok(_))) => {
                let tree = tree.unwrap();
                let narrowed = INTEGER_FIELDS
                    .iter()
                    .any(|k| tree.get(k).is_some_and(has_float));
                assert!(
                    narrowed && e.contains("integer literal"),
                    "decoder rejected what the oracle accepts: {e}: {:?}",
                    String::from_utf8_lossy(line)
                );
            }
            (Ok(q), _) => panic!(
                "decoder accepted what the oracle rejects: {q:?} from {:?}",
                String::from_utf8_lossy(line)
            ),
        }
    }

    /// A uniform index in `0..n`.
    fn below(rng: &mut SplitMix64, n: usize) -> usize {
        usize::try_from(rng.next_bounded(n as u64)).unwrap()
    }

    /// Render `v` compactly but with random whitespace between tokens.
    fn spaced(v: &Value, rng: &mut SplitMix64, out: &mut String) {
        const WS: [&str; 5] = ["", " ", "\t", "\r\n", "  \n "];
        let ws = |out: &mut String, rng: &mut SplitMix64| {
            let w: &&str = rng.pick(&WS);
            out.push_str(w);
        };
        ws(out, rng);
        match v {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    spaced(item, rng, out);
                }
                ws(out, rng);
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(out, rng);
                    out.push_str(&Value::str(k).to_string());
                    ws(out, rng);
                    out.push(':');
                    spaced(item, rng, out);
                }
                ws(out, rng);
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_string()),
        }
        ws(out, rng);
    }

    /// Structural mutations of one query's tree, rendered to lines.
    fn structural_mutants(q: &TraceQuery, rng: &mut SplitMix64) -> Vec<String> {
        let Value::Object(fields) = query_to_json(q) else {
            unreachable!("queries encode as objects")
        };
        let mut out = Vec::new();
        for _ in 0..4 {
            let mut line = String::new();
            spaced(&Value::Object(fields.clone()), rng, &mut line);
            out.push(line);

            let mut permuted = fields.clone();
            rng.shuffle(&mut permuted);
            out.push(Value::Object(permuted).to_string());

            let unknown =
                Value::parse(r#"{"a":[1,-2,3.5e1,{"b":null}],"c":"s\"t","d":[true,false]}"#)
                    .unwrap();
            let mut extended = fields.clone();
            let at = below(rng, extended.len() + 1);
            extended.insert(at, ("x_unknown".into(), unknown));
            out.push(Value::Object(extended).to_string());

            // A duplicate of a real key, carrying a value of the right
            // type, of the wrong type, or a narrowed float.
            let dup_key = rng.pick(&FIELDS).to_string();
            let dup_value = match rng.next_bounded(3) {
                0 => fields
                    .iter()
                    .find(|(k, _)| *k == dup_key)
                    .unwrap()
                    .1
                    .clone(),
                1 => Value::str("oops"),
                _ => Value::f64(7.0),
            };
            let mut duplicated = fields.clone();
            let at = below(rng, duplicated.len() + 1);
            duplicated.insert(at, (dup_key, dup_value));
            out.push(Value::Object(duplicated).to_string());

            let mut dropped = fields.clone();
            dropped.remove(below(rng, dropped.len()));
            out.push(Value::Object(dropped).to_string());
        }
        out
    }

    #[test]
    fn mutated_lines_never_panic_and_agree_with_oracle() {
        let mut rng = SplitMix64::new(0x5eed);
        let traces = sample_traces();
        let awkward = awkward_query();
        let queries = traces
            .iter()
            .flat_map(|t| t.queries.iter().step_by(25))
            .chain(std::iter::once(&awkward));
        for q in queries {
            let line = encode(q);
            let bytes = line.as_bytes();
            check_against_oracle(bytes);
            for cut in 0..bytes.len() {
                check_against_oracle(&bytes[..cut]);
            }
            for _ in 0..200 {
                let mut flipped = bytes.to_vec();
                let at = below(&mut rng, flipped.len());
                flipped[at] ^= 1 << rng.next_bounded(8);
                check_against_oracle(&flipped);
                // Also try bytes the grammar cares about.
                flipped[at] = *rng.pick(b"{}[],:\"\\-.eE0u \x00\xff");
                check_against_oracle(&flipped);
            }
            for mutant in structural_mutants(q, &mut rng) {
                check_against_oracle(mutant.as_bytes());
            }
        }
    }

    #[test]
    fn decoder_and_oracle_agree_on_hand_made_edge_lines() {
        let base = encode(&awkward_query());
        let with = |field: &str, value: &str| {
            let tree = Value::parse(&base).unwrap();
            let Value::Object(mut fields) = tree else {
                unreachable!()
            };
            for (k, v) in &mut fields {
                if k == field {
                    *v = Value::parse(value).unwrap();
                }
            }
            Value::Object(fields).to_string()
        };
        let lines = [
            with("id", "4294967296"),
            with("id", "-0"),
            with("id", "-1"),
            with("template", "007"),
            with("total_yield", "18446744073709551616"),
            with("data_keys", "[1,2.5]"),
            with("table_yields", "[[1]]"),
            with("table_yields", "[[1,2,3]]"),
            with("table_yields", "[[]]"),
            with("column_yields", "[[4294967296,1]]"),
            with("sql", r#""😀 \ud800A""#),
            with("tables", "{}"),
            "[]".into(),
            "{}".into(),
            format!("{base} trailing"),
            format!("  {base}  "),
        ];
        for line in &lines {
            check_against_oracle(line.as_bytes());
        }
    }

    /// A one-query file whose query line is `line`.
    fn one_line_file(name: &str, line: &[u8]) -> std::path::PathBuf {
        let path = tmp(name);
        let mut bytes =
            b"{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":1}\n".to_vec();
        bytes.extend_from_slice(line);
        bytes.push(b'\n');
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn integer_fields_take_integer_literals_only() {
        let base = encode(&awkward_query());
        for (field, literal) in [
            ("total_yield", "5.0"),
            ("id", "1e3"),
            ("template", "1E2"),
            ("total_yield", "9007199254740993.0"),
            ("data_keys", "[9007199254740993.0]"),
            ("table_yields", "[[0,5.0]]"),
        ] {
            let tree = Value::parse(&base).unwrap();
            let Value::Object(mut fields) = tree else {
                unreachable!()
            };
            for (k, v) in &mut fields {
                if k == field {
                    // Splice the literal in verbatim: `Value` would
                    // re-render 1e3 as 1000.0.
                    *v = Value::str("@");
                }
            }
            let line = Value::Object(fields).to_string().replace("\"@\"", literal);
            let path = one_line_file("narrow.jsonl", line.as_bytes());
            let err = read_trace(&path).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, Error::TraceFormat(_)), "{msg}");
            assert!(msg.contains("line 2") && msg.contains(field), "{msg}");
            assert!(msg.contains("integer literal"), "{msg}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn yield_of_two_pow_64_is_rejected_not_saturated() {
        let line = encode(&awkward_query()).replace(
            "\"total_yield\":18446744073709551615",
            "\"total_yield\":18446744073709551616",
        );
        let path = one_line_file("two-pow-64.jsonl", line.as_bytes());
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("total_yield"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_count_of_two_pow_64_is_rejected() {
        let path = tmp("header-two-pow-64.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":18446744073709551616}\n",
        )
        .unwrap();
        let err = TraceReader::open(&path).err().unwrap();
        assert!(err.to_string().contains("query_count"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_pointer_width = "32")]
    #[test]
    fn header_count_beyond_usize_is_rejected() {
        let path = tmp("header-usize.jsonl");
        std::fs::write(
            &path,
            "{\"format_version\":1,\"name\":\"x\",\"seed\":0,\"query_count\":4294967296}\n",
        )
        .unwrap();
        let err = TraceReader::open(&path).err().unwrap();
        assert!(err.to_string().contains("usize"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_query_line_is_a_format_error_with_its_line() {
        let mut line = encode(&awkward_query()).into_bytes();
        let at = line.iter().position(|&b| b == b's').unwrap() + 10;
        line[at] = 0xff;
        let path = one_line_file("non-utf8.jsonl", &line);
        let err = read_trace(&path).unwrap_err();
        assert!(matches!(err, Error::TraceFormat(_)), "{err}");
        assert!(err.to_string().contains("bad query on line 2"), "{err}");
        assert!(err.to_string().contains("UTF-8"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crlf_files_and_blank_lines_read_back_equal() {
        let trace = sample_traces().remove(1);
        let path = tmp("crlf.jsonl");
        write_trace(&trace, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace('\n', "\r\n")).unwrap();
        assert_eq!(read_trace(&path).unwrap(), trace);

        let mut padded = String::new();
        for (i, line) in text.lines().enumerate() {
            padded.push_str(line);
            padded.push_str(["\n", "\n\n", "\n \t\n", "\r\n\r\n", "\n\u{3000}\n"][i % 5]);
        }
        std::fs::write(&path, &padded).unwrap();
        assert_eq!(read_trace(&path).unwrap(), trace);

        // Line numbers in errors count the blank lines too.
        std::fs::write(
            &path,
            format!("{}\n\n\n{{\"id\":1}}\n", text.lines().next().unwrap()),
        )
        .unwrap();
        let err = read_trace(&path).unwrap_err().to_string();
        assert!(
            err.contains("line 4") && err.contains("missing field \"sql\""),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunks_into_one_reused_buffer_match_read_trace() {
        let trace = sample_traces().remove(0);
        let path = tmp("reuse.jsonl");
        write_trace(&trace, &path).unwrap();
        let whole = read_trace(&path).unwrap();
        assert_eq!(whole, trace);
        for chunk in [1usize, 7, 1000] {
            let mut r = TraceReader::open(&path).unwrap();
            let mut buf = Vec::new();
            let mut back = Vec::new();
            loop {
                r.next_chunk_into(&mut buf, chunk).unwrap();
                if buf.is_empty() {
                    break;
                }
                assert!(buf.len() <= chunk);
                back.extend(buf.iter().cloned());
            }
            assert_eq!(back, whole.queries, "chunk size {chunk}");
            assert_eq!(r.delivered(), whole.len());
            r.next_chunk_into(&mut buf, chunk).unwrap();
            assert!(buf.is_empty(), "EOF is sticky");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reused_buffers_keep_no_stale_elements() {
        let long = awkward_query();
        let short = TraceQuery {
            id: QueryId::new(1),
            sql: "x".into(),
            template: 0,
            data_keys: Vec::new(),
            tables: vec![TableId::new(9)],
            columns: Vec::new(),
            total_yield: Bytes::new(1),
            table_yields: Vec::new(),
            column_yields: vec![(ColumnId::new(2), Bytes::new(1))],
        };
        let path = tmp("stale.jsonl");
        let trace = Trace {
            name: "x".into(),
            seed: 0,
            queries: vec![long.clone(), short.clone(), long.clone()],
        };
        write_trace(&trace, &path).unwrap();
        let mut r = TraceReader::open(&path).unwrap();
        let mut buf = Vec::new();
        for want in &trace.queries {
            r.next_chunk_into(&mut buf, 1).unwrap();
            assert_eq!(buf.as_slice(), std::slice::from_ref(want));
        }
        // A short chunk after a long one truncates the buffer.
        let mut r = TraceReader::open(&path).unwrap();
        r.next_chunk_into(&mut buf, 2).unwrap();
        assert_eq!(buf, [long.clone(), short]);
        r.next_chunk_into(&mut buf, 2).unwrap();
        assert_eq!(buf, [long]);
        r.next_chunk_into(&mut buf, 2).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
