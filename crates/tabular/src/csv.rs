//! CSV ingest and export for datasets.
//!
//! Format: header row of attribute names plus a final `class` column; nominal
//! values are written as category names, numerics with full precision. This
//! is a deliberately small hand-rolled reader/writer (the pre-approved crate
//! set has no CSV crate and the format we need is a strict subset: no quoting
//! or embedded commas — generated identifiers never contain either).
//!
//! Reading is **streaming**: [`read_csv_streaming`] parses each line
//! directly into typed column buffers and bulk-appends them to the dataset
//! in fixed-size chunks ([`Dataset::append_columns`]). No intermediate
//! `Vec<Vec<Value>>` of boxed rows is ever built, so peak memory beyond the
//! dataset itself is one chunk of column staging. Parse errors carry the
//! 1-based line number ([`TabularError::Csv`]).

use std::io::{BufRead, Write};

use crate::{AttrKind, ClassId, Column, Dataset, Schema, TabularError, Value};

/// Rows staged per bulk append during streaming reads. Bounds the staging
/// memory while keeping per-append validation amortized.
const CHUNK_ROWS: usize = 4096;

/// Writes `ds` as CSV to `out`.
pub fn write_csv<W: Write>(ds: &Dataset, out: &mut W) -> std::io::Result<()> {
    write_csv_header(ds.schema(), out)?;
    write_csv_rows(ds, out)
}

/// Writes the header line for `schema` (attribute names plus `class`).
/// Split out from [`write_csv`] so chunked producers (the datagen
/// streaming writer) can emit the identical format without materializing
/// the whole dataset.
pub fn write_csv_header<W: Write>(schema: &Schema, out: &mut W) -> std::io::Result<()> {
    let names: Vec<&str> = schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .chain(std::iter::once("class"))
        .collect();
    writeln!(out, "{}", names.join(","))
}

/// Writes the data rows of `ds` (no header) in [`write_csv`]'s row
/// format — the chunk-append counterpart of [`write_csv_header`].
pub fn write_csv_rows<W: Write>(ds: &Dataset, out: &mut W) -> std::io::Result<()> {
    for i in 0..ds.len() {
        for (a, attr) in ds.schema().attributes().iter().enumerate() {
            match (&attr.kind, ds.column(a)) {
                (AttrKind::Nominal { categories }, Column::Nominal(codes)) => {
                    write!(out, "{},", categories[codes[i] as usize])?
                }
                (_, col) => write!(out, "{},", col.value(i))?,
            }
        }
        writeln!(out, "{}", ds.class_names()[ds.label(i)])?;
    }
    Ok(())
}

/// Per-chunk column staging for the streaming reader.
struct ChunkStage {
    columns: Vec<Column>,
    labels: Vec<ClassId>,
}

impl ChunkStage {
    fn new(schema: &Schema) -> Self {
        ChunkStage {
            columns: schema
                .attributes()
                .iter()
                .map(|a| Column::empty_for(&a.kind))
                .collect(),
            labels: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn flush_into(&mut self, ds: &mut Dataset, line: usize) -> crate::Result<()> {
        if self.labels.is_empty() {
            return Ok(());
        }
        let columns = self
            .columns
            .iter_mut()
            .map(|c| {
                let empty = match c {
                    Column::Num(_) => Column::num(Vec::new()),
                    Column::Nominal(_) => Column::nominal(Vec::new()),
                };
                std::mem::replace(c, empty)
            })
            .collect();
        let labels = std::mem::take(&mut self.labels);
        // The parser validated every cell, so this only fails on logic
        // errors; map them to the chunk's last line for diagnosability.
        ds.append_columns(columns, labels)
            .map_err(|e| TabularError::Csv {
                line,
                msg: format!("chunk append failed: {e}"),
            })
    }
}

/// Reads a dataset written by [`write_csv`] with constant staging memory:
/// each line is parsed straight into typed column buffers which are
/// bulk-appended every `CHUNK_ROWS` rows.
///
/// Errors carry the 1-based line number of the offending row (the header is
/// line 1), so a malformed row in the middle of a million-row file is
/// reported precisely — and nothing after it is consumed.
pub fn read_csv_streaming<R: BufRead>(
    schema: Schema,
    class_names: Vec<String>,
    input: R,
) -> crate::Result<Dataset> {
    let csv_err = |line: usize, msg: String| TabularError::Csv { line, msg };
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| csv_err(1, "missing header".into()))?
        .map_err(|e| csv_err(1, e.to_string()))?;
    // `BufRead::lines()` splits on `\n` only, so CRLF files keep the `\r`
    // on every line; strip it before splitting into cells.
    let header = strip_cr(&header);
    let cols = header.split(',').count();
    if cols != schema.arity() + 1 {
        return Err(csv_err(
            1,
            format!(
                "header has {} columns, expected {}",
                cols,
                schema.arity() + 1
            ),
        ));
    }

    let mut ds = Dataset::new(schema, class_names);
    let mut stage = ChunkStage::new(ds.schema());
    let arity = ds.schema().arity();
    for (k, line) in lines.enumerate() {
        let lineno = k + 2; // 1-based, after the header
        let raw = line.map_err(|e| csv_err(lineno, e.to_string()))?;
        // Strip the CRLF remnant first: a bare `\r` line (blank line in a
        // CRLF file) must be skipped like any other empty line.
        let line = strip_cr(&raw);
        if line.is_empty() {
            continue;
        }
        let mut cells = line.split(',');
        for a in 0..arity {
            let cell = cells
                .next()
                .ok_or_else(|| csv_err(lineno, format!("{} cells, expected {}", a, arity + 1)))?;
            let value = parse_cell(&ds.schema().attribute(a).kind, cell)
                .map_err(|msg| csv_err(lineno, msg))?;
            match (value, &mut stage.columns[a]) {
                (Value::Num(x), Column::Num(xs)) => xs.push(x),
                (Value::Nominal(code), Column::Nominal(cs)) => cs.push(code),
                _ => unreachable!("stage columns mirror the schema kinds"),
            }
        }
        let class_cell = cells
            .next()
            .ok_or_else(|| csv_err(lineno, format!("{arity} cells, expected {}", arity + 1)))?
            .trim();
        if cells.next().is_some() {
            return Err(csv_err(
                lineno,
                format!("too many cells, expected {}", arity + 1),
            ));
        }
        // Any error aborts the whole read (the partial dataset is dropped),
        // so a half-staged row can never leak out.
        let label = ds
            .class_names()
            .iter()
            .position(|c| c == class_cell)
            .ok_or_else(|| csv_err(lineno, format!("unknown class {class_cell:?}")))?;
        stage.labels.push(label);
        if stage.len() >= CHUNK_ROWS {
            stage.flush_into(&mut ds, lineno)?;
        }
    }
    stage.flush_into(&mut ds, 0)?;
    Ok(ds)
}

/// Drops the trailing `\r` that [`BufRead::lines`] leaves on every line of
/// a CRLF file (`lines()` splits on `\n` only).
fn strip_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// Parses one CSV cell against an attribute kind — the single source of
/// cell semantics shared by [`read_csv_streaming`], [`parse_csv_block`],
/// and external ingest pipelines (`nr-store`). Surrounding whitespace is
/// ignored (Windows tools routinely pad cells, and the trailing cell of a
/// CRLF row would otherwise carry a stray `\r`).
pub fn parse_csv_cell(kind: &AttrKind, cell: &str) -> Result<Value, String> {
    parse_cell(kind, cell)
}

/// Parses a header-less block of CSV rows (each with a trailing class
/// column) into per-attribute column buffers plus labels — the unit of
/// work of a parallel chunked ingest. Semantics are identical to the body
/// loop of [`read_csv_streaming`]: cells are trimmed, a trailing `\r` per
/// line and empty lines are tolerated, and errors carry the absolute
/// 1-based line number `first_line + offset_within_block`.
pub fn parse_csv_block(
    schema: &Schema,
    class_names: &[String],
    block: &[u8],
    first_line: usize,
) -> crate::Result<(Vec<Column>, Vec<ClassId>)> {
    let csv_err = |line: usize, msg: String| TabularError::Csv { line, msg };
    let arity = schema.arity();
    let mut columns: Vec<Column> = schema
        .attributes()
        .iter()
        .map(|a| Column::empty_for(&a.kind))
        .collect();
    let mut labels: Vec<ClassId> = Vec::new();
    for (k, raw) in block.split(|&b| b == b'\n').enumerate() {
        let lineno = first_line + k;
        let raw = std::str::from_utf8(raw).map_err(|e| csv_err(lineno, e.to_string()))?;
        let line = strip_cr(raw);
        if line.is_empty() {
            continue;
        }
        let mut cells = line.split(',');
        for (a, col) in columns.iter_mut().enumerate() {
            let cell = cells
                .next()
                .ok_or_else(|| csv_err(lineno, format!("{} cells, expected {}", a, arity + 1)))?;
            let value =
                parse_cell(&schema.attribute(a).kind, cell).map_err(|msg| csv_err(lineno, msg))?;
            match (value, col) {
                (Value::Num(x), Column::Num(xs)) => xs.push(x),
                (Value::Nominal(code), Column::Nominal(cs)) => cs.push(code),
                _ => unreachable!("columns mirror the schema kinds"),
            }
        }
        let class_cell = cells
            .next()
            .ok_or_else(|| csv_err(lineno, format!("{arity} cells, expected {}", arity + 1)))?
            .trim();
        if cells.next().is_some() {
            return Err(csv_err(
                lineno,
                format!("too many cells, expected {}", arity + 1),
            ));
        }
        let label = class_names
            .iter()
            .position(|c| c == class_cell)
            .ok_or_else(|| csv_err(lineno, format!("unknown class {class_cell:?}")))?;
        labels.push(label);
    }
    Ok((columns, labels))
}

/// Parses one CSV cell against an attribute kind. Surrounding whitespace
/// is ignored (Windows tools routinely pad cells, and the trailing cell of
/// a CRLF row would otherwise carry a stray `\r`).
fn parse_cell(kind: &AttrKind, cell: &str) -> Result<Value, String> {
    let cell = cell.trim();
    match kind {
        AttrKind::Numeric => {
            let x: f64 = cell
                .parse()
                .map_err(|e| format!("bad number {cell:?}: {e}"))?;
            if !x.is_finite() {
                return Err(format!("non-finite number {cell:?}"));
            }
            Ok(Value::Num(x))
        }
        AttrKind::Nominal { categories } => {
            let code = categories
                .iter()
                .position(|c| c == cell)
                .ok_or_else(|| format!("unknown category {cell:?}"))?;
            Ok(Value::Nominal(code as u32))
        }
    }
}

/// Parses one header-less CSV row of attribute values (no class column)
/// against `schema` — the serving ingest path, where rows arrive without
/// labels. Cell whitespace and a trailing `\r` are tolerated exactly like
/// [`read_csv_streaming`] tolerates them.
pub fn parse_row(schema: &Schema, line: &str) -> Result<Vec<Value>, String> {
    let line = strip_cr(line);
    let mut values = Vec::with_capacity(schema.arity());
    let mut cells = line.split(',');
    for a in 0..schema.arity() {
        let cell = cells
            .next()
            .ok_or_else(|| format!("{} cells, expected {}", a, schema.arity()))?;
        values.push(parse_cell(&schema.attribute(a).kind, cell)?);
    }
    if cells.next().is_some() {
        return Err(format!("too many cells, expected {}", schema.arity()));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, Value};

    fn toy() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal("color", ["red", "green"]),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        ds.push(vec![Value::Num(1.5), Value::Nominal(0)], 0)
            .unwrap();
        ds.push(vec![Value::Num(-2.0), Value::Nominal(1)], 1)
            .unwrap();
        ds
    }

    fn line_of(err: crate::Result<Dataset>) -> usize {
        match err {
            Err(TabularError::Csv { line, .. }) => line,
            other => panic!("expected csv error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let ds = toy();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("x,color,class\n"));
        assert!(text.contains("1.5,red,A"));
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &buf[..]).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn streaming_crosses_chunk_boundaries() {
        // More rows than one staging chunk: the chunked bulk appends must
        // reassemble the exact dataset.
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal("color", ["red", "green"]),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..(CHUNK_ROWS + 123) {
            ds.push(
                vec![Value::Num(i as f64), Value::Nominal((i % 2) as u32)],
                i % 2,
            )
            .unwrap();
        }
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &buf[..]).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn rejects_bad_header() {
        let ds = toy();
        let input = b"x,class\n1.0,A\n";
        let err = read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 1);
    }

    #[test]
    fn rejects_unknown_class_with_line() {
        let ds = toy();
        let input = b"x,color,class\n1.0,red,A\n2.0,green,C\n";
        let err = read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 3);
    }

    #[test]
    fn rejects_bad_number_with_line() {
        let ds = toy();
        let input = b"x,color,class\nfoo,red,A\n";
        let err = read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]);
        assert_eq!(line_of(err), 2);
    }

    #[test]
    fn malformed_row_mid_stream_is_located() {
        // A malformed row *after* the first staged chunk must still be
        // reported with its exact line number, and nothing ingested after
        // it.
        let ds = toy();
        let mut text = String::from("x,color,class\n");
        for i in 0..(CHUNK_ROWS + 50) {
            text.push_str(&format!("{}.0,red,A\n", i));
        }
        // CHUNK_ROWS + 50 good rows, then a bad one on line CHUNK_ROWS + 52.
        text.push_str("oops,red,A\n");
        text.push_str("1.0,green,B\n");
        let err = read_csv_streaming(
            ds.schema().clone(),
            ds.class_names().to_vec(),
            text.as_bytes(),
        );
        assert_eq!(line_of(err), CHUNK_ROWS + 52);
    }

    #[test]
    fn rejects_wrong_arity_rows() {
        let ds = toy();
        let short = b"x,color,class\n1.0,red\n";
        assert_eq!(
            line_of(read_csv_streaming(
                ds.schema().clone(),
                ds.class_names().to_vec(),
                &short[..]
            )),
            2
        );
        let long = b"x,color,class\n1.0,red,A,extra\n";
        assert_eq!(
            line_of(read_csv_streaming(
                ds.schema().clone(),
                ds.class_names().to_vec(),
                &long[..]
            )),
            2
        );
    }

    #[test]
    fn csv_error_displays_line() {
        let err = TabularError::Csv {
            line: 17,
            msg: "bad number".into(),
        };
        let text = err.to_string();
        assert!(text.contains("line 17"), "{text}");
    }

    #[test]
    fn reads_crlf_files() {
        // CRLF line endings: `lines()` keeps the `\r`, which used to break
        // the last cell of every row (numeric parse failure / unknown
        // class) and leave a bare `\r` line uncaught by the empty-line
        // skip.
        let ds = toy();
        let input = b"x,color,class\r\n1.5,red,A\r\n\r\n-2.0,green,B\r\n";
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn trims_cell_whitespace() {
        let ds = toy();
        let input = b"x,color,class\n 1.5 ,\tred, A\n-2.0, green ,B \n";
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn crlf_crosses_chunk_boundaries() {
        // The CRLF fix must hold on rows staged after the first bulk
        // append, not just the head of the file.
        let schema = Schema::new(vec![Attribute::numeric("x")]);
        let mut text = String::from("x,class\r\n");
        for i in 0..(CHUNK_ROWS + 7) {
            text.push_str(&format!("{i}.0,A\r\n"));
        }
        let back = read_csv_streaming(schema, vec!["A".into()], text.as_bytes()).unwrap();
        assert_eq!(back.len(), CHUNK_ROWS + 7);
        assert_eq!(back.num_column(0)[CHUNK_ROWS + 6], (CHUNK_ROWS + 6) as f64);
    }

    #[test]
    fn parse_row_matches_reader_semantics() {
        let ds = toy();
        let row = parse_row(ds.schema(), " 1.5 ,red\r").unwrap();
        assert_eq!(row, vec![Value::Num(1.5), Value::Nominal(0)]);
        assert!(parse_row(ds.schema(), "1.5").is_err(), "missing cell");
        assert!(parse_row(ds.schema(), "1.5,red,extra").is_err());
        assert!(parse_row(ds.schema(), "foo,red").is_err());
        assert!(parse_row(ds.schema(), "1.5,mauve").is_err());
        assert!(parse_row(ds.schema(), "inf,red").is_err(), "non-finite");
    }

    #[test]
    fn skips_empty_lines() {
        let ds = toy();
        let input = b"x,color,class\n1.0,red,A\n\n2.0,green,B\n";
        let back =
            read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &input[..]).unwrap();
        assert_eq!(back.len(), 2);
    }
}
