//! Matrix codecs for DFS storage.
//!
//! The paper stores the input matrix as a text file (`a.txt`) and reports
//! both text and binary sizes for its evaluation suite (Table 3). Blocks
//! moving through the pipeline use the binary codec; the text codec exists
//! for inputs, outputs, and the Table 3 size accounting.
//!
//! Binary format (little-endian):
//!
//! ```text
//! magic  b"MRX1"      4 bytes
//! rows   u64          8 bytes
//! cols   u64          8 bytes
//! data   f64 * rows*cols, row-major
//! ```
//!
//! Text format:
//!
//! ```text
//! rows cols
//! a00 a01 ... a0(cols-1)
//! ...
//! ```
//!
//! one line per row, values separated by single spaces. The writer emits
//! each value in the shortest form that parses back to the identical `f64`
//! (`1e0`, `-2.5e-3`, `5e-324`, `inf`, `NaN`). The reader takes any decimal
//! `f64` that `str::parse` accepts, separated by any whitespace, so files
//! from older writers that printed 17 significant digits (`{:.17e}`) still
//! decode bit for bit. Both directions run on the rayon pool.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rayon::prelude::*;

use crate::dense::Matrix;
use crate::error::{MatrixError, Result};

const MAGIC: &[u8; 4] = b"MRX1";
const HEADER_LEN: usize = 4 + 8 + 8;

/// Serializes a matrix to the binary format.
pub fn encode_binary(m: &Matrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + m.as_slice().len() * 8);
    buf.put_slice(MAGIC);
    buf.put_u64_le(m.rows() as u64);
    buf.put_u64_le(m.cols() as u64);
    for &v in m.as_slice() {
        buf.put_f64_le(v);
    }
    buf.freeze()
}

/// Deserializes a matrix from the binary format.
pub fn decode_binary(mut data: &[u8]) -> Result<Matrix> {
    if data.len() < HEADER_LEN {
        return Err(MatrixError::Codec(format!(
            "binary matrix truncated: {} bytes, need at least {HEADER_LEN}",
            data.len()
        )));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(MatrixError::Codec(format!("bad magic {magic:?}")));
    }
    let rows = data.get_u64_le() as usize;
    let cols = data.get_u64_le() as usize;
    let expect = rows
        .checked_mul(cols)
        .and_then(|e| e.checked_mul(8))
        .ok_or_else(|| MatrixError::Codec("dimension overflow".into()))?;
    if data.remaining() != expect {
        return Err(MatrixError::Codec(format!(
            "binary matrix payload is {} bytes, expected {expect} for {rows}x{cols}",
            data.remaining()
        )));
    }
    let mut vals = Vec::with_capacity(rows * cols);
    while data.has_remaining() {
        vals.push(data.get_f64_le());
    }
    Matrix::from_vec(rows, cols, vals)
}

/// Exact size in bytes of the binary encoding of a `rows x cols` matrix.
pub fn binary_size(rows: usize, cols: usize) -> u64 {
    HEADER_LEN as u64 + 8 * rows as u64 * cols as u64
}

/// Rows formatted or parsed by one pool task in the text codec.
const GROUP_ROWS: usize = 8;

/// Rows formatted before their text is appended to the output. Only one
/// batch of formatted groups exists at a time, so encoding never holds a
/// second copy of the whole file.
const ENCODE_BATCH_ROWS: usize = 256;

/// Upper bound on one encoded value plus its separator: a sign, 17
/// significant digits, the decimal point, `e`, an exponent sign and three
/// exponent digits (24 bytes), then a space or newline.
const MAX_VALUE_BYTES: usize = 25;

/// Serializes a matrix to the text format: a `rows cols` header line, then
/// one line per row of space-separated values.
///
/// Each value is written in the shortest form that parses back to the
/// identical `f64` (Rust's `{:e}`), so the text round-trips bit for bit,
/// including `-0.0`, subnormals, infinities and NaN. Rows are formatted in
/// parallel on the rayon pool; the output bytes do not depend on the pool
/// width.
pub fn encode_text(m: &Matrix) -> String {
    let (rows, cols) = m.shape();
    let mut out = format!("{rows} {cols}\n");
    out.reserve(m.as_slice().len() * MAX_VALUE_BYTES);
    if cols == 0 {
        out.extend(std::iter::repeat_n('\n', rows));
        return out;
    }
    for batch in m.as_slice().chunks(ENCODE_BATCH_ROWS * cols) {
        let groups: Vec<&[f64]> = batch.chunks(GROUP_ROWS * cols).collect();
        let texts: Vec<String> = groups
            .into_par_iter()
            .map(|group| encode_rows(group, cols))
            .collect();
        for text in &texts {
            out.push_str(text);
        }
    }
    out
}

/// Formats whole rows (`values.len()` is a multiple of `cols`), one line each.
fn encode_rows(values: &[f64], cols: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(values.len() * MAX_VALUE_BYTES);
    for row in values.chunks_exact(cols) {
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{v:e}");
        }
        out.push('\n');
    }
    out
}

/// Deserializes a matrix from the text format.
///
/// The header line must hold exactly `rows cols`. Blank lines are skipped;
/// every other line is one data row of exactly `cols` whitespace-separated
/// values, and there must be exactly `rows` of them. A value is any decimal
/// `f64` that Rust's `str::parse` accepts, so files from older writers
/// (which printed 17 significant digits, `{:.17e}`) decode unchanged. Rows
/// are parsed in parallel on the rayon pool; when several rows are bad, the
/// error names the first one. Row numbers in errors count data rows from 0.
pub fn decode_text(text: &str) -> Result<Matrix> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| MatrixError::Codec("empty text matrix".into()))?;
    let (rows, cols) = parse_header(header)?;
    let data: Vec<&str> = lines.filter(|l| !l.trim().is_empty()).collect();
    // With no columns every row is blank, so no data line may appear.
    let expect_lines = if cols == 0 { 0 } else { rows };
    if data.len() != expect_lines {
        return Err(MatrixError::Codec(format!(
            "expected {expect_lines} data rows for {rows}x{cols}, found {}",
            data.len()
        )));
    }
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| MatrixError::Codec("dimension overflow".into()))?;
    // Every value takes at least one byte: refuse to allocate for a
    // header that the body cannot possibly fill.
    if len > text.len() {
        return Err(MatrixError::Codec(format!(
            "{rows}x{cols} values cannot fit in {} bytes",
            text.len()
        )));
    }
    let mut vals = vec![0.0; len];
    if len > 0 {
        let outcomes: Vec<Result<()>> = vals
            .par_chunks_mut(GROUP_ROWS * cols)
            .enumerate()
            .map(|(g, group)| {
                let first = g * GROUP_ROWS;
                group
                    .chunks_mut(cols)
                    .enumerate()
                    .try_for_each(|(k, row)| decode_row(data[first + k], first + k, row))
            })
            .collect();
        outcomes.into_iter().collect::<Result<()>>()?;
    }
    Matrix::from_vec(rows, cols, vals)
}

/// Parses a `rows cols` header line with nothing after it.
fn parse_header(header: &str) -> Result<(usize, usize)> {
    let bad = || MatrixError::Codec(format!("bad header line {header:?}: expected `rows cols`"));
    let mut parts = header.split_whitespace();
    let rows = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let cols = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok((rows, cols))
}

/// Parses data row `i` into `out`, which must receive exactly `out.len()`
/// values.
fn decode_row(line: &str, i: usize, out: &mut [f64]) -> Result<()> {
    let cols = out.len();
    let mut toks = line.split_whitespace();
    for (j, slot) in out.iter_mut().enumerate() {
        let tok = toks.next().ok_or_else(|| {
            MatrixError::Codec(format!("row {i} has {j} values, expected {cols}"))
        })?;
        *slot = tok
            .parse()
            .map_err(|e| MatrixError::Codec(format!("bad value {tok:?} on row {i}: {e}")))?;
    }
    let extra = toks.count();
    if extra > 0 {
        return Err(MatrixError::Codec(format!(
            "row {i} has {} values, expected {cols}",
            cols + extra
        )));
    }
    Ok(())
}

/// Text size in bytes the paper's Table 3 reports for a `rows x cols`
/// matrix, modelled as about 25 bytes per value plus a header. This
/// models the paper's files, not [`encode_text`]'s output (which writes
/// the shortest round-trip form and is usually a little smaller); the
/// Table 3 text-size column is derived from it.
pub fn text_size_estimate(rows: usize, cols: usize) -> u64 {
    16 + 25 * rows as u64 * cols as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_matrix;

    #[test]
    fn binary_round_trip_is_exact() {
        let m = random_matrix(17, 9, 3);
        let enc = encode_binary(&m);
        assert_eq!(enc.len() as u64, binary_size(17, 9));
        let back = decode_binary(&enc).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn binary_rejects_corruption() {
        let m = random_matrix(3, 3, 0);
        let enc = encode_binary(&m);
        assert!(decode_binary(&enc[..10]).is_err());
        let mut bad = enc.to_vec();
        bad[0] = b'X';
        assert!(decode_binary(&bad).is_err());
        bad = enc.to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        assert!(decode_binary(&bad).is_err());
        assert!(decode_binary(&[]).is_err());
    }

    #[test]
    fn text_round_trip_is_exact() {
        let m = random_matrix(7, 11, 5);
        let enc = encode_text(&m);
        let back = decode_text(&enc).unwrap();
        assert_eq!(back, m, "shortest round-trip text must be bit exact");
    }

    #[test]
    fn text_rejects_malformed_input() {
        assert!(decode_text("").is_err());
        assert!(decode_text("abc def\n").is_err());
        assert!(decode_text("2 2\n1 2\n3\n").is_err());
        assert!(decode_text("2 2\n1 2\n3 4\n5 6\n").is_err());
        assert!(decode_text("1 2\n1 banana\n").is_err());
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Edge values whose text form must parse back to the same bits. Text
    /// has one spelling of NaN, so only the canonical `f64::NAN` is listed.
    const EDGE_VALUES: [f64; 12] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.1,
    ];

    #[test]
    fn text_handles_special_values() {
        let m = Matrix::from_vec(3, 4, EDGE_VALUES.to_vec()).unwrap();
        let back = decode_text(&encode_text(&m)).unwrap();
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn text_writes_the_shortest_round_trip_form() {
        let m = Matrix::from_rows(&[&[1.0, -2.5e-3], &[f64::from_bits(1), f64::NAN]]).unwrap();
        assert_eq!(encode_text(&m), "2 2\n1e0 -2.5e-3\n5e-324 NaN\n");
    }

    #[test]
    fn text_decodes_the_old_seventeen_digit_format_bit_for_bit() {
        use std::fmt::Write as _;
        let mut vals = random_matrix(5, 6, 11).into_vec();
        vals[..EDGE_VALUES.len()].copy_from_slice(&EDGE_VALUES);
        let m = Matrix::from_vec(5, 6, vals).unwrap();
        // The writer before the shortest-form change.
        let mut old = String::from("5 6\n");
        for row in m.row_iter() {
            let line: Vec<String> = row.iter().map(|v| format!("{v:.17e}")).collect();
            let _ = writeln!(old, "{}", line.join(" "));
        }
        assert_eq!(bits(&decode_text(&old).unwrap()), bits(&m));
    }

    #[test]
    fn text_bytes_do_not_depend_on_the_pool_width() {
        // Several encode batches and decode groups, plus a ragged tail.
        let m = random_matrix(ENCODE_BATCH_ROWS * 2 + 13, 5, 21);
        let prev = rayon::set_thread_cap(1);
        let serial = encode_text(&m);
        let serial_back = decode_text(&serial).unwrap();
        rayon::set_thread_cap(usize::MAX);
        let parallel = encode_text(&m);
        let parallel_back = decode_text(&parallel).unwrap();
        rayon::set_thread_cap(prev);
        assert_eq!(serial, parallel);
        assert_eq!(bits(&serial_back), bits(&m));
        assert_eq!(bits(&parallel_back), bits(&m));
    }

    #[test]
    fn text_rejects_a_row_with_too_many_values() {
        let err = decode_text("2 2\n1 2 3\n4\n").unwrap_err().to_string();
        assert!(err.contains("row 0 has 3 values"), "{err}");
    }

    #[test]
    fn text_skips_blank_lines_when_counting_rows() {
        let m = decode_text("2 2\n\n1 2\n  \n3 4\n\n").unwrap();
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap());
    }

    #[test]
    fn text_errors_name_the_data_row() {
        let err = decode_text("3 2\n\n1 2\n\n\n3 x\n5 6\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("on row 1"), "{err}");
        // With several bad rows the first one is reported.
        let mut text = String::from("40 2\n");
        for i in 0..40 {
            text.push_str(if i == 13 || i == 30 { "1\n" } else { "1 2\n" });
        }
        let err = decode_text(&text).unwrap_err().to_string();
        assert!(err.contains("row 13 has 1 values"), "{err}");
    }

    #[test]
    fn text_rejects_a_header_with_extra_tokens() {
        assert!(decode_text("2 2 9\n1 2\n3 4\n").is_err());
        assert!(decode_text("2\n1 2\n").is_err());
    }

    #[test]
    fn text_rejects_a_header_the_body_cannot_fill() {
        assert!(decode_text("1 100000000000000\n1\n").is_err());
    }

    #[test]
    fn text_handles_zero_columns() {
        let m = Matrix::zeros(3, 0);
        assert_eq!(decode_text(&encode_text(&m)).unwrap(), m);
        assert!(decode_text("3 0\n1\n").is_err());
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(decode_binary(&encode_binary(&m)).unwrap(), m);
        assert_eq!(decode_text(&encode_text(&m)).unwrap(), m);
    }

    #[test]
    fn size_formulas() {
        assert_eq!(binary_size(0, 0), 20);
        assert_eq!(binary_size(10, 10), 20 + 800);
        assert!(text_size_estimate(10, 10) > binary_size(10, 10));
    }

    #[test]
    fn table3_binary_sizes_extrapolate() {
        // Table 3: a 102400^2 matrix is ~80 GB binary (8 bytes/elem).
        let gb = binary_size(102_400, 102_400) as f64 / (1u64 << 30) as f64;
        assert!((gb - 78.1).abs() < 1.0, "expected ~78 GiB, got {gb}");
    }
}
