//! Graph I/O: SNAP-style edge-list text and a compact binary CSR format.
//!
//! The paper loads SNAP and WebGraph datasets; this module provides the
//! equivalent ingestion path so that users with the real datasets
//! (orkut, twitter, …) can run every harness binary on them unchanged.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parses a SNAP-style edge list: one `u v` pair per line, `#` or `%`
/// comment lines ignored, arbitrary whitespace separators. Self loops and
/// duplicate edges are normalized away by the builder; a graph beyond the
/// `u32` limits is an `InvalidData` error.
pub fn read_edge_list<R: BufRead>(reader: R) -> io::Result<CsrGraph> {
    let mut builder = GraphBuilder::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<VertexId> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse::<VertexId>()
                .map_err(|_| bad_line(lineno))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        builder.push_edge(u, v);
    }
    builder.try_build().map_err(invalid_data)
}

fn bad_line(lineno: usize) -> io::Error {
    invalid_data(format!("malformed edge on line {}", lineno + 1))
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads an edge-list file from disk (see [`read_edge_list`]).
pub fn read_edge_list_file(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Writes the graph as an edge list, each undirected edge once.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "# undirected graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v) in graph.undirected_edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

const BINARY_MAGIC: &[u8; 8] = b"PPSCANG1";

/// Largest single read the binary decoder issues, and so the most it
/// allocates beyond the bytes a reader has actually supplied.
const CHUNK_BYTES: usize = 1 << 16;

/// Writes the compact binary CSR format, all integers little-endian:
/// the 8-byte magic `PPSCANG1`, the vertex count `n` as a u64, the
/// `n + 1` CSR offsets as absolute u64 values (the last one is the
/// directed-slot count `2m`), then the `2m` neighbor ids as u32, each
/// vertex's list sorted ascending.
pub fn write_binary<W: Write>(graph: &CsrGraph, mut w: W) -> io::Result<()> {
    w.write_all(BINARY_MAGIC)?;
    let n = graph.num_vertices() as u64;
    w.write_all(&n.to_le_bytes())?;
    for &off in graph.raw_offsets() {
        w.write_all(&(off as u64).to_le_bytes())?;
    }
    for &v in graph.raw_neighbors() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads the binary CSR format written by [`write_binary`].
///
/// Untrusted input is an `Err`, never a panic or an abort. The header's
/// `n` and the final offset `2m` are checked against the `u32` limits
/// before anything is allocated for them, and the arrays grow only as
/// the reader supplies bytes, so a header that overstates its counts
/// fails with `UnexpectedEof` after at most one [`CHUNK_BYTES`] read
/// past the data. The decoded parts then pass the one-pass CSR gate
/// ([`CsrGraph::from_sorted_parts`]), which also builds the reverse-edge
/// index; a file that is not a symmetric, sorted, loop-free CSR is an
/// `InvalidData` error. No copy of the file's bytes outlives the decode.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<CsrGraph> {
    let mut word = [0u8; 8];
    r.read_exact(&mut word)?;
    if &word != BINARY_MAGIC {
        return Err(invalid_data("not a ppscan binary graph (bad magic)".into()));
    }
    r.read_exact(&mut word)?;
    let n = u64::from_le_bytes(word);
    if n > u64::from(u32::MAX) {
        return Err(invalid_data(format!(
            "header claims {n} vertices, beyond the u32 vertex-id limit"
        )));
    }
    let n = n as usize;
    // An offset beyond usize saturates; the gate then rejects it.
    let offsets = read_words(&mut r, n + 1, "offsets", |b: [u8; 8]| {
        usize::try_from(u64::from_le_bytes(b)).unwrap_or(usize::MAX)
    })?;
    let m = offsets[n];
    if m > u32::MAX as usize {
        return Err(invalid_data(format!(
            "offsets claim {m} directed edges, beyond the u32 slot limit"
        )));
    }
    let neighbors = read_words(&mut r, m, "neighbor ids", u32::from_le_bytes)?;
    CsrGraph::from_sorted_parts(offsets, neighbors).map_err(invalid_data)
}

/// Decodes `count` little-endian `W`-byte words, reading at most
/// [`CHUNK_BYTES`] at a time. Capacity at most doubles the words read
/// so far (never past `count`), so memory tracks the bytes supplied,
/// not the count claimed.
fn read_words<const W: usize, T>(
    r: &mut impl Read,
    count: usize,
    what: &str,
    decode: impl Fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let mut out: Vec<T> = Vec::new();
    let mut chunk = vec![0u8; CHUNK_BYTES];
    while out.len() < count {
        let left = count - out.len();
        let words = left.min(CHUNK_BYTES / W);
        if out.capacity() - out.len() < words {
            out.reserve_exact(out.len().max(words).min(left));
        }
        let bytes = &mut chunk[..words * W];
        r.read_exact(bytes).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => io::Error::new(
                e.kind(),
                format!("file ends before the {count} {what} its header claims"),
            ),
            _ => e,
        })?;
        out.extend(
            bytes
                .chunks_exact(W)
                .map(|b| decode(b.try_into().expect("chunks_exact yields W bytes"))),
        );
    }
    Ok(out)
}

/// Writes the binary CSR format to a file.
pub fn write_binary_file(graph: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_binary(graph, &mut w)?;
    w.flush()
}

/// Reads the binary CSR format from a file.
pub fn read_binary_file(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    read_binary(BufReader::new(File::open(path)?))
}

/// Whether `path` names a binary graph file: its name ends in `.bin`.
fn is_binary_path(path: &Path) -> bool {
    path.as_os_str().as_encoded_bytes().ends_with(b".bin")
}

/// Reads a graph file in the format its name selects: a name ending in
/// `.bin` is the binary CSR format, anything else a SNAP-style edge list.
pub fn read_graph_file(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    let path = path.as_ref();
    if is_binary_path(path) {
        read_binary_file(path)
    } else {
        read_edge_list_file(path)
    }
}

/// Writes a graph file in the format its name selects (see
/// [`read_graph_file`]).
pub fn write_graph_file(graph: &CsrGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if is_binary_path(path) {
        write_binary_file(graph, path)
    } else {
        let mut w = BufWriter::new(File::create(path)?);
        write_edge_list(graph, &mut w)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::scan_paper_example();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_tolerates_comments_and_blank_lines() {
        let text = "# comment\n\n% another\n0 1\n1\t2\n  2   0  \n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::roll(300, 8, 5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGIC\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = gen::complete(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    /// A binary graph file assembled word by word, for crafted inputs.
    fn raw_binary(n: u64, offsets: &[u64], neighbors: &[u32]) -> Vec<u8> {
        let mut buf = BINARY_MAGIC.to_vec();
        buf.extend(n.to_le_bytes());
        offsets.iter().for_each(|o| buf.extend(o.to_le_bytes()));
        neighbors.iter().for_each(|v| buf.extend(v.to_le_bytes()));
        buf
    }

    #[test]
    fn binary_rejects_huge_vertex_count() {
        let err = read_binary(&raw_binary(1 << 61, &[0], &[])[..]).unwrap_err();
        assert!(err.to_string().contains("vertex-id limit"), "{err}");
    }

    #[test]
    fn binary_rejects_huge_slot_count() {
        let err = read_binary(&raw_binary(1, &[0, 1 << 40], &[])[..]).unwrap_err();
        assert!(err.to_string().contains("slot limit"), "{err}");
    }

    #[test]
    fn binary_overstated_counts_fail_without_allocating_them() {
        // Within the limits but far beyond the bytes supplied: the decode
        // must stop at the end of the data, not reserve 16 GiB first.
        let err = read_binary(&raw_binary(1, &[0, u32::MAX as u64], &[])[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let err = read_binary(&raw_binary(u32::MAX as u64, &[0, 0], &[])[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn binary_rejects_truncated_neighbor_block() {
        let full = raw_binary(2, &[0, 1, 2], &[1, 0]);
        let err = read_binary(&full[..full.len() - 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(read_binary(&full[..]).is_ok());
    }

    #[test]
    fn binary_rejects_self_loop() {
        let err = read_binary(&raw_binary(1, &[0, 1], &[0])[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("self loop"), "{err}");
    }

    #[test]
    fn binary_rejects_duplicate_edge() {
        let err = read_binary(&raw_binary(2, &[0, 2, 4], &[1, 1, 0, 0])[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("strictly increasing"), "{err}");
    }

    #[test]
    fn graph_file_format_follows_the_name() {
        let dir = std::env::temp_dir().join(format!("ppscan_io_fmt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = gen::clique_chain(4, 3);
        for name in ["g.bin", "g.txt", "g"] {
            let path = dir.join(name);
            write_graph_file(&g, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.starts_with(BINARY_MAGIC), name.ends_with(".bin"));
            assert_eq!(read_graph_file(&path).unwrap(), g);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ppscan_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = gen::clique_chain(5, 4);
        write_binary_file(&g, &path).unwrap();
        assert_eq!(read_binary_file(&path).unwrap(), g);
        std::fs::remove_file(&path).unwrap();
    }
}
