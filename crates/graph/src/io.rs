//! Plain-text graph serialisation.
//!
//! The interchange format is deliberately simple so real edge lists can be
//! fed to the CLI without conversion tooling:
//!
//! * **edge list** (`.edges`): one `u<TAB-or-space>v` pair per line;
//!   `#`-prefixed lines are comments. Node ids are `0..n`.
//! * **labels** (`.labels`): one integer class per line, line `i` = node `i`.
//! * **features** (`.features`): one row per node of whitespace-separated
//!   floats; all rows must have equal width.
//!
//! [`write_graph`]/[`read_graph`] bundle the three files under a common
//! path prefix.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use graphrare_tensor::Matrix;

use crate::graph::Graph;

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A line failed to parse.
    Parse {
        /// File kind ("edges", "labels", "features").
        file: &'static str,
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Cross-file inconsistency (counts, ranges).
    Inconsistent(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { file, line, message } => {
                write!(f, "parse error in {file} file, line {line}: {message}")
            }
            IoError::Inconsistent(m) => write!(f, "inconsistent inputs: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses an edge list (`u v` per line, `#` comments).
pub fn parse_edge_list(text: &str) -> Result<Vec<(usize, usize)>, IoError> {
    let mut edges = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<usize, IoError> {
            tok.ok_or_else(|| IoError::Parse {
                file: "edges",
                line: i + 1,
                message: "expected two node ids".into(),
            })?
            .parse()
            .map_err(|e| IoError::Parse {
                file: "edges",
                line: i + 1,
                message: format!("bad node id: {e}"),
            })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(IoError::Parse {
                file: "edges",
                line: i + 1,
                message: "trailing tokens after the two node ids".into(),
            });
        }
        edges.push((u, v));
    }
    Ok(edges)
}

/// Parses a labels file (one class index per line).
pub fn parse_labels(text: &str) -> Result<Vec<usize>, IoError> {
    let mut labels = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        labels.push(line.parse().map_err(|e| IoError::Parse {
            file: "labels",
            line: i + 1,
            message: format!("bad label: {e}"),
        })?);
    }
    Ok(labels)
}

/// Parses a features file (whitespace-separated finite floats,
/// equal-width rows). `NaN`, `inf` and `-inf` are rejected: they would
/// poison training, and the sparse feature path assumes finite inputs.
pub fn parse_features(text: &str) -> Result<Matrix, IoError> {
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |message: String| IoError::Parse { file: "features", line: i + 1, message };
        let row = line
            .split_whitespace()
            .map(|tok| match tok.parse::<f32>() {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(_) => Err(bad(format!("non-finite value {tok:?}"))),
                Err(e) => Err(bad(format!("bad float: {e}"))),
            })
            .collect::<Result<Vec<f32>, _>>()?;
        if let Some(first) = rows.first() {
            if row.len() != first.len() {
                return Err(IoError::Parse {
                    file: "features",
                    line: i + 1,
                    message: format!("row width {} != {}", row.len(), first.len()),
                });
            }
        }
        rows.push(row);
    }
    let cols = rows.first().map_or(0, Vec::len);
    let data: Vec<f32> = rows.iter().flatten().copied().collect();
    Ok(Matrix::from_vec(rows.len(), cols, data))
}

/// Assembles a [`Graph`] from parsed parts, validating consistency.
pub fn assemble(
    edges: Vec<(usize, usize)>,
    features: Matrix,
    labels: Vec<usize>,
) -> Result<Graph, IoError> {
    let n = labels.len();
    if features.rows() != n {
        return Err(IoError::Inconsistent(format!(
            "{} feature rows but {} labels",
            features.rows(),
            n
        )));
    }
    if let Some(&(u, v)) = edges.iter().find(|&&(u, v)| u >= n || v >= n) {
        return Err(IoError::Inconsistent(format!("edge ({u},{v}) references a node >= {n}")));
    }
    // `n` nodes carry at most `n` classes. Bounding labels by the node
    // count keeps `max + 1` from wrapping and keeps per-class buckets
    // (splits, metrics) sized by the input.
    if let Some((v, &l)) = labels.iter().enumerate().find(|&(_, &l)| l >= n) {
        return Err(IoError::Inconsistent(format!(
            "node {v} has label {l}, but labels must be below the node count {n}"
        )));
    }
    let num_classes = labels.iter().copied().max().map_or(1, |m| m + 1);
    Ok(Graph::from_edges(n, &edges, features, labels, num_classes))
}

/// Reads `<prefix>.edges`, `<prefix>.features` and `<prefix>.labels`.
pub fn read_graph(prefix: &Path) -> Result<Graph, IoError> {
    let read = |ext: &str| -> Result<String, IoError> {
        Ok(fs::read_to_string(prefix.with_extension(ext))?)
    };
    let edges = parse_edge_list(&read("edges")?)?;
    let features = parse_features(&read("features")?)?;
    let labels = parse_labels(&read("labels")?)?;
    assemble(edges, features, labels)
}

/// Serialises the three bundle files and hands each `(path, contents)`
/// pair to `write`. This is [`write_graph`] with the filesystem call
/// pluggable, so callers can substitute a different write strategy —
/// the CLI routes bundle writes through the store crate's atomic
/// temp-file-then-rename helper.
pub fn write_graph_via(
    g: &Graph,
    prefix: &Path,
    write: &mut dyn FnMut(&Path, &[u8]) -> io::Result<()>,
) -> Result<(), IoError> {
    let mut edges = String::new();
    let _ = writeln!(edges, "# {} nodes, {} undirected edges", g.num_nodes(), g.num_edges());
    for (u, v) in g.edges() {
        let _ = writeln!(edges, "{u}\t{v}");
    }
    write(&prefix.with_extension("edges"), edges.as_bytes())?;

    let mut labels = String::new();
    for &l in g.labels() {
        let _ = writeln!(labels, "{l}");
    }
    write(&prefix.with_extension("labels"), labels.as_bytes())?;

    // Every column of every row, unstored ones as `0`: the graph holds
    // only the nonzero entries, so a `-0` read in is written as `0`.
    let x = g.features();
    let mut feats = String::new();
    for r in 0..x.rows() {
        let mut stored = x.row_entries(r).peekable();
        let row: Vec<String> = (0..x.cols())
            .map(|c| stored.next_if(|&(col, _)| col == c).map_or(0.0, |(_, v)| v).to_string())
            .collect();
        let _ = writeln!(feats, "{}", row.join(" "));
    }
    write(&prefix.with_extension("features"), feats.as_bytes())?;
    Ok(())
}

/// Writes `<prefix>.edges`, `<prefix>.features` and `<prefix>.labels`,
/// creating parent directories.
pub fn write_graph(g: &Graph, prefix: &Path) -> Result<(), IoError> {
    if let Some(parent) = prefix.parent() {
        fs::create_dir_all(parent)?;
    }
    write_graph_via(g, prefix, &mut |path, bytes| fs::write(path, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let feats = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.5, 0.25, 0.0, 1.0]);
        Graph::from_edges(3, &[(0, 1), (1, 2)], feats, vec![0, 1, 1], 2)
    }

    #[test]
    fn roundtrip_through_files() {
        let dir = std::env::temp_dir().join("graphrare-io-test");
        let prefix = dir.join("toy");
        let g = sample();
        write_graph(&g, &prefix).unwrap();
        let back = read_graph(&prefix).unwrap();
        assert_eq!(back.edge_vec(), g.edge_vec());
        assert_eq!(back.labels(), g.labels());
        assert_eq!(back.num_classes(), 2);
        assert_eq!(back.features(), g.features());
        let _ = fs::remove_dir_all(dir);
    }

    /// The three files `write_graph_via` produces, by extension.
    fn bundle(g: &Graph) -> Vec<(String, Vec<u8>)> {
        let mut files = Vec::new();
        write_graph_via(g, Path::new("toy"), &mut |p, bytes| {
            files.push((p.display().to_string(), bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        files
    }

    fn read_bundle(files: &[(String, Vec<u8>)]) -> Graph {
        let text = |ext: &str| {
            let (_, bytes) = files.iter().find(|(p, _)| p.ends_with(ext)).unwrap();
            String::from_utf8(bytes.clone()).unwrap()
        };
        assemble(
            parse_edge_list(&text(".edges")).unwrap(),
            parse_features(&text(".features")).unwrap(),
            parse_labels(&text(".labels")).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn write_read_write_is_byte_identical() {
        // Signed, fractional and large entries, an all-zero row and an
        // all-zero column.
        let feats = Matrix::from_vec(
            4,
            3,
            vec![1.0, 0.0, -0.5, 0.1, 0.0, 3.25e7, 0.0, 0.0, 0.0, -7.0, 0.0, 1e-3],
        );
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 3)], feats, vec![0, 1, 1, 0], 2);
        let first = bundle(&g);
        let back = read_bundle(&first);
        assert_eq!(back.features(), g.features());
        assert_eq!(bundle(&back), first);
    }

    #[test]
    fn a_negative_zero_feature_reads_back_and_writes_as_zero() {
        let files = vec![
            ("toy.edges".to_string(), b"0 1\n".to_vec()),
            ("toy.labels".to_string(), b"0\n1\n".to_vec()),
            ("toy.features".to_string(), b"-0 1.5\n2 -0.0\n".to_vec()),
        ];
        let g = read_bundle(&files);
        assert_eq!(g.features().nnz(), 2, "a -0 feature is not stored");
        let written = bundle(&g);
        let (_, feats) = written.iter().find(|(p, _)| p.ends_with(".features")).unwrap();
        assert_eq!(String::from_utf8_lossy(feats), "0 1.5\n2 0\n");
    }

    #[test]
    fn write_via_collects_three_files_and_propagates_errors() {
        let g = sample();
        let mut seen: Vec<(String, usize)> = Vec::new();
        write_graph_via(&g, Path::new("out/toy"), &mut |p, bytes| {
            seen.push((p.display().to_string(), bytes.len()));
            Ok(())
        })
        .unwrap();
        let exts: Vec<&str> = seen.iter().map(|(p, _)| p.rsplit('.').next().unwrap()).collect();
        assert_eq!(exts, vec!["edges", "labels", "features"]);
        assert!(seen.iter().all(|&(_, len)| len > 0));

        let err = write_graph_via(&g, Path::new("out/toy"), &mut |_, _| {
            Err(io::Error::other("writer refused"))
        });
        assert!(matches!(err, Err(IoError::Io(_))));
    }

    #[test]
    fn edge_list_comments_and_blanks() {
        let edges = parse_edge_list("# header\n\n0 1\n1\t2\n").unwrap();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(
            parse_edge_list("0 x"),
            Err(IoError::Parse { file: "edges", line: 1, .. })
        ));
        assert!(matches!(parse_edge_list("0 1 2"), Err(IoError::Parse { .. })));
        assert!(matches!(parse_edge_list("0"), Err(IoError::Parse { .. })));
    }

    #[test]
    fn features_reject_ragged_rows() {
        assert!(matches!(
            parse_features("1.0 2.0\n3.0\n"),
            Err(IoError::Parse { file: "features", line: 2, .. })
        ));
    }

    #[test]
    fn features_reject_non_finite_values() {
        // Rust's float parser accepts all of these, and `1e39` overflows
        // f32 to infinity.
        for tok in ["NaN", "nan", "inf", "-inf", "infinity", "1e39"] {
            match parse_features(&format!("# header\n0 1\n0.5 {tok}\n")) {
                Err(IoError::Parse { file: "features", line: 3, message }) => {
                    assert!(message.contains(tok), "{tok}: message {message:?} names no token");
                }
                other => panic!("{tok}: expected a parse error, got {other:?}"),
            }
        }
        assert_eq!(parse_features("0 -1.5e3\n").unwrap().row(0), &[0.0, -1500.0]);
    }

    #[test]
    fn assemble_validates_consistency() {
        let feats = Matrix::zeros(2, 1);
        assert!(matches!(
            assemble(vec![(0, 5)], feats.clone(), vec![0, 0]),
            Err(IoError::Inconsistent(_))
        ));
        assert!(matches!(
            assemble(vec![], Matrix::zeros(3, 1), vec![0, 0]),
            Err(IoError::Inconsistent(_))
        ));
    }

    #[test]
    fn num_classes_inferred_from_labels() {
        let g = assemble(vec![(0, 1)], Matrix::zeros(5, 1), vec![0, 4, 0, 1, 4]).unwrap();
        assert_eq!(g.num_classes(), 5);
    }

    fn label_error(labels: Vec<usize>) -> String {
        let n = labels.len();
        match assemble(vec![(0, 1)], Matrix::zeros(n, 1), labels) {
            Err(IoError::Inconsistent(m)) => m,
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn labels_at_or_above_the_node_count_are_rejected() {
        // Five classes cannot live on two nodes.
        assert!(label_error(vec![0, 4]).contains("node 1 has label 4"));
        // `max + 1` would wrap to zero classes.
        let m = label_error(vec![0, 1, usize::MAX, 0]);
        assert!(m.contains(&format!("node 2 has label {}", usize::MAX)), "{m}");
        // Would size three billion per-class split buckets.
        assert!(label_error(vec![3_000_000_000, 0, 1, 0]).contains("label 3000000000"));
    }
}
