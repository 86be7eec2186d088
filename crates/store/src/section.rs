//! Typed section payloads and their codecs.
//!
//! Every section in a container carries a [`SectionKind`] tag so that a
//! reader asking for a matrix can never misinterpret, say, an RNG stream:
//! the kind is checked before the payload is decoded. Floats are stored
//! as raw IEEE-754 bits, so every round-trip is exact — the foundation of
//! the bit-identical resume contract.

use graphrare_graph::Graph;
use graphrare_tensor::optim::AdamSnapshot;
use graphrare_tensor::Matrix;

use crate::error::StoreError;
use crate::wire::{ByteReader, ByteWriter};

/// Payload type tag of one container section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum SectionKind {
    /// Uninterpreted bytes (caller-defined encoding).
    Bytes = 0,
    /// One dense `f32` matrix.
    Matrix = 1,
    /// A named list of matrices (a model/policy parameter set).
    ParamSet = 2,
    /// Adam optimiser state: step counter plus `(m, v)` moment pairs.
    AdamState = 3,
    /// A 256-bit RNG stream state (`[u64; 4]`, see `rand::rngs::StdRng`).
    Rng = 4,
    /// Graph topology: node count, class count and an undirected edge list.
    Topology = 5,
    /// A `u16` vector (`TopoState` counters and bounds).
    U16Vec = 6,
    /// An `f32` vector (rewards, log-probs, RL histories).
    F32Vec = 7,
    /// An `f64` vector (accuracy/loss/homophily histories).
    F64Vec = 8,
    /// A `u64` vector.
    U64Vec = 9,
    /// A named map of `f64` scalars (loop counters, metadata).
    Scalars = 10,
}

impl SectionKind {
    /// All kinds, for iteration in diagnostics.
    pub const ALL: [SectionKind; 11] = [
        SectionKind::Bytes,
        SectionKind::Matrix,
        SectionKind::ParamSet,
        SectionKind::AdamState,
        SectionKind::Rng,
        SectionKind::Topology,
        SectionKind::U16Vec,
        SectionKind::F32Vec,
        SectionKind::F64Vec,
        SectionKind::U64Vec,
        SectionKind::Scalars,
    ];

    /// Decodes a raw tag, or `None` for unknown tags.
    pub fn from_raw(raw: u16) -> Option<Self> {
        Self::ALL.into_iter().find(|k| *k as u16 == raw)
    }

    /// Human-readable name for `store_dump`.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Bytes => "bytes",
            SectionKind::Matrix => "matrix",
            SectionKind::ParamSet => "param-set",
            SectionKind::AdamState => "adam-state",
            SectionKind::Rng => "rng",
            SectionKind::Topology => "topology",
            SectionKind::U16Vec => "u16-vec",
            SectionKind::F32Vec => "f32-vec",
            SectionKind::F64Vec => "f64-vec",
            SectionKind::U64Vec => "u64-vec",
            SectionKind::Scalars => "scalars",
        }
    }
}

/// Graph topology as stored on disk: shape metadata plus an undirected
/// edge list. Features and labels are *not* stored — a rewired graph
/// shares them with the base graph it was derived from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologyRecord {
    /// Number of nodes.
    pub n: u32,
    /// Number of classes (kept for cross-checking against the base graph).
    pub num_classes: u32,
    /// Undirected edges, each stored once with `u < v` not required but
    /// deduplicated by the `Graph` on reconstruction.
    pub edges: Vec<(u32, u32)>,
}

impl TopologyRecord {
    /// Captures the topology of `g`.
    pub fn from_graph(g: &Graph) -> Self {
        Self {
            n: g.num_nodes() as u32,
            num_classes: g.num_classes() as u32,
            edges: g.edge_vec().into_iter().map(|(u, v)| (u as u32, v as u32)).collect(),
        }
    }

    /// Rebuilds a full graph by combining this topology with the features
    /// and labels of `base` (the graph the topology was derived from),
    /// through [`Graph::with_edges`]: the features are shared, not copied.
    /// Fails with a typed error if the shapes do not line up.
    pub fn to_graph(&self, base: &Graph) -> Result<Graph, StoreError> {
        if self.n as usize != base.num_nodes() {
            return Err(StoreError::Mismatch {
                context: format!(
                    "stored topology has {} nodes, base graph has {}",
                    self.n,
                    base.num_nodes()
                ),
            });
        }
        if self.num_classes as usize != base.num_classes() {
            return Err(StoreError::Mismatch {
                context: format!(
                    "stored topology has {} classes, base graph has {}",
                    self.num_classes,
                    base.num_classes()
                ),
            });
        }
        if let Some(&(u, v)) = self.edges.iter().find(|&&(u, v)| u >= self.n || v >= self.n) {
            return Err(StoreError::Corrupt {
                context: format!("topology edge ({u},{v}) references a node >= {}", self.n),
            });
        }
        Ok(base.with_edges(self.edges.iter().map(|&(u, v)| (u as usize, v as usize))))
    }
}

// ---------------------------------------------------------------------------
// Codecs. Encoders are infallible; decoders validate every length.
// ---------------------------------------------------------------------------

pub(crate) fn encode_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.put_u32(m.rows() as u32);
    w.put_u32(m.cols() as u32);
    for &v in m.as_slice() {
        w.put_f32(v);
    }
}

pub(crate) fn decode_matrix(r: &mut ByteReader<'_>) -> Result<Matrix, StoreError> {
    let rows = r.get_u32()? as usize;
    let cols = r.get_u32()? as usize;
    let count = rows.checked_mul(cols).ok_or_else(|| StoreError::Corrupt {
        context: format!("matrix shape {rows}x{cols} overflows"),
    })?;
    if count.checked_mul(4).is_none_or(|bytes| bytes > r.remaining()) {
        return Err(StoreError::Corrupt {
            context: format!(
                "matrix shape {rows}x{cols} needs {count} f32s, {} bytes remain",
                r.remaining()
            ),
        });
    }
    let mut data = Vec::with_capacity(count);
    for _ in 0..count {
        data.push(r.get_f32()?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

pub(crate) fn encode_param_set(w: &mut ByteWriter, params: &[(String, Matrix)]) {
    w.put_u32(params.len() as u32);
    for (name, m) in params {
        w.put_str(name);
        encode_matrix(w, m);
    }
}

pub(crate) fn decode_param_set(
    r: &mut ByteReader<'_>,
) -> Result<Vec<(String, Matrix)>, StoreError> {
    let count = r.get_u32()? as usize;
    // Each entry needs at least a name length and a matrix header.
    if count > r.remaining() / 10 + 1 {
        return Err(StoreError::Corrupt {
            context: format!("param set count {count} exceeds payload size"),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.get_str()?;
        let m = decode_matrix(r)?;
        out.push((name, m));
    }
    Ok(out)
}

pub(crate) fn encode_adam(w: &mut ByteWriter, snap: &AdamSnapshot) {
    w.put_u64(snap.t);
    w.put_u32(snap.moments.len() as u32);
    for (m, v) in &snap.moments {
        encode_matrix(w, m);
        encode_matrix(w, v);
    }
}

pub(crate) fn decode_adam(r: &mut ByteReader<'_>) -> Result<AdamSnapshot, StoreError> {
    let t = r.get_u64()?;
    let count = r.get_u32()? as usize;
    if count > r.remaining() / 16 + 1 {
        return Err(StoreError::Corrupt {
            context: format!("adam state count {count} exceeds payload size"),
        });
    }
    let mut moments = Vec::with_capacity(count);
    for _ in 0..count {
        let m = decode_matrix(r)?;
        let v = decode_matrix(r)?;
        if m.shape() != v.shape() {
            return Err(StoreError::Corrupt {
                context: format!("adam moment shapes differ: {:?} vs {:?}", m.shape(), v.shape()),
            });
        }
        moments.push((m, v));
    }
    Ok(AdamSnapshot { t, moments })
}

pub(crate) fn encode_rng(w: &mut ByteWriter, state: [u64; 4]) {
    for s in state {
        w.put_u64(s);
    }
}

pub(crate) fn decode_rng(r: &mut ByteReader<'_>) -> Result<[u64; 4], StoreError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

pub(crate) fn encode_topology(w: &mut ByteWriter, t: &TopologyRecord) {
    w.put_u32(t.n);
    w.put_u32(t.num_classes);
    w.put_u64(t.edges.len() as u64);
    for &(u, v) in &t.edges {
        w.put_u32(u);
        w.put_u32(v);
    }
}

pub(crate) fn decode_topology(r: &mut ByteReader<'_>) -> Result<TopologyRecord, StoreError> {
    let n = r.get_u32()?;
    let num_classes = r.get_u32()?;
    let count = r.get_count(r.remaining() / 8, "topology edges")?;
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        edges.push((r.get_u32()?, r.get_u32()?));
    }
    Ok(TopologyRecord { n, num_classes, edges })
}

pub(crate) fn encode_u16_vec(w: &mut ByteWriter, v: &[u16]) {
    w.put_u64(v.len() as u64);
    for &x in v {
        w.put_u16(x);
    }
}

pub(crate) fn decode_u16_vec(r: &mut ByteReader<'_>) -> Result<Vec<u16>, StoreError> {
    let count = r.get_count(r.remaining() / 2, "u16 vec")?;
    (0..count).map(|_| r.get_u16()).collect()
}

pub(crate) fn encode_f32_vec(w: &mut ByteWriter, v: &[f32]) {
    w.put_u64(v.len() as u64);
    for &x in v {
        w.put_f32(x);
    }
}

pub(crate) fn decode_f32_vec(r: &mut ByteReader<'_>) -> Result<Vec<f32>, StoreError> {
    let count = r.get_count(r.remaining() / 4, "f32 vec")?;
    (0..count).map(|_| r.get_f32()).collect()
}

pub(crate) fn encode_f64_vec(w: &mut ByteWriter, v: &[f64]) {
    w.put_u64(v.len() as u64);
    for &x in v {
        w.put_f64(x);
    }
}

pub(crate) fn decode_f64_vec(r: &mut ByteReader<'_>) -> Result<Vec<f64>, StoreError> {
    let count = r.get_count(r.remaining() / 8, "f64 vec")?;
    (0..count).map(|_| r.get_f64()).collect()
}

pub(crate) fn encode_u64_vec(w: &mut ByteWriter, v: &[u64]) {
    w.put_u64(v.len() as u64);
    for &x in v {
        w.put_u64(x);
    }
}

pub(crate) fn decode_u64_vec(r: &mut ByteReader<'_>) -> Result<Vec<u64>, StoreError> {
    let count = r.get_count(r.remaining() / 8, "u64 vec")?;
    (0..count).map(|_| r.get_u64()).collect()
}

pub(crate) fn encode_scalars(w: &mut ByteWriter, entries: &[(String, f64)]) {
    w.put_u32(entries.len() as u32);
    for (name, v) in entries {
        w.put_str(name);
        w.put_f64(*v);
    }
}

pub(crate) fn decode_scalars(r: &mut ByteReader<'_>) -> Result<Vec<(String, f64)>, StoreError> {
    let count = r.get_u32()? as usize;
    if count > r.remaining() / 10 + 1 {
        return Err(StoreError::Corrupt {
            context: format!("scalar map count {count} exceeds payload size"),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.get_str()?;
        let v = r.get_f64()?;
        out.push((name, v));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_roundtrip() {
        for kind in SectionKind::ALL {
            assert_eq!(SectionKind::from_raw(kind as u16), Some(kind));
        }
        assert_eq!(SectionKind::from_raw(999), None);
    }

    #[test]
    fn matrix_codec_is_exact_for_odd_floats() {
        let m =
            Matrix::from_vec(2, 3, vec![0.0, -0.0, f32::MIN_POSITIVE, 1e-38, f32::MAX, -1.5e-7]);
        let mut w = ByteWriter::new();
        encode_matrix(&mut w, &m);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        let back = decode_matrix(&mut r).unwrap();
        assert_eq!(back.shape(), (2, 3));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matrix_decode_rejects_oversized_shape() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert!(matches!(decode_matrix(&mut r), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn topology_roundtrips_and_validates() {
        let t = TopologyRecord { n: 5, num_classes: 2, edges: vec![(0, 1), (2, 4)] };
        let mut w = ByteWriter::new();
        encode_topology(&mut w, &t);
        let bytes = w.into_bytes();
        let back = decode_topology(&mut ByteReader::new(&bytes, "test")).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn topology_to_graph_rejects_out_of_range_edges() {
        let base = Graph::from_edges(3, &[(0, 1)], Matrix::zeros(3, 2), vec![0, 1, 0], 2);
        let t = TopologyRecord { n: 3, num_classes: 2, edges: vec![(0, 7)] };
        assert!(matches!(t.to_graph(&base), Err(StoreError::Corrupt { .. })));
        let t2 = TopologyRecord { n: 9, num_classes: 2, edges: vec![] };
        assert!(matches!(t2.to_graph(&base), Err(StoreError::Mismatch { .. })));
    }
}
