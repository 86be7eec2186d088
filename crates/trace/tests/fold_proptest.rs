//! Property test: parsing a *shuffled* span-event stream reconstructs
//! the emitting span tree, and folded-stack assembly recovers exactly
//! the per-path self times — with the single-root total telescoping to
//! the root span's wall time.

use std::collections::BTreeMap;

use graphrare_trace::{folded_stacks, parse_spans, root_totals};
use proptest::prelude::*;

/// One generated span-tree node. Parents always precede children by
/// index, so `ns` can be accumulated bottom-up.
struct Node {
    parent: Option<usize>,
    path: String,
    self_ns: u64,
    ns: u64,
}

/// Builds a rooted tree from raw seeds: node 0 is the root, node i
/// hangs under a uniformly drawn earlier node. Names are drawn from a
/// 3-symbol alphabet so sibling paths can collide — folding must merge
/// them, not rely on unique paths.
fn build_tree(seeds: &[u64]) -> Vec<Node> {
    let mut nodes: Vec<Node> = Vec::with_capacity(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let parent = (i > 0).then(|| (seed % i as u64) as usize);
        let name = format!("n{}", (seed >> 8) % 3);
        let path = match parent {
            Some(p) => format!("{}/{name}", nodes[p].path),
            None => name,
        };
        let self_ns = seed % 9_999 + 1;
        nodes.push(Node { parent, path, self_ns, ns: self_ns });
    }
    for i in (1..nodes.len()).rev() {
        let child_ns = nodes[i].ns;
        let p = nodes[i].parent.unwrap();
        nodes[p].ns += child_ns;
    }
    nodes
}

fn jsonl(nodes: &[Node], shuffle_seed: u64) -> String {
    let mut lines: Vec<String> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let name = n.path.rsplit('/').next().unwrap();
            let parent = n.parent.map(|p| format!("\"parent_id\":{},", p + 1)).unwrap_or_default();
            format!(
                "{{\"v\":3,\"event\":\"span\",\"name\":\"{name}\",\"span_id\":{},{parent}\"path\":\"{}\",\"ns\":{},\"self_ns\":{},\"start_ns\":{}}}",
                i + 1,
                n.path,
                n.ns,
                n.self_ns,
                i * 10
            )
        })
        .collect();
    // Interleave a non-span event the parser must skip.
    lines.push("{\"v\":3,\"event\":\"iter\",\"step\":0}".to_owned());
    // Deterministic Fisher–Yates driven by a splitmix64 stream: the
    // stream order carries no information the parser may rely on.
    let mut state = shuffle_seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..lines.len()).rev() {
        lines.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    lines.join("\n") + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn shuffled_stream_reconstructs_tree_and_folds_exactly(
        seeds in proptest::collection::vec(any::<u64>(), 1..14),
        shuffle_seed in any::<u64>(),
    ) {
        let nodes = build_tree(&seeds);
        let spans = parse_spans(&jsonl(&nodes, shuffle_seed)).expect("stream parses");
        prop_assert_eq!(spans.len(), nodes.len());

        // The parsed forest carries the generated parent/child edges.
        for span in &spans {
            let i = (span.span_id - 1) as usize;
            prop_assert_eq!(span.parent_id, nodes[i].parent.map(|p| p as u64 + 1));
            prop_assert_eq!(span.path.as_str(), nodes[i].path.as_str());
            prop_assert_eq!(span.ns, nodes[i].ns);
        }

        // Folding recovers per-path self-time sums regardless of
        // stream order (sibling paths may collide and must merge).
        let mut expected: BTreeMap<String, u64> = BTreeMap::new();
        for n in &nodes {
            *expected.entry(n.path.replace('/', ";")).or_insert(0) += n.self_ns;
        }
        let folded = folded_stacks(&spans);
        prop_assert_eq!(&folded, &expected);

        // Single root: the folded total telescopes to its wall time.
        let roots = root_totals(&folded);
        prop_assert_eq!(roots.len(), 1);
        prop_assert_eq!(roots.values().copied().next(), Some(nodes[0].ns));
    }
}
