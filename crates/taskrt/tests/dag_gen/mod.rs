//! The random-DAG generator shared by `random_dags.rs` (futures) and the
//! root package's `step_graph_properties.rs` (persistent graphs).

/// Normalize random `(a, b)` pairs into a DAG over `n` nodes given as
/// `deps[i] ⊂ 0..i`, deduplicated.
pub fn deps_from_edges(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo != hi && !deps[hi].contains(&lo) {
            deps[hi].push(lo);
        }
    }
    deps
}
