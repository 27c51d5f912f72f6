//! Bucket (variable) elimination — Dechter \[8\].
//!
//! Eliminates variables one at a time: all factors mentioning the
//! variable are multiplied together and the variable is summed out of the
//! product. The remaining factors are finally multiplied into a single
//! factor over the kept (query) variables.

use crate::factor::{Factor, Var};
use crate::ordering::min_degree_order;

/// Eliminates every variable except `keep`, using a min-degree ordering.
/// Returns the (unnormalised) joint factor over `keep`.
pub fn eliminate_all_but(factors: &[Factor], keep: &[Var], n_vars: usize) -> Factor {
    let all: Vec<Var> = (0..n_vars).map(Var).collect();
    let eliminate: Vec<Var> = all.into_iter().filter(|v| !keep.contains(v)).collect();
    let order = min_degree_order(factors, n_vars, &eliminate);
    eliminate_in_order(factors, &order)
}

/// Eliminates the given variables in the given order; multiplies the
/// residual factors into one result.
pub fn eliminate_in_order(factors: &[Factor], order: &[Var]) -> Factor {
    let mut pool: Vec<Factor> = factors.to_vec();
    for &v in order {
        // Bucket: all factors whose scope mentions v.
        let (bucket, rest): (Vec<Factor>, Vec<Factor>) =
            pool.into_iter().partition(|f| f.vars().contains(&v));
        pool = rest;
        if bucket.is_empty() {
            continue;
        }
        let product = bucket
            .into_iter()
            .reduce(|a, b| a.multiply(&b))
            .expect("bucket is non-empty");
        pool.push(product.sum_out(v));
    }
    pool.into_iter().reduce(|a, b| a.multiply(&b)).unwrap_or_else(Factor::unit)
}

/// Applies evidence (`var := state`) to every factor before running a
/// query.
pub fn with_evidence(factors: &[Factor], evidence: &[(Var, usize)]) -> Vec<Factor> {
    factors
        .iter()
        .map(|f| {
            let mut g = f.clone();
            for &(v, s) in evidence {
                g = g.restrict(v, s);
            }
            g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-variable chain: P(a) · P(b | a).
    fn chain() -> Vec<Factor> {
        let pa = Factor::new(vec![Var(0)], vec![2], vec![0.3, 0.7]);
        // P(b|a): rows a, cols b.
        let pba = Factor::new(vec![Var(0), Var(1)], vec![2, 2], vec![0.9, 0.1, 0.2, 0.8]);
        vec![pa, pba]
    }

    #[test]
    fn marginal_of_chain_tail() {
        let mut pb = eliminate_all_but(&chain(), &[Var(1)], 2);
        pb.normalize();
        // P(b=0) = 0.3·0.9 + 0.7·0.2 = 0.41.
        assert!((pb.at(&[0]) - 0.41).abs() < 1e-12);
        assert!((pb.at(&[1]) - 0.59).abs() < 1e-12);
    }

    #[test]
    fn elimination_preserves_total_mass() {
        let everything = eliminate_all_but(&chain(), &[], 2);
        assert!((everything.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evidence_conditions_the_query() {
        // P(a | b = 0) ∝ P(a) P(b=0|a).
        let fs = with_evidence(&chain(), &[(Var(1), 0)]);
        let mut pa = eliminate_all_but(&fs, &[Var(0)], 2);
        let prior = pa.normalize();
        assert!((prior - 0.41).abs() < 1e-12);
        assert!((pa.at(&[0]) - 0.27 / 0.41).abs() < 1e-12);
    }

    #[test]
    fn keeping_all_vars_gives_the_joint() {
        let joint = eliminate_all_but(&chain(), &[Var(0), Var(1)], 2);
        assert!((joint.total() - 1.0).abs() < 1e-12);
        // Entry order may differ; check one cell via at().
        let a0b1 = match joint.vars() {
            [Var(0), Var(1)] => joint.at(&[0, 1]),
            [Var(1), Var(0)] => joint.at(&[1, 0]),
            other => panic!("unexpected scope {other:?}"),
        };
        assert!((a0b1 - 0.03).abs() < 1e-12);
    }

    #[test]
    fn disconnected_factors_multiply() {
        let fa = Factor::new(vec![Var(0)], vec![2], vec![0.5, 0.5]);
        let fb = Factor::new(vec![Var(1)], vec![2], vec![0.1, 0.9]);
        let m = eliminate_all_but(&[fa, fb], &[Var(1)], 2);
        assert!((m.at(&[1]) - 0.9).abs() < 1e-12);
    }
}
