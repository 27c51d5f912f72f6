//! Discrete factors (potential tables) over network variables.
//!
//! A factor maps joint assignments of a small set of variables to
//! non-negative reals. Values are stored row-major with the *last*
//! variable varying fastest. Multiplication and summing-out are the two
//! primitives of bucket elimination (Dechter \[8\]).

/// A network variable (dense index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub usize);

/// A discrete factor.
#[derive(Clone, Debug, PartialEq)]
pub struct Factor {
    /// The variables, in stride order (last varies fastest).
    vars: Vec<Var>,
    /// Cardinalities, parallel to `vars`.
    cards: Vec<usize>,
    /// `∏ cards` values.
    values: Vec<f64>,
}

impl Factor {
    /// Creates a factor; `values.len()` must equal the product of cards.
    pub fn new(vars: Vec<Var>, cards: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(vars.len(), cards.len());
        let expected: usize = cards.iter().product();
        assert_eq!(values.len(), expected, "value count must match the joint domain size");
        Factor { vars, cards, values }
    }

    /// The constant-1 factor over no variables.
    pub fn unit() -> Self {
        Factor { vars: vec![], cards: vec![], values: vec![1.0] }
    }

    /// The factor's variables.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Cardinality of `v` within this factor.
    pub fn card_of(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&x| x == v).map(|i| self.cards[i])
    }

    /// Raw values (row-major, last variable fastest).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value at a full assignment (parallel to `vars`).
    pub fn at(&self, assignment: &[usize]) -> f64 {
        self.values[self.offset(assignment)]
    }

    fn offset(&self, assignment: &[usize]) -> usize {
        debug_assert_eq!(assignment.len(), self.vars.len());
        let mut off = 0;
        for (i, &a) in assignment.iter().enumerate() {
            debug_assert!(a < self.cards[i]);
            off = off * self.cards[i] + a;
        }
        off
    }

    /// Pointwise product; the result ranges over the union of variables.
    pub fn multiply(&self, other: &Factor) -> Factor {
        // Result variables: self's order, then other's new ones.
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        for (i, &v) in other.vars.iter().enumerate() {
            if !vars.contains(&v) {
                vars.push(v);
                cards.push(other.cards[i]);
            }
        }
        let total: usize = cards.iter().product();
        let mut values = Vec::with_capacity(total);
        // Positions of result vars inside each operand.
        let self_pos: Vec<Option<usize>> =
            vars.iter().map(|v| self.vars.iter().position(|x| x == v)).collect();
        let other_pos: Vec<Option<usize>> =
            vars.iter().map(|v| other.vars.iter().position(|x| x == v)).collect();
        let mut assignment = vec![0usize; vars.len()];
        for _ in 0..total {
            let a = self.value_at_projected(&assignment, &self_pos);
            let b = other.value_at_projected(&assignment, &other_pos);
            values.push(a * b);
            // Increment mixed-radix counter (last variable fastest).
            for i in (0..vars.len()).rev() {
                assignment[i] += 1;
                if assignment[i] < cards[i] {
                    break;
                }
                assignment[i] = 0;
            }
        }
        Factor { vars, cards, values }
    }

    fn value_at_projected(&self, assignment: &[usize], pos: &[Option<usize>]) -> f64 {
        let mut local = vec![0usize; self.vars.len()];
        for (i, p) in pos.iter().enumerate() {
            if let Some(p) = p {
                local[*p] = assignment[i];
            }
        }
        self.at(&local)
    }

    /// Sums out `v`, removing it from the scope. No-op if absent.
    pub fn sum_out(&self, v: Var) -> Factor {
        let Some(idx) = self.vars.iter().position(|&x| x == v) else {
            return self.clone();
        };
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        let removed_card = cards.remove(idx);
        vars.remove(idx);
        let _ = removed_card;
        let total: usize = cards.iter().product();
        let mut values = vec![0.0; total];
        let mut assignment = vec![0usize; self.vars.len()];
        for &val in &self.values {
            // The reduced offset folds the assignment, skipping `idx`.
            let mut off = 0;
            for (i, &a) in assignment.iter().enumerate() {
                if i != idx {
                    off = off * self.cards[i] + a;
                }
            }
            values[off] += val;
            for i in (0..self.vars.len()).rev() {
                assignment[i] += 1;
                if assignment[i] < self.cards[i] {
                    break;
                }
                assignment[i] = 0;
            }
        }
        Factor { vars, cards, values }
    }

    /// Fixes `v := state`, removing it from the scope. No-op if absent.
    pub fn restrict(&self, v: Var, state: usize) -> Factor {
        let Some(idx) = self.vars.iter().position(|&x| x == v) else {
            return self.clone();
        };
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        vars.remove(idx);
        cards.remove(idx);
        let total: usize = cards.iter().product();
        let mut values = Vec::with_capacity(total);
        let mut assignment = vec![0usize; vars.len()];
        for _ in 0..total {
            // Insert `state` at position idx to form the full assignment.
            let mut full = Vec::with_capacity(self.vars.len());
            full.extend_from_slice(&assignment[..idx]);
            full.push(state);
            full.extend_from_slice(&assignment[idx..]);
            values.push(self.at(&full));
            for i in (0..vars.len()).rev() {
                assignment[i] += 1;
                if assignment[i] < cards[i] {
                    break;
                }
                assignment[i] = 0;
            }
        }
        Factor { vars, cards, values }
    }

    /// Total mass (sum of all values).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Divides all values by the total; returns the prior total.
    pub fn normalize(&mut self) -> f64 {
        let t = self.total();
        if t > 0.0 {
            for v in &mut self.values {
                *v /= t;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f_ab() -> Factor {
        // P(a, b) over a∈{0,1}, b∈{0,1,2}: values a-major.
        Factor::new(
            vec![Var(0), Var(1)],
            vec![2, 3],
            vec![0.1, 0.2, 0.1, 0.2, 0.3, 0.1],
        )
    }

    #[test]
    fn at_indexes_row_major_last_fastest() {
        let f = f_ab();
        assert_eq!(f.at(&[0, 0]), 0.1);
        assert_eq!(f.at(&[0, 2]), 0.1);
        assert_eq!(f.at(&[1, 1]), 0.3);
    }

    #[test]
    fn sum_out_marginalises() {
        let f = f_ab();
        let fa = f.sum_out(Var(1));
        assert_eq!(fa.vars(), &[Var(0)]);
        assert!((fa.at(&[0]) - 0.4).abs() < 1e-12);
        assert!((fa.at(&[1]) - 0.6).abs() < 1e-12);
        let fb = f.sum_out(Var(0));
        assert!((fb.at(&[0]) - 0.3).abs() < 1e-12);
        assert!((fb.at(&[1]) - 0.5).abs() < 1e-12);
        assert!((fb.at(&[2]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn multiply_joins_scopes() {
        let fa = Factor::new(vec![Var(0)], vec![2], vec![0.5, 0.5]);
        let fb = Factor::new(vec![Var(1)], vec![2], vec![0.25, 0.75]);
        let joint = fa.multiply(&fb);
        assert_eq!(joint.vars().len(), 2);
        assert!((joint.at(&[0, 1]) - 0.375).abs() < 1e-12);
        assert!((joint.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiply_with_shared_variable() {
        let f = f_ab();
        let g = Factor::new(vec![Var(1)], vec![3], vec![1.0, 0.0, 2.0]);
        let h = f.multiply(&g);
        assert_eq!(h.vars(), f.vars());
        assert!((h.at(&[0, 0]) - 0.1).abs() < 1e-12);
        assert!((h.at(&[0, 1]) - 0.0).abs() < 1e-12);
        assert!((h.at(&[1, 2]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn multiply_by_unit_is_identity() {
        let f = f_ab();
        let g = f.multiply(&Factor::unit());
        assert_eq!(g, f);
    }

    #[test]
    fn restrict_fixes_a_state() {
        let f = f_ab();
        let r = f.restrict(Var(0), 1);
        assert_eq!(r.vars(), &[Var(1)]);
        assert!((r.at(&[0]) - 0.2).abs() < 1e-12);
        assert!((r.at(&[2]) - 0.1).abs() < 1e-12);
        let r2 = f.restrict(Var(1), 2);
        assert_eq!(r2.vars(), &[Var(0)]);
        assert!((r2.at(&[0]) - 0.1).abs() < 1e-12);
        assert!((r2.at(&[1]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn restrict_to_scalar() {
        let f = Factor::new(vec![Var(3)], vec![2], vec![0.3, 0.7]);
        let r = f.restrict(Var(3), 1);
        assert!(r.vars().is_empty());
        assert!((r.total() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn sum_then_multiply_commutes_with_marginal() {
        // (f · g) summed over b == f_b-marginal trick sanity.
        let f = f_ab();
        let g = Factor::new(vec![Var(1)], vec![3], vec![0.2, 0.5, 0.3]);
        let lhs = f.multiply(&g).sum_out(Var(1)).sum_out(Var(0)).total();
        let direct: f64 = (0..2)
            .flat_map(|a| (0..3).map(move |b| (a, b)))
            .map(|(a, b)| f.at(&[a, b]) * g.at(&[b]))
            .sum();
        assert!((lhs - direct).abs() < 1e-12);
    }

    #[test]
    fn normalize_returns_prior_total() {
        let mut f = Factor::new(vec![Var(0)], vec![2], vec![1.0, 3.0]);
        let t = f.normalize();
        assert!((t - 4.0).abs() < 1e-12);
        assert!((f.at(&[1]) - 0.75).abs() < 1e-12);
    }
}
