//! Probability intervals and coherence.
//!
//! The paper's companion work (Hung, Getoor & Subrahmanian, *Probabilistic
//! Interval XML*, ICDT 2003 — reference \[14\]) replaces point probabilities
//! with intervals `[lo, hi]`. A family of intervals over an exhaustive,
//! mutually exclusive event set is **coherent** iff some point
//! distribution fits inside every interval, i.e. `Σ lo ≤ 1 ≤ Σ hi`.
//! Tightening shrinks each interval to the values actually attainable.

/// A closed probability interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Creates an interval; requires `0 ≤ lo ≤ hi ≤ 1`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!((0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0, "bad interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate point interval.
    pub fn point(p: f64) -> Self {
        Interval::new(p, p)
    }

    /// True if `p` lies inside.
    pub fn contains(&self, p: f64) -> bool {
        self.lo - 1e-12 <= p && p <= self.hi + 1e-12
    }

    /// Interval product (both operands non-negative).
    pub fn mul(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo * other.lo, hi: self.hi * other.hi }
    }

    /// Interval intersection, if non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi + 1e-12).then(|| Interval { lo, hi: hi.max(lo) })
    }

    /// Complement `1 - [lo, hi]`.
    pub fn complement(&self) -> Interval {
        Interval { lo: 1.0 - self.hi, hi: 1.0 - self.lo }
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// True iff a point distribution fits the intervals: `Σ lo ≤ 1 ≤ Σ hi`.
pub fn coherent(intervals: &[Interval]) -> bool {
    let lo: f64 = intervals.iter().map(|i| i.lo).sum();
    let hi: f64 = intervals.iter().map(|i| i.hi).sum();
    lo <= 1.0 + 1e-9 && hi >= 1.0 - 1e-9
}

/// Tightens a coherent family: each bound is clamped to the attainable
/// range given the other intervals
/// (`lo_i' = max(lo_i, 1 - Σ_{j≠i} hi_j)`, `hi_i' = min(hi_i, 1 - Σ_{j≠i} lo_j)`).
/// Returns `None` when the family is incoherent.
pub fn tighten(intervals: &[Interval]) -> Option<Vec<Interval>> {
    if !coherent(intervals) {
        return None;
    }
    let sum_lo: f64 = intervals.iter().map(|i| i.lo).sum();
    let sum_hi: f64 = intervals.iter().map(|i| i.hi).sum();
    Some(
        intervals
            .iter()
            .map(|i| {
                let others_hi = sum_hi - i.hi;
                let others_lo = sum_lo - i.lo;
                Interval {
                    lo: i.lo.max(1.0 - others_hi).clamp(0.0, 1.0),
                    hi: i.hi.min(1.0 - others_lo).clamp(0.0, 1.0),
                }
            })
            .collect(),
    )
}

/// A canonical point distribution inside a coherent family: starts from
/// the tightened lower bounds and distributes the remaining mass greedily.
pub fn pick_point(intervals: &[Interval]) -> Option<Vec<f64>> {
    let tight = tighten(intervals)?;
    let mut probs: Vec<f64> = tight.iter().map(|i| i.lo).collect();
    let mut remaining = 1.0 - probs.iter().sum::<f64>();
    for (p, i) in probs.iter_mut().zip(&tight) {
        if remaining <= 1e-15 {
            break;
        }
        let slack = (i.hi - *p).min(remaining);
        *p += slack;
        remaining -= slack;
    }
    (remaining.abs() < 1e-9).then_some(probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &Interval, b: &Interval) -> bool {
        (a.lo - b.lo).abs() < 1e-9 && (a.hi - b.hi).abs() < 1e-9
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(0.2, 0.5);
        let b = Interval::new(0.4, 0.8);
        assert!(approx(&a.mul(&b), &Interval { lo: 0.08, hi: 0.4 }));
        assert_eq!(a.complement(), Interval { lo: 0.5, hi: 0.8 });
        assert!(a.contains(0.3));
        assert!(!a.contains(0.6));
        assert_eq!(a.intersect(&b).unwrap(), Interval { lo: 0.4, hi: 0.5 });
        assert!(a.intersect(&Interval::new(0.9, 1.0)).is_none());
    }

    #[test]
    fn coherence_requires_one_in_the_sum_range() {
        assert!(coherent(&[Interval::new(0.2, 0.6), Interval::new(0.3, 0.7)]));
        assert!(!coherent(&[Interval::new(0.6, 0.7), Interval::new(0.6, 0.7)])); // Σlo > 1
        assert!(!coherent(&[Interval::new(0.1, 0.2), Interval::new(0.1, 0.3)])); // Σhi < 1
    }

    #[test]
    fn tighten_clamps_to_attainable_bounds() {
        // With the other interval at most 0.3, the first must be ≥ 0.7.
        let t = tighten(&[Interval::new(0.0, 1.0), Interval::new(0.1, 0.3)]).unwrap();
        assert!((t[0].lo - 0.7).abs() < 1e-12);
        assert!((t[0].hi - 0.9).abs() < 1e-12);
        assert_eq!(t[1], Interval::new(0.1, 0.3));
    }

    #[test]
    fn tighten_is_idempotent() {
        let fam = [Interval::new(0.1, 0.9), Interval::new(0.2, 0.5)];
        let once = tighten(&fam).unwrap();
        let twice = tighten(&once).unwrap();
        for (a, b) in once.iter().zip(&twice) {
            assert!(approx(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn pick_point_lands_inside_every_interval() {
        let fam = [Interval::new(0.1, 0.6), Interval::new(0.2, 0.5), Interval::new(0.1, 0.4)];
        let p = pick_point(&fam).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let tight = tighten(&fam).unwrap();
        for (x, i) in p.iter().zip(&tight) {
            assert!(i.contains(*x));
        }
    }

    #[test]
    fn pick_point_fails_on_incoherent_family() {
        assert!(pick_point(&[Interval::new(0.0, 0.2), Interval::new(0.0, 0.3)]).is_none());
    }
}
