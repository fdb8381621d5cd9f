//! Resource quantity newtypes.
//!
//! The paper's formal model (§3.2) types host capacities as
//! `proc : C → ℝ` (MIPS), `mem : C → ℕ` (we use megabytes), and
//! `stor : C → ℝ` (gigabytes), and link capacities as `bw : E_c → ℝ`
//! (kilobits per second here — fine-grained enough for the 87 kbps
//! low-level virtual links while representing the 1 Gbps physical links
//! exactly) and `lat : E_c → ℝ` (milliseconds).
//!
//! Newtypes keep the five quantities from being mixed up in the mapping
//! code, where nearly everything is "some f64".

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! f64_quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Raw magnitude.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// `true` when the magnitude is finite (guards against
            /// propagating the `∞` bandwidth of intra-host links into
            /// arithmetic that expects real capacities).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Component-wise minimum; used for bottleneck bandwidth.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        /// Ratio of two like quantities (dimensionless).
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $unit)
            }
        }
    };
}

f64_quantity!(
    /// Processing capacity / demand in MIPS (million instructions per second).
    Mips,
    "MIPS"
);
f64_quantity!(
    /// Storage capacity / demand in gigabytes.
    StorGb,
    "GB"
);
f64_quantity!(
    /// Bandwidth in kilobits per second. 1 Gbps = `Kbps(1_000_000.0)`.
    Kbps,
    "kbps"
);
f64_quantity!(
    /// Latency / time in milliseconds.
    Millis,
    "ms"
);

impl Kbps {
    /// Construct from megabits per second.
    #[inline]
    pub fn from_mbps(mbps: f64) -> Kbps {
        Kbps(mbps * 1_000.0)
    }

    /// Construct from gigabits per second.
    #[inline]
    pub fn from_gbps(gbps: f64) -> Kbps {
        Kbps(gbps * 1_000_000.0)
    }

    /// The infinite bandwidth of intra-host communication (§3.2: for all
    /// `c_i`, `bw((c_i, c_i)) = ∞`).
    pub const INFINITE: Kbps = Kbps(f64::INFINITY);
}

/// Rejects the first link, in edge order, whose latency is negative or NaN
/// or whose bandwidth is negative or not finite, naming its field
/// (`PhysicalTopology.graph: edges[3].lat: -1.000 ms is negative or
/// NaN`). `ctx` names the type being loaded. Routing needs `lat >= 0`: A\*Prune's Pareto labels
/// return the exhaustive search's path only on non-negative latencies.
pub(crate) fn check_links(
    ctx: &str,
    links: impl Iterator<Item = (Kbps, Millis)>,
) -> Result<(), serde::DeError> {
    for (i, (bw, lat)) in links.enumerate() {
        let field = if lat.value().is_nan() || lat.value() < 0.0 {
            format!("lat: {lat} is negative or NaN")
        } else if !bw.is_finite() || bw.value() < 0.0 {
            format!("bw: {bw} is negative or not finite")
        } else {
            continue;
        };
        return Err(serde::DeError::new(format!(
            "{ctx}.graph: edges[{i}].{field}"
        )));
    }
    Ok(())
}

/// Memory in megabytes. The paper types memory as a natural number, so this
/// is integer-backed; 1 MB granularity covers Table 1's 19 MB–3 GB range.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct MemMb(pub u64);

impl MemMb {
    /// The zero quantity.
    pub const ZERO: MemMb = MemMb(0);

    /// Raw magnitude in MB.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Construct from gigabytes.
    #[inline]
    pub fn from_gb(gb: u64) -> MemMb {
        MemMb(gb * 1024)
    }

    /// Saturating subtraction (memory residuals never go negative because
    /// memory is a hard constraint — Eq. 2).
    #[inline]
    pub fn saturating_sub(self, rhs: MemMb) -> MemMb {
        MemMb(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction: `None` when `rhs` exceeds `self`.
    #[inline]
    pub fn checked_sub(self, rhs: MemMb) -> Option<MemMb> {
        self.0.checked_sub(rhs.0).map(MemMb)
    }
}

impl Add for MemMb {
    type Output = MemMb;
    #[inline]
    fn add(self, rhs: MemMb) -> MemMb {
        MemMb(self.0 + rhs.0)
    }
}

impl AddAssign for MemMb {
    #[inline]
    fn add_assign(&mut self, rhs: MemMb) {
        self.0 += rhs.0;
    }
}

impl SubAssign for MemMb {
    #[inline]
    fn sub_assign(&mut self, rhs: MemMb) {
        self.0 = self
            .0
            .checked_sub(rhs.0)
            .expect("memory residual underflow: placement exceeded capacity");
    }
}

impl Sub for MemMb {
    type Output = MemMb;
    #[inline]
    fn sub(self, rhs: MemMb) -> MemMb {
        MemMb(
            self.0
                .checked_sub(rhs.0)
                .expect("memory residual underflow: placement exceeded capacity"),
        )
    }
}

impl Sum for MemMb {
    fn sum<I: Iterator<Item = MemMb>>(iter: I) -> MemMb {
        MemMb(iter.map(|q| q.0).sum())
    }
}

impl fmt::Display for MemMb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mips_arithmetic() {
        let a = Mips(100.0);
        let b = Mips(40.0);
        assert_eq!((a + b).value(), 140.0);
        assert_eq!((a - b).value(), 60.0);
        assert_eq!((a * 2.0).value(), 200.0);
        assert_eq!((a / 2.0).value(), 50.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-b).value(), -40.0);
        let mut c = a;
        c += b;
        c -= Mips(10.0);
        assert_eq!(c.value(), 130.0);
    }

    #[test]
    fn mips_sum_and_minmax() {
        let total: Mips = [Mips(1.0), Mips(2.0), Mips(3.0)].into_iter().sum();
        assert_eq!(total.value(), 6.0);
        assert_eq!(Mips(5.0).min(Mips(2.0)).value(), 2.0);
        assert_eq!(Mips(5.0).max(Mips(2.0)).value(), 5.0);
    }

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(Kbps::from_mbps(1.0).value(), 1_000.0);
        assert_eq!(Kbps::from_gbps(1.0).value(), 1_000_000.0);
        assert!(!Kbps::INFINITE.is_finite());
        assert!(Kbps(5.0).is_finite());
        // Bottleneck of any finite link against the intra-host link is the
        // finite one.
        assert_eq!(Kbps::INFINITE.min(Kbps(42.0)).value(), 42.0);
    }

    #[test]
    fn memory_is_integer_backed() {
        assert_eq!(MemMb::from_gb(3).value(), 3072);
        assert_eq!((MemMb(100) + MemMb(28)).value(), 128);
        assert_eq!(MemMb(100).saturating_sub(MemMb(200)), MemMb::ZERO);
        assert_eq!(MemMb(100).checked_sub(MemMb(200)), None);
        assert_eq!(MemMb(300).checked_sub(MemMb(200)), Some(MemMb(100)));
        let total: MemMb = [MemMb(1), MemMb(2)].into_iter().sum();
        assert_eq!(total, MemMb(3));
    }

    #[test]
    #[should_panic(expected = "memory residual underflow")]
    fn memory_sub_panics_on_underflow() {
        let _ = MemMb(1) - MemMb(2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Mips(1.5)), "1.500 MIPS");
        assert_eq!(format!("{}", MemMb(256)), "256 MB");
        assert_eq!(format!("{}", Millis(30.0)), "30.000 ms");
        assert_eq!(format!("{}", StorGb(100.0)), "100.000 GB");
        assert_eq!(format!("{}", Kbps(87.0)), "87.000 kbps");
    }

    #[test]
    fn ordering_works_for_sorting() {
        let mut v = vec![Mips(3.0), Mips(1.0), Mips(2.0)];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(v, vec![Mips(1.0), Mips(2.0), Mips(3.0)]);
    }
}
