//! Statistics substrate for the `beaconplace` workspace.
//!
//! The paper's evaluation reports, per configuration, the *mean* and
//! *median* localization error over all measured lattice points, averaged
//! over 1000 random beacon fields, with 95 % confidence intervals. This
//! crate provides exactly that machinery, reusable and well-tested:
//!
//! * [`Summary`] — one-pass descriptive statistics of a sample
//!   (mean/median/min/max/std/quantiles/CI),
//! * [`Welford`] — numerically stable streaming mean/variance with `merge`
//!   for parallel reduction,
//! * [`ci`] — normal and Student-*t* 95 % confidence intervals,
//! * [`quantile()`](quantile::quantile) — interpolated quantiles (R-7, the default of R/NumPy).
//!
//! # Example
//!
//! ```
//! use abp_stats::Summary;
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.median(), 2.5);
//! assert_eq!(s.min(), 1.0);
//! assert_eq!(s.max(), 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod quantile;
pub mod summary;
pub mod welford;

pub use ci::{ci95_half_width, paired_diff_ci, student_t_975, ConfidenceInterval};
pub use quantile::{median, quantile};
pub use summary::Summary;
pub use welford::Welford;
