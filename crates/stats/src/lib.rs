//! Statistical estimators for the FDX reproduction.
//!
//! Three families of estimators back the systems in this workspace:
//!
//! * **Covariance** ([`covariance`], [`correlation`]) — FDX estimates the
//!   inverse covariance of its pair-difference samples (paper §4.2); the
//!   robustness argument of §4.3 rests on the difference between
//!   mean-estimated covariance and the zero-mean second moment.
//! * **Information theory** ([`entropy`], [`mutual_information`],
//!   [`fraction_of_information`], [`expected_mutual_information`]) — the
//!   measures behind the RFI baseline (Mandros et al.) and the paper's §2
//!   explanation of why entropy-style scores overfit.
//! * **Contingency analysis** ([`chi_squared`], [`chi_squared_p_value`]) —
//!   the statistics CORDS uses to find correlations and soft FDs.
//!
//! Grouping utilities ([`group_ids`], [`joint_counts`]) convert attribute
//! sets over a [`fdx_data::Dataset`] into the compact integer partitions the
//! estimators consume; [`code_pair_count`] and [`joint_pair_count`] count
//! the row pairs that agree on one or two code columns without building a
//! partition.
//!
//! The pair transform's circular-shift blocks (Algorithm 2) are packed by
//! one kernel, [`ShiftBlocks`], whose [`ShiftBlocks::fold`] adds each batch
//! of blocks into the counters of `fdx_core::pair_transform`.

mod bitpack;
mod chi2;
mod covariance;
mod entropy;
mod groups;
mod shift;

pub use chi2::{chi_squared, chi_squared_p_value, ChiSquared};
pub use covariance::{correlation, covariance, standardize_columns};
pub use entropy::{
    conditional_entropy, entropy, entropy_of_counts, expected_mutual_information,
    fraction_of_information, mutual_information, reliable_fraction_of_information,
};
pub use groups::{
    code_pair_count, group_ids, joint_counts, joint_pair_count, refine_groups,
    stable_sort_by_codes, GroupIds,
};
pub use shift::{CompareKernel, ShiftBlocks, ShiftScratch};
